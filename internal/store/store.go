// Package store is the persistent forest store: a content-addressed,
// versioned, checksummed on-disk snapshot format for privacy forests, keyed
// by (region spec hash, privacy level, delta).
//
// The paper's dominant cost is the iterated LP solve behind every robust
// matrix (Algorithms 1/3), yet the mechanisms themselves are static per
// (prior, epsilon, delta): Bordenabe et al. and Primault et al. both note
// that optimal-mechanism computation is the deployment bottleneck and
// should be paid once. The store makes that work durable across process
// lifetimes — a restarted server hydrates its caches from snapshots instead
// of re-solving, and an offline tool (cmd/corgi-gen) can populate a store
// directory before the first request ever arrives.
//
// Layout: one directory per region spec hash, one file per (level, delta)
// forest:
//
//	<dir>/<specHash[:16]>/L<level>_d<delta>.snap
//	<dir>/<specHash[:16]>/spec.json            (debugging aid, not read back)
//
// Keying by spec hash is the invalidation mechanism: any change to a
// region's generation inputs (priors, epsilon, iterations, tree shape, ...)
// changes the hash, so stale snapshots are simply never addressed again. A
// snapshot additionally embeds its own spec hash and key; a file that
// disagrees with its path (copied or renamed by hand) is rejected as
// corrupt rather than served.
//
// File format (version 1): a fixed header followed by a gzip-compressed
// JSON payload. The SHA-256 checksum covers the compressed payload bytes as
// they sit on disk, so truncation and bit rot are caught before decoding:
//
//	[4]byte  magic "CRGF"
//	uint16   format version (little endian)
//	uint16   reserved (zero)
//	uint32   payload length (little endian)
//	[32]byte SHA-256 of the payload
//	[]byte   payload: gzip(JSON(Snapshot))
//
// The payload's entries are core.CompactEntry — the entry form of wire
// format v2, quantized row-sparse matrix blobs included — so a snapshot
// and a v2 response carry identical entry bytes, and a forest that
// round-trips through the store re-encodes identically (the codec's
// quantization is idempotent).
package store

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"corgi/internal/codec"
	"corgi/internal/core"
)

// FormatVersion is the snapshot file format version this package writes.
// Readers reject other versions as corrupt (forcing a recompute) rather
// than guessing.
const FormatVersion = 1

var magic = [4]byte{'C', 'R', 'G', 'F'}

const headerLen = 4 + 2 + 2 + 4 + sha256.Size

// ErrNotFound marks a lookup of a snapshot that does not exist.
var ErrNotFound = errors.New("store: snapshot not found")

// ErrCorrupt marks a snapshot file that failed validation (bad magic,
// version, checksum, truncation, or a payload that disagrees with its key).
// Callers fall through to compute instead of serving it.
var ErrCorrupt = errors.New("store: snapshot corrupt")

// maxSnapshotJSON caps a snapshot's inflated payload at 64 MiB, the bound
// proto.MaxResponseBytes puts on a response body. No forest comes near
// it, so a payload over it is corrupt: a peer's gzip bomb is refused
// before it is inflated.
const maxSnapshotJSON = 64 << 20

// Key addresses one forest snapshot.
type Key struct {
	// SpecHash identifies the full set of generation inputs (see
	// registry.Spec.Hash, lowercase hex). The first 16 characters become
	// the directory name, so checkSpecHash bounds what it may contain.
	SpecHash string
	// Level and Delta are the forest's privacy level and prune allowance.
	Level, Delta int
}

// Snapshot is one persisted forest: every entry of a (level, delta)
// privacy forest, in the same compact form as a wire-v2 body, plus the key
// it was generated under.
type Snapshot struct {
	SpecHash     string              `json:"spec_hash"`
	PrivacyLevel int                 `json:"privacy_l"`
	Delta        int                 `json:"delta"`
	CreatedUnix  int64               `json:"created_unix"`
	Entries      []core.CompactEntry `json:"entries"`
}

// Store is a forest snapshot directory. All methods are safe for
// concurrent use; Save is atomic (temp file + rename), so a reader never
// observes a half-written snapshot.
type Store struct {
	dir string

	// peerFetchState is the cluster shared-tier hook: a Load miss can
	// hydrate from a peer node's store before falling through to a local
	// solve (see peer.go).
	peerFetchState
}

// Open creates the directory if needed and returns a store over it.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// checkSpecHash accepts a spec hash that is safe to name a directory
// after: 16 or more of [0-9a-z-], which covers the lowercase hex Spec.Hash
// emits and the readable names tools key scratch stores by, and excludes
// every separator and dot. A hash arrives from the network (GET
// /v1/store/snapshot), and "../../../etc/./." is 16 characters too.
func checkSpecHash(specHash string) error {
	if len(specHash) < 16 || strings.Trim(specHash, "0123456789abcdefghijklmnopqrstuvwxyz-") != "" {
		return fmt.Errorf("store: spec hash %q is not 16 or more characters of [0-9a-z-]", specHash)
	}
	return nil
}

func (k Key) validate() error {
	if err := checkSpecHash(k.SpecHash); err != nil {
		return err
	}
	if k.Level < 1 || k.Delta < 0 {
		return fmt.Errorf("store: key (level %d, delta %d) out of range", k.Level, k.Delta)
	}
	return nil
}

func (s *Store) specDir(specHash string) string {
	return filepath.Join(s.dir, specHash[:16])
}

func (s *Store) path(k Key) string {
	return filepath.Join(s.specDir(k.SpecHash), fmt.Sprintf("L%d_d%d.snap", k.Level, k.Delta))
}

// Load reads and validates the snapshot for a key. A missing file returns
// ErrNotFound; any validation failure returns ErrCorrupt (wrapped with the
// reason).
func (s *Store) Load(k Key) (*Snapshot, error) {
	if err := k.validate(); err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(s.path(k))
	if err != nil {
		if os.IsNotExist(err) {
			// Shared tier: a peer node may already have paid this solve.
			// peerLoad validates (same checksum pipeline as a local read)
			// and persists; any failure is just ErrNotFound to the caller.
			if snap, perr := s.peerLoad(k); perr == nil {
				return snap, nil
			}
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("store: %w", err)
	}
	return decodeKeyed(raw, k)
}

// decodeKeyed is decodeFile for bytes that claim to be k's snapshot, from
// k's own path or from a peer: a valid file that holds another key's
// forest is as corrupt as a bad checksum.
func decodeKeyed(raw []byte, k Key) (*Snapshot, error) {
	snap, err := decodeFile(raw)
	if err == nil && (snap.SpecHash != k.SpecHash || snap.PrivacyLevel != k.Level || snap.Delta != k.Delta) {
		return nil, fmt.Errorf("%w: payload key (%s, L%d, d%d) disagrees with requested key (%s, L%d, d%d)",
			ErrCorrupt, snap.SpecHash, snap.PrivacyLevel, snap.Delta, k.SpecHash, k.Level, k.Delta)
	}
	return snap, err
}

// Save atomically persists a snapshot under its embedded key.
func (s *Store) Save(snap *Snapshot) error {
	k := Key{SpecHash: snap.SpecHash, Level: snap.PrivacyLevel, Delta: snap.Delta}
	if err := k.validate(); err != nil {
		return err
	}
	if len(snap.Entries) == 0 {
		return fmt.Errorf("store: refusing to save empty snapshot for %+v", k)
	}
	if snap.CreatedUnix == 0 {
		snap.CreatedUnix = time.Now().Unix()
	}
	raw, err := encodeFile(snap)
	if err != nil {
		return err
	}
	if err := s.writeRaw(k, raw); err != nil {
		return err
	}
	s.refused.Delete(k)
	return nil
}

// Remove deletes a snapshot file (used to purge corrupt or stale files).
// Removing a missing snapshot is not an error.
func (s *Store) Remove(k Key) error {
	if err := k.validate(); err != nil {
		return err
	}
	if err := os.Remove(s.path(k)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// WriteSpecNote drops a human-readable spec description next to a spec
// hash's snapshots. It is a debugging aid only and is never read back.
func (s *Store) WriteSpecNote(specHash string, note any) error {
	if err := checkSpecHash(specHash); err != nil {
		return err
	}
	data, err := json.MarshalIndent(note, "", "  ")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	dir := s.specDir(specHash)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, "spec.json"), append(data, '\n'), 0o644)
}

// List enumerates the snapshot keys stored for one spec hash, sorted by
// (level, delta). Unparseable file names are skipped.
func (s *Store) List(specHash string) ([]Key, error) {
	if err := checkSpecHash(specHash); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(s.specDir(specHash))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: %w", err)
	}
	var keys []Key
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		var level, delta int
		if n, err := fmt.Sscanf(e.Name(), "L%d_d%d.snap", &level, &delta); n != 2 || err != nil {
			continue
		}
		keys = append(keys, Key{SpecHash: specHash, Level: level, Delta: delta})
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Level != keys[j].Level {
			return keys[i].Level < keys[j].Level
		}
		return keys[i].Delta < keys[j].Delta
	})
	return keys, nil
}

// SizeBytes walks the store directory and sums snapshot file sizes.
func (s *Store) SizeBytes() (int64, error) {
	var total int64
	err := filepath.WalkDir(s.dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// encodeFile frames a snapshot: header + checksum + gzip(JSON).
func encodeFile(snap *Snapshot) ([]byte, error) {
	js, err := json.Marshal(snap)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var buf bytes.Buffer
	buf.Write(make([]byte, headerLen))
	if err := codec.Gzip(&buf, js); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	raw := buf.Bytes()
	frame(raw)
	return raw, nil
}

// frame fills in the header of a file whose payload follows headerLen
// reserved bytes.
func frame(raw []byte) {
	payload := raw[headerLen:]
	copy(raw, magic[:])
	binary.LittleEndian.PutUint16(raw[4:], FormatVersion)
	binary.LittleEndian.PutUint16(raw[6:], 0) // reserved
	binary.LittleEndian.PutUint32(raw[8:], uint32(len(payload)))
	sum := sha256.Sum256(payload)
	copy(raw[12:], sum[:])
}

// decodeFile validates the frame and decodes the snapshot. Every failure
// wraps ErrCorrupt so callers can uniformly fall through to compute.
func decodeFile(raw []byte) (*Snapshot, error) {
	if len(raw) < headerLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrCorrupt, len(raw), headerLen)
	}
	if !bytes.Equal(raw[:4], magic[:]) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, raw[:4])
	}
	if v := binary.LittleEndian.Uint16(raw[4:]); v != FormatVersion {
		return nil, fmt.Errorf("%w: format version %d, reader supports %d", ErrCorrupt, v, FormatVersion)
	}
	payloadLen := int(binary.LittleEndian.Uint32(raw[8:]))
	payload := raw[headerLen:]
	if len(payload) != payloadLen {
		return nil, fmt.Errorf("%w: payload is %d bytes, header says %d", ErrCorrupt, len(payload), payloadLen)
	}
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], raw[12:12+sha256.Size]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	gz, err := gzip.NewReader(bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	// The checksum shows only that the payload is what its writer sent,
	// and a peer's file brings its own. So the inflated length the gzip
	// trailer claims (its last 4 bytes; NewReader has read a 10-byte
	// header) is held to the cap before anything is inflated, and the
	// payload is refused one byte past that claim.
	size := binary.LittleEndian.Uint32(payload[len(payload)-4:])
	if size > maxSnapshotJSON {
		return nil, fmt.Errorf("%w: payload claims to inflate to %d bytes, over the %d-byte cap", ErrCorrupt, size, maxSnapshotJSON)
	}
	js := make([]byte, size)
	if _, err := io.ReadFull(gz, js); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	// The end of the stream is where the reader checks its CRC and length.
	if _, err := gz.Read(make([]byte, 1)); err != io.EOF {
		if err == nil {
			err = fmt.Errorf("payload inflates past the %d bytes its trailer claims", size)
		}
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	var snap Snapshot
	if err := json.Unmarshal(js, &snap); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return &snap, nil
}
