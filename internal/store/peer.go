package store

// This file is the store's cluster arm: the shared-tier hooks that let N
// nodes pay for each LP solve once. The store is content-addressed (spec
// hash keys generation inputs, the file checksum covers the bytes), which
// makes peer transfer trivially safe: a node that misses locally asks its
// peers for the raw snapshot file, validates it with exactly the same
// decodeFile pipeline a local read uses, and persists it — from then on it
// is indistinguishable from a locally solved snapshot. A corrupt or
// truncated peer response fails the checksum, is NOT persisted, and the
// miss falls through to a local solve, so a bad peer can cost latency but
// never correctness. A refused key is not fetched again until this process
// saves it itself: a forest's subtrees miss one after another, and each
// would otherwise pull the same damaged payload.

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

// PeerFetchFunc asks the cluster for one snapshot's raw file bytes. It
// returns ErrNotFound (or any error) when no peer has it; the bytes it
// returns are validated by the caller, so the fetcher itself does not need
// to trust the peer.
type PeerFetchFunc func(k Key) ([]byte, error)

// SetPeerFetch installs the cluster fetch hook: Load misses consult it
// before giving up, hydrating the local store from a peer that already
// paid the solve. Call during wiring, before traffic; nil disables.
func (s *Store) SetPeerFetch(fn PeerFetchFunc) {
	s.peerFetch.Store(&fn)
}

// peerLoad runs the peer-fetch path for a local miss. It returns
// ErrNotFound when there is no hook, no peer copy, or the peer bytes fail
// validation now or did before — the caller's fall-through to compute is
// the same in every case.
func (s *Store) peerLoad(k Key) (*Snapshot, error) {
	p := s.peerFetch.Load()
	if p == nil || *p == nil {
		return nil, ErrNotFound
	}
	if _, refused := s.refused.Load(k); refused {
		return nil, ErrNotFound
	}
	raw, err := (*p)(k)
	if err != nil {
		return nil, ErrNotFound
	}
	snap, err := decodeKeyed(raw, k)
	if err != nil {
		// The checksum caught a corrupt or truncated peer transfer: do
		// not persist it, do not ask for it again, and let the caller
		// solve locally.
		s.refused.Store(k, struct{}{})
		return nil, ErrNotFound
	}
	// Persist the validated bytes so the next restart (and subsequent
	// loads) read locally. Best-effort: a full disk still serves this
	// request from the fetched snapshot.
	_ = s.writeRaw(k, raw)
	return snap, nil
}

// LoadRaw reads a snapshot's raw file bytes without decoding, for serving
// peer fetches: the requester re-validates, so the read side only needs
// the cheap existence check. A missing file returns ErrNotFound.
func (s *Store) LoadRaw(k Key) ([]byte, error) {
	if err := k.validate(); err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(s.path(k))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("store: %w", err)
	}
	return raw, nil
}

// writeRaw atomically persists encoded snapshot bytes under k (temp file +
// rename, so a reader never observes a half-written snapshot): Save's
// write, and a validated peer payload's.
func (s *Store) writeRaw(k Key, raw []byte) error {
	dir := s.specDir(k.SpecHash)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".snap-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(k)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// IsNotFound reports whether err is the store's miss sentinel — a helper
// for peer-fetch transports that map it to 404.
func IsNotFound(err error) bool { return errors.Is(err, ErrNotFound) }

// peerFetchState is embedded in Store (see store.go); split out here so
// the cluster surface stays in one file.
type peerFetchState struct {
	peerFetch atomic.Pointer[PeerFetchFunc]
	// refused holds the keys whose peer payload failed validation, until
	// Save writes the key locally.
	refused sync.Map // Key -> struct{}
}
