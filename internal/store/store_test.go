package store

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"corgi/internal/codec"
	"corgi/internal/core"
	"corgi/internal/geo"
	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
	"corgi/internal/obf"
)

const testHash = "0123456789abcdef0123456789abcdef"

func testTree(t *testing.T) *loctree.Tree {
	t.Helper()
	sys, err := hexgrid.NewSystem(geo.SanFrancisco.Center(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := loctree.NewAt(sys, geo.SanFrancisco.Center(), 2)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// levelEntries builds a complete, valid entry set for a privacy level:
// identity-ish row-stochastic matrices over each subtree's leaves.
func levelEntries(t *testing.T, tree *loctree.Tree, level int) []*core.ForestEntry {
	t.Helper()
	var entries []*core.ForestEntry
	for _, node := range tree.LevelNodes(level) {
		leaves := tree.LeavesUnder(node)
		m := obf.NewMatrix(len(leaves))
		for i := range leaves {
			// A slightly off-diagonal mass so sparse and dense rows both occur.
			m.Set(i, i, 0.75)
			m.Set(i, (i+1)%len(leaves), 0.25)
		}
		entries = append(entries, &core.ForestEntry{Root: node, Leaves: leaves, Matrix: m})
	}
	return entries
}

// compactEntries is a level's entries in the compact form Save writes.
func compactEntries(tree *loctree.Tree, level int, entries []*core.ForestEntry) ([]core.CompactEntry, error) {
	forest := &core.Forest{PrivacyLevel: level, Entries: map[loctree.NodeID]*core.ForestEntry{}}
	for _, e := range entries {
		forest.Entries[e.Root] = e
	}
	return forest.Compact(tree)
}

// goldenEntries is the fixed K=7 forest testdata/forest.snap holds: the
// seven level-1 subtrees of testTree, entry e with one dense row (row e,
// uniform) and sparse rows elsewhere.
func goldenEntries(tree *loctree.Tree) []*core.ForestEntry {
	var entries []*core.ForestEntry
	for e, node := range tree.LevelNodes(1) {
		leaves := tree.LeavesUnder(node)
		m := obf.NewMatrix(len(leaves))
		for i := range leaves {
			if i == e%len(leaves) {
				for j := range leaves {
					m.Set(i, j, 1.0/float64(len(leaves)))
				}
				continue
			}
			m.Set(i, i, 0.75)
			m.Set(i, (i+1)%len(leaves), 0.25)
		}
		entries = append(entries, &core.ForestEntry{Root: node, Leaves: leaves, Matrix: m})
	}
	return entries
}

// TestForestSnapshotGolden pins the snapshot bytes to testdata/forest.snap,
// written before snapshot entries and wire-v2 entries became one type:
// what Save writes for goldenEntries is that file but for its creation
// time (Save stamps the clock, the golden holds 1760000000), and Load
// accepts the file, so stores written before keep hydrating.
func TestForestSnapshotGolden(t *testing.T) {
	tree := testTree(t)
	want, err := os.ReadFile(filepath.Join("testdata", "forest.snap"))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := decodeFile(want)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fs, err := NewForestStore(s, testHash, tree)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	entries := goldenEntries(tree)
	if err := fs.Save(ctx, 1, 2, entries); err != nil {
		t.Fatal(err)
	}
	key := Key{SpecHash: testHash, Level: 1, Delta: 2}
	saved, err := s.Load(key)
	if err != nil {
		t.Fatal(err)
	}
	saved.CreatedUnix = golden.CreatedUnix
	if got, err := encodeFile(saved); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Save wrote a snapshot that frames to\n %x\nwant\n %x (err %v)", got, want, err)
	}

	if err := os.WriteFile(s.path(key), want, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Load(ctx, 1, 2)
	if err != nil || len(got) != len(entries) {
		t.Fatalf("Load of the golden: %d entries, err %v; want %d", len(got), err, len(entries))
	}
	for i, e := range got {
		a, _ := codec.EncodeMatrix(entries[i].Matrix)
		b, _ := codec.EncodeMatrix(e.Matrix)
		if e.Root != entries[i].Root || !bytes.Equal(a, b) {
			t.Fatalf("golden entry %d is %v with blob %x, want %v with %x", i, e.Root, b, entries[i].Root, a)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{
		SpecHash:     testHash,
		PrivacyLevel: 1,
		Delta:        2,
		Entries: []core.CompactEntry{{
			RootQ: 1, RootR: -1,
			Leaves: [][2]int{{0, 0}, {1, 0}},
			Dim:    2,
			Data:   []byte{1, 2, 3},
		}},
	}
	if err := s.Save(snap); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load(Key{SpecHash: testHash, Level: 1, Delta: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got.SpecHash != testHash || got.PrivacyLevel != 1 || got.Delta != 2 ||
		len(got.Entries) != 1 || got.Entries[0].RootQ != 1 || string(got.Entries[0].Data) != "\x01\x02\x03" {
		t.Fatalf("round trip mangled snapshot: %+v", got)
	}
	if got.CreatedUnix == 0 {
		t.Error("Save must stamp CreatedUnix")
	}
}

func TestLoadMissingAndKeyValidation(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(Key{SpecHash: testHash, Level: 1, Delta: 0}); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing snapshot: got %v, want ErrNotFound", err)
	}
	if _, err := s.Load(Key{SpecHash: "short", Level: 1, Delta: 0}); err == nil {
		t.Error("short spec hash must fail")
	}
	if _, err := s.Load(Key{SpecHash: testHash, Level: 0, Delta: 0}); err == nil {
		t.Error("level 0 must fail")
	}
	if err := s.Save(&Snapshot{SpecHash: testHash, PrivacyLevel: 1, Delta: 0}); err == nil {
		t.Error("empty snapshot must be refused")
	}
	if _, err := Open(""); err == nil {
		t.Error("empty directory must fail")
	}
}

// TestCorruptionRejectedByChecksum flips, truncates, and rebrands snapshot
// bytes and checks every mutation comes back as ErrCorrupt — never as a
// silently wrong forest.
func TestCorruptionRejectedByChecksum(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key{SpecHash: testHash, Level: 1, Delta: 0}
	snap := &Snapshot{
		SpecHash: testHash, PrivacyLevel: 1, Delta: 0,
		Entries: []core.CompactEntry{{Leaves: [][2]int{{0, 0}}, Dim: 1, Data: []byte{9}}},
	}
	if err := s.Save(snap); err != nil {
		t.Fatal(err)
	}
	path := s.path(key)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	mutate := func(name string, corrupt func([]byte) []byte) {
		t.Helper()
		if err := os.WriteFile(path, corrupt(append([]byte(nil), pristine...)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Load(key); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
	mutate("flipped payload byte", func(b []byte) []byte { b[len(b)-1] ^= 0xFF; return b })
	mutate("flipped checksum byte", func(b []byte) []byte { b[20] ^= 0xFF; return b })
	mutate("truncated payload", func(b []byte) []byte { return b[:len(b)-5] })
	mutate("truncated header", func(b []byte) []byte { return b[:10] })
	mutate("bad magic", func(b []byte) []byte { b[0] = 'X'; return b })
	mutate("future version", func(b []byte) []byte { b[4] = 0xFE; return b })

	// A snapshot whose payload disagrees with its path key (hand-copied
	// between spec dirs) is also corrupt.
	otherHash := "fedcba9876543210fedcba9876543210"
	if err := os.MkdirAll(s.specDir(otherHash), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(Key{SpecHash: otherHash, Level: 1, Delta: 0}), pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(Key{SpecHash: otherHash, Level: 1, Delta: 0}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("foreign spec hash: got %v, want ErrCorrupt", err)
	}
}

func TestListSortsAndSkipsForeignFiles(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []Key{{testHash, 2, 1}, {testHash, 1, 3}, {testHash, 1, 0}} {
		snap := &Snapshot{
			SpecHash: testHash, PrivacyLevel: k.Level, Delta: k.Delta,
			Entries: []core.CompactEntry{{Leaves: [][2]int{{0, 0}}, Dim: 1, Data: []byte{1}}},
		}
		if err := s.Save(snap); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WriteSpecNote(testHash, map[string]string{"name": "x"}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.specDir(testHash), "README"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	keys, err := s.List(testHash)
	if err != nil {
		t.Fatal(err)
	}
	want := []Key{{testHash, 1, 0}, {testHash, 1, 3}, {testHash, 2, 1}}
	if len(keys) != len(want) {
		t.Fatalf("keys %+v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Errorf("keys[%d] = %+v, want %+v", i, keys[i], want[i])
		}
	}
	if other, err := s.List("fedcba9876543210"); err != nil || other != nil {
		t.Errorf("unknown hash: %v, %v", other, err)
	}
	if size, err := s.SizeBytes(); err != nil || size == 0 {
		t.Errorf("store size: %d, %v", size, err)
	}
}

// TestForestStoreRoundTrip saves a real entry set through the adapter and
// loads it back against the same tree.
func TestForestStoreRoundTrip(t *testing.T) {
	tree := testTree(t)
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fs, err := NewForestStore(s, testHash, tree)
	if err != nil {
		t.Fatal(err)
	}
	entries := levelEntries(t, tree, 1)
	if err := fs.Save(context.Background(), 1, 0, entries); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Load(context.Background(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("loaded %d entries, want %d", len(got), len(entries))
	}
	byRoot := map[loctree.NodeID]*core.ForestEntry{}
	for _, e := range got {
		byRoot[e.Root] = e
	}
	for _, want := range entries {
		e, ok := byRoot[want.Root]
		if !ok {
			t.Fatalf("missing entry %v", want.Root)
		}
		if len(e.Leaves) != len(want.Leaves) || e.Matrix.Dim() != want.Matrix.Dim() {
			t.Fatalf("entry %v shape mismatch", want.Root)
		}
		// The codec re-encodes decoded matrices to identical bytes, so
		// comparing blobs checks value fidelity within quantization.
		a, _ := codec.EncodeMatrix(want.Matrix)
		b, _ := codec.EncodeMatrix(e.Matrix)
		if string(a) != string(b) {
			t.Fatalf("entry %v matrix changed across the store", want.Root)
		}
	}
	refs, err := fs.List()
	if err != nil || len(refs) != 1 || refs[0] != (core.StoredForestRef{Level: 1, Delta: 0}) {
		t.Fatalf("refs %+v, err %v", refs, err)
	}
}

// TestForestStoreRejectsBadSnapshots checks the adapter treats corrupt and
// incomplete snapshots as absent — the engine falls through to compute —
// and purges them from disk.
func TestForestStoreRejectsBadSnapshots(t *testing.T) {
	tree := testTree(t)
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fs, err := NewForestStore(s, testHash, tree)
	if err != nil {
		t.Fatal(err)
	}
	key := Key{SpecHash: testHash, Level: 1, Delta: 0}

	// Corrupt file bytes: absent, and the file is purged.
	if err := fs.Save(context.Background(), 1, 0, levelEntries(t, tree, 1)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(s.path(key))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(key), raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := fs.Load(context.Background(), 1, 0); err != nil || got != nil {
		t.Fatalf("truncated snapshot: got %v, %v; want nil, nil", got, err)
	}
	if _, err := os.Stat(s.path(key)); !os.IsNotExist(err) {
		t.Error("corrupt snapshot not purged")
	}

	// Incomplete forest (one entry missing): Save refuses to write it, and
	// one written anyway is validated away.
	entries := levelEntries(t, tree, 1)
	if err := fs.Save(context.Background(), 1, 0, entries[:len(entries)-1]); err == nil {
		t.Fatal("Save wrote an incomplete forest")
	}
	compact, err := compactEntries(tree, 1, entries)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(&Snapshot{SpecHash: testHash, PrivacyLevel: 1, Entries: compact[1:]}); err != nil {
		t.Fatal(err)
	}
	if got, err := fs.Load(context.Background(), 1, 0); err != nil || got != nil {
		t.Fatalf("incomplete snapshot: got %v, %v; want nil, nil", got, err)
	}

	// Non-stochastic matrix: validated away.
	entries = levelEntries(t, tree, 1)
	entries[0].Matrix.Set(0, 0, 0.1)
	if err := fs.Save(context.Background(), 1, 0, entries); err != nil {
		t.Fatal(err)
	}
	if got, err := fs.Load(context.Background(), 1, 0); err != nil || got != nil {
		t.Fatalf("non-stochastic snapshot: got %v, %v; want nil, nil", got, err)
	}
}
