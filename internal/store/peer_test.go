package store

import (
	"errors"
	"testing"

	"corgi/internal/core"
)

// peerPair builds a source store holding one snapshot and an empty local
// store, returning both plus the snapshot's key.
func peerPair(t *testing.T) (src, local *Store, k Key) {
	t.Helper()
	var err error
	if src, err = Open(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if local, err = Open(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	k = Key{SpecHash: testHash, Level: 1, Delta: 2}
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
	if err := src.Save(snap); err != nil {
		t.Fatal(err)
	}
	return src, local, k
}

// TestPeerFetchHydrates: a local miss hydrates from a peer's raw bytes,
// persists the validated file, and subsequent loads are local — the
// cluster pays each solve once.
func TestPeerFetchHydrates(t *testing.T) {
	src, local, k := peerPair(t)
	fetches := 0
	local.SetPeerFetch(func(key Key) ([]byte, error) { fetches++; return src.LoadRaw(key) })

	got, err := local.Load(k)
	if err != nil {
		t.Fatalf("peer-hydrated load: %v", err)
	}
	if got.SpecHash != testHash || len(got.Entries) != 1 {
		t.Fatalf("hydrated snapshot mangled: %+v", got)
	}
	if fetches != 1 {
		t.Fatalf("one miss asked the peer %d times", fetches)
	}
	// Persisted: the next load succeeds with the hook gone.
	local.SetPeerFetch(nil)
	if _, err := local.Load(k); err != nil {
		t.Fatalf("reload after hydration: %v", err)
	}
}

// TestPeerFetchRejectsCorrupt is the satellite contract: a corrupt or
// truncated peer snapshot fails the checksum, is NOT persisted, and the miss falls through (to a local solve, in the serving
// stack) as a plain ErrNotFound.
func TestPeerFetchRejectsCorrupt(t *testing.T) {
	src, local, k := peerPair(t)
	raw, err := src.LoadRaw(k)
	if err != nil {
		t.Fatal(err)
	}

	corruptions := map[string][]byte{
		"flipped byte": append(append([]byte(nil), raw[:len(raw)-3]...), raw[len(raw)-3]^0xff, raw[len(raw)-2], raw[len(raw)-1]),
		"truncated":    raw[:len(raw)/2],
		"empty":        {},
	}
	for name, bad := range corruptions {
		payload := bad
		local.SetPeerFetch(func(Key) ([]byte, error) { return payload, nil })
		if _, err := local.Load(k); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s peer payload: got %v, want ErrNotFound fall-through", name, err)
		}
	}
	// Nothing was persisted: with the hook removed the snapshot is still
	// absent locally.
	local.SetPeerFetch(nil)
	if _, err := local.Load(k); !errors.Is(err, ErrNotFound) {
		t.Fatalf("corrupt payload was persisted: %v", err)
	}
	if _, err := local.LoadRaw(k); !errors.Is(err, ErrNotFound) {
		t.Fatal("corrupt payload reached the snapshot directory")
	}
}

// TestPeerFetchRejectsWrongKey: a checksum-valid snapshot for a different
// key (a confused or malicious peer) is rejected by the key cross-check.
func TestPeerFetchRejectsWrongKey(t *testing.T) {
	src, local, k := peerPair(t)
	other := &Snapshot{
		SpecHash:     testHash,
		PrivacyLevel: 2, // valid snapshot, wrong level
		Delta:        2,
		Entries:      []core.CompactEntry{{RootQ: 0, RootR: 0, Leaves: [][2]int{{0, 0}}, Dim: 1, Data: []byte{9}}},
	}
	if err := src.Save(other); err != nil {
		t.Fatal(err)
	}
	local.SetPeerFetch(func(Key) ([]byte, error) {
		return src.LoadRaw(Key{SpecHash: testHash, Level: 2, Delta: 2})
	})
	if _, err := local.Load(k); !errors.Is(err, ErrNotFound) {
		t.Fatalf("wrong-key peer payload: got %v, want ErrNotFound", err)
	}
	if _, err := local.LoadRaw(k); !errors.Is(err, ErrNotFound) {
		t.Fatal("wrong-key payload reached the snapshot directory")
	}
}

// TestPeerFetchRefusedOnce: a peer payload that fails validation is
// fetched once per key, not again on every later miss of that key, and a
// local Save of the key ends the refusal by serving it from disk.
func TestPeerFetchRefusedOnce(t *testing.T) {
	src, local, k := peerPair(t)
	raw, err := src.LoadRaw(k)
	if err != nil {
		t.Fatal(err)
	}
	damaged := append([]byte(nil), raw...)
	damaged[len(damaged)-1] ^= 0xff
	fetches := 0
	local.SetPeerFetch(func(Key) ([]byte, error) { fetches++; return damaged, nil })
	for i := 0; i < 3; i++ {
		if _, err := local.Load(k); !errors.Is(err, ErrNotFound) {
			t.Fatalf("load %d: got %v, want ErrNotFound", i, err)
		}
	}
	if fetches != 1 {
		t.Fatalf("three misses of one refused key fetched it %d times, want 1", fetches)
	}
	snap, err := src.Load(k)
	if err != nil {
		t.Fatal(err)
	}
	if err := local.Save(snap); err != nil {
		t.Fatal(err)
	}
	if got, err := local.Load(k); err != nil || len(got.Entries) != 1 {
		t.Fatalf("load after the local save: %+v, %v", got, err)
	}
	if fetches != 1 {
		t.Fatalf("the saved key went to the peer again: %d fetches", fetches)
	}
}
