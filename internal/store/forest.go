package store

import (
	"context"
	"errors"
	"fmt"

	"corgi/internal/core"
	"corgi/internal/loctree"
)

// ForestStore binds a snapshot Store to one region — its spec hash and
// location tree — and implements core.ForestStore, the engine's durable
// second tier. Snapshot entries are core.CompactEntry, written by the same
// encoder as a wire-v2 body and read back through the same validator,
// core.DecodeForest (tree membership, completeness, each entry's exact
// leaf set, row-stochasticity), so a snapshot can never smuggle a
// malformed matrix into the cache; anything that fails validation is
// purged from disk and reported as absent, which makes the engine fall
// through to compute and overwrite it.
type ForestStore struct {
	store    *Store
	specHash string
	tree     *loctree.Tree
}

// NewForestStore adapts a Store for one region's engine.
func NewForestStore(s *Store, specHash string, tree *loctree.Tree) (*ForestStore, error) {
	if s == nil || tree == nil {
		return nil, fmt.Errorf("store: nil store or tree")
	}
	if err := checkSpecHash(specHash); err != nil {
		return nil, err
	}
	return &ForestStore{store: s, specHash: specHash, tree: tree}, nil
}

// Load implements core.ForestStore, returning the entries in the tree's
// level-node order. Absent, corrupt, stale, and tree-incompatible
// snapshots all return (nil, nil): the engine computes instead, and its
// write-back replaces the bad file. Only infrastructure errors (unreadable
// directory) surface as errors.
func (f *ForestStore) Load(_ context.Context, level, delta int) ([]*core.ForestEntry, error) {
	key := Key{SpecHash: f.specHash, Level: level, Delta: delta}
	snap, err := f.store.Load(key)
	switch {
	case errors.Is(err, ErrNotFound):
		return nil, nil
	case errors.Is(err, ErrCorrupt):
		// Purge so the recomputed forest's write-back lands cleanly.
		_ = f.store.Remove(key)
		return nil, nil
	case err != nil:
		return nil, err
	}
	forest, err := core.DecodeForest(f.tree, snap.PrivacyLevel, snap.Delta, snap.Entries)
	if err != nil {
		_ = f.store.Remove(key)
		return nil, nil
	}
	return forest.Ordered(f.tree)
}

// Save implements core.ForestStore. The entries must cover every node of
// the level.
func (f *ForestStore) Save(_ context.Context, level, delta int, entries []*core.ForestEntry) error {
	forest := &core.Forest{PrivacyLevel: level, Delta: delta, Entries: make(map[loctree.NodeID]*core.ForestEntry, len(entries))}
	for _, e := range entries {
		forest.Entries[e.Root] = e
	}
	compact, err := forest.Compact(f.tree)
	if err != nil {
		return err
	}
	return f.store.Save(&Snapshot{SpecHash: f.specHash, PrivacyLevel: level, Delta: delta, Entries: compact})
}

// List implements core.ForestStore, enumerating this region's snapshots.
// Forests whose privacy level exceeds the live tree's height (a snapshot
// from a differently-shaped spec could only get here by hand-copying; the
// spec hash normally rules it out) are skipped.
func (f *ForestStore) List() ([]core.StoredForestRef, error) {
	keys, err := f.store.List(f.specHash)
	if err != nil {
		return nil, err
	}
	refs := make([]core.StoredForestRef, 0, len(keys))
	for _, k := range keys {
		if k.Level > f.tree.Height() {
			continue
		}
		refs = append(refs, core.StoredForestRef{Level: k.Level, Delta: k.Delta})
	}
	return refs, nil
}
