package store

import (
	"context"
	"errors"
	"fmt"

	"corgi/internal/codec"
	"corgi/internal/core"
	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
)

// ForestStore binds a snapshot Store to one region — its spec hash and
// location tree — and implements core.ForestStore, the engine's durable
// second tier. Loads validate snapshots against the live tree (membership,
// completeness, row-stochasticity) exactly like the wire decoder, so a
// snapshot can never smuggle a malformed matrix into the cache; anything
// that fails validation is purged from disk and reported as absent, which
// makes the engine fall through to compute and overwrite it.
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

// Load implements core.ForestStore. Absent, corrupt, stale, and
// tree-incompatible snapshots all return (nil, nil): the engine computes
// instead, and its write-back replaces the bad file. Only infrastructure
// errors (unreadable directory) surface as errors.
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
	entries, err := f.decode(snap)
	if err != nil {
		_ = f.store.Remove(key)
		return nil, nil
	}
	return entries, nil
}

// Save implements core.ForestStore.
func (f *ForestStore) Save(_ context.Context, level, delta int, entries []*core.ForestEntry) error {
	snap := &Snapshot{
		SpecHash:     f.specHash,
		PrivacyLevel: level,
		Delta:        delta,
		Entries:      make([]EntrySnapshot, 0, len(entries)),
	}
	for _, e := range entries {
		data, err := codec.EncodeMatrix(e.Matrix)
		if err != nil {
			return err
		}
		es := EntrySnapshot{
			RootQ: e.Root.Coord.Q,
			RootR: e.Root.Coord.R,
			Dim:   e.Matrix.Dim(),
			Data:  data,
		}
		for _, l := range e.Leaves {
			es.Leaves = append(es.Leaves, [2]int{l.Coord.Q, l.Coord.R})
		}
		snap.Entries = append(snap.Entries, es)
	}
	return f.store.Save(snap)
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

// decode validates a snapshot against the live tree and rebuilds its
// entries. The forest must be complete: exactly one entry per node of the
// privacy level, each with a row-stochastic matrix over its own leaf set.
func (f *ForestStore) decode(snap *Snapshot) ([]*core.ForestEntry, error) {
	if snap.PrivacyLevel < 1 || snap.PrivacyLevel > f.tree.Height() {
		return nil, fmt.Errorf("store: snapshot level %d outside tree height %d", snap.PrivacyLevel, f.tree.Height())
	}
	nodes := f.tree.LevelNodes(snap.PrivacyLevel)
	if len(snap.Entries) != len(nodes) {
		return nil, fmt.Errorf("store: snapshot has %d entries, level %d has %d nodes",
			len(snap.Entries), snap.PrivacyLevel, len(nodes))
	}
	seen := make(map[loctree.NodeID]bool, len(nodes))
	entries := make([]*core.ForestEntry, 0, len(snap.Entries))
	for _, es := range snap.Entries {
		root := loctree.NodeID{Level: snap.PrivacyLevel, Coord: hexgrid.Coord{Q: es.RootQ, R: es.RootR}}
		if !f.tree.Contains(root) || seen[root] {
			return nil, fmt.Errorf("store: snapshot entry root %v invalid or duplicated", root)
		}
		seen[root] = true
		if es.Dim != len(es.Leaves) {
			return nil, fmt.Errorf("store: entry %v has dim %d for %d leaves", root, es.Dim, len(es.Leaves))
		}
		m, err := codec.DecodeMatrix(es.Data, es.Dim)
		if err != nil {
			return nil, fmt.Errorf("store: entry %v: %w", root, err)
		}
		if err := m.CheckStochastic(1e-6); err != nil {
			return nil, fmt.Errorf("store: entry %v: %w", root, err)
		}
		leaves := make([]loctree.NodeID, len(es.Leaves))
		for i, qr := range es.Leaves {
			leaves[i] = loctree.NodeID{Level: 0, Coord: hexgrid.Coord{Q: qr[0], R: qr[1]}}
			if !f.tree.Contains(leaves[i]) {
				return nil, fmt.Errorf("store: entry %v leaf %v not in tree", root, leaves[i])
			}
		}
		entries = append(entries, &core.ForestEntry{Root: root, Leaves: leaves, Matrix: m})
	}
	return entries, nil
}
