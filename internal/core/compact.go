package core

import (
	"fmt"

	"corgi/internal/codec"
	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
	"corgi/internal/obf"
)

// CompactEntry is a forest entry's portable form: one subtree's matrix as
// an internal/codec blob (base64 in JSON), with the root and leaves it
// covers. The wire-v2 forest body (internal/proto) and the store snapshot
// (internal/store) are lists of it, so the two carry identical bytes.
type CompactEntry struct {
	RootQ  int      `json:"root_q"`
	RootR  int      `json:"root_r"`
	Leaves [][2]int `json:"leaves"` // axial coords in matrix order
	Dim    int      `json:"dim"`
	Data   []byte   `json:"data"`
}

// Claim implements EncodedEntry.
func (e CompactEntry) Claim() (rootQ, rootR int, leaves [][2]int, dim int) {
	return e.RootQ, e.RootR, e.Leaves, e.Dim
}

// Matrix implements EncodedEntry.
func (e CompactEntry) Matrix() (*obf.Matrix, error) { return codec.DecodeMatrix(e.Data, e.Dim) }

// EncodedEntry is a forest entry as a decoded body holds it: the root,
// leaves and dimension it claims, and a matrix that DecodeForest decodes
// only once the claim has been checked against the tree. CompactEntry and
// the dense v1 wire entry implement it.
type EncodedEntry interface {
	Claim() (rootQ, rootR int, leaves [][2]int, dim int)
	Matrix() (*obf.Matrix, error)
}

// Ordered returns the forest's entries in tree.LevelNodes order, failing
// on a level node the forest has no entry for.
func (f *Forest) Ordered(tree *loctree.Tree) ([]*ForestEntry, error) {
	nodes := tree.LevelNodes(f.PrivacyLevel)
	out := make([]*ForestEntry, len(nodes))
	for i, node := range nodes {
		if out[i] = f.Entries[node]; out[i] == nil {
			return nil, fmt.Errorf("core: forest missing entry for %v", node)
		}
	}
	return out, nil
}

// Compact encodes the forest into its portable form, in Ordered's order.
func (f *Forest) Compact(tree *loctree.Tree) ([]CompactEntry, error) {
	entries, err := f.Ordered(tree)
	if err != nil {
		return nil, err
	}
	out := make([]CompactEntry, len(entries))
	for i, e := range entries {
		data, err := codec.EncodeMatrix(e.Matrix)
		if err != nil {
			return nil, err
		}
		leaves := make([][2]int, len(e.Leaves))
		for j, l := range e.Leaves {
			leaves[j] = [2]int{l.Coord.Q, l.Coord.R}
		}
		out[i] = CompactEntry{RootQ: e.Root.Coord.Q, RootR: e.Root.Coord.R, Leaves: leaves, Dim: e.Matrix.Dim(), Data: data}
	}
	return out, nil
}

// DecodeForest is the one validator of forest bytes from outside the
// process — a v1 or v2 wire body, or a store snapshot. The tree decides
// every shape before any matrix is decoded, so no claim in the body can
// size an allocation:
//
//  1. the level is one of the tree's privacy levels, and there is one
//     entry per node of it;
//  2. each root is a node at that level, named once;
//  3. its leaves are exactly tree.LeavesUnder(root), in order (the entry
//     keeps that slice rather than a copy), and its dimension is their
//     count;
//
// and only then is the matrix decoded and held to row-stochasticity
// within 1e-6.
func DecodeForest[E EncodedEntry](tree *loctree.Tree, level, delta int, entries []E) (*Forest, error) {
	if level < 1 || level > tree.Height() {
		return nil, fmt.Errorf("core: forest level %d outside [1,%d]", level, tree.Height())
	}
	if n := len(tree.LevelNodes(level)); len(entries) != n {
		return nil, fmt.Errorf("core: forest has %d entries, level %d has %d nodes", len(entries), level, n)
	}
	forest := &Forest{PrivacyLevel: level, Delta: delta, Entries: make(map[loctree.NodeID]*ForestEntry, len(entries))}
	for _, enc := range entries {
		q, r, claimed, dim := enc.Claim()
		root := loctree.NodeID{Level: level, Coord: hexgrid.Coord{Q: q, R: r}}
		leaves := tree.LeavesUnder(root)
		switch {
		case !tree.Contains(root):
			return nil, fmt.Errorf("core: entry root %v is not a level-%d node of the tree", root, level)
		case forest.Entries[root] != nil:
			return nil, fmt.Errorf("core: entry %v appears twice", root)
		case !sameLeaves(claimed, leaves):
			return nil, fmt.Errorf("core: entry %v does not list its subtree's %d leaves in order", root, len(leaves))
		case dim != len(leaves):
			return nil, fmt.Errorf("core: entry %v has dim %d for %d leaves", root, dim, len(leaves))
		}
		m, err := enc.Matrix()
		if err == nil {
			err = m.CheckStochastic(1e-6)
		}
		if err != nil {
			return nil, fmt.Errorf("core: entry %v: %w", root, err)
		}
		forest.Entries[root] = &ForestEntry{Root: root, Leaves: leaves, Matrix: m}
	}
	return forest, nil
}

// sameLeaves reports whether claimed lists exactly leaves' coordinates, in
// order.
func sameLeaves(claimed [][2]int, leaves []loctree.NodeID) bool {
	if len(claimed) != len(leaves) {
		return false
	}
	for i, l := range leaves {
		if claimed[i] != [2]int{l.Coord.Q, l.Coord.R} {
			return false
		}
	}
	return true
}
