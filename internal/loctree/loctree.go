// Package loctree implements the paper's location tree (Sec. 3.1,
// Definition 3.1): a balanced rooted tree over a region where each level
// represents one granularity of location sharing, each non-leaf node's
// children partition it, and leaves are the finest cells. The tree is built
// on the aperture-7 hexagonal hierarchy of internal/hexgrid, exactly as the
// paper builds it on Uber H3 (Fig. 2): a height-H tree has 7^H leaves.
//
// Node enumeration is deterministic (BFS from the root, children in digit
// order), so node indices are stable across processes — a property the
// client/server protocol relies on.
package loctree

import (
	"fmt"

	"corgi/internal/geo"
	"corgi/internal/hexgrid"
)

// NodeID identifies a tree node: a hex cell coordinate at a tree level.
// Level 0 is the leaf level; Level == Tree.Height() is the root.
type NodeID struct {
	Level int
	Coord hexgrid.Coord
}

// String implements fmt.Stringer.
func (n NodeID) String() string { return fmt.Sprintf("L%d%v", n.Level, n.Coord) }

// Tree is an immutable location tree.
type Tree struct {
	sys    *hexgrid.System
	height int
	root   hexgrid.Coord
	levels [][]hexgrid.Coord       // levels[h] = nodes at level h in BFS order
	index  []map[hexgrid.Coord]int // index[h][coord] = position in levels[h]
	// leaves is levels[0] as NodeIDs. BFS order keeps every subtree's
	// leaves contiguous (the node at position p of level h owns
	// [p*7^h, (p+1)*7^h)), so LeavesUnder is a subslice of this one table.
	leaves []NodeID
}

// New builds a location tree of the given height rooted at root (a cell at
// level height of sys). Height must be at least 1; a height-H tree has
// 7^H leaves.
func New(sys *hexgrid.System, root hexgrid.Coord, height int) (*Tree, error) {
	if sys == nil {
		return nil, fmt.Errorf("loctree: nil hex system")
	}
	if height < 1 {
		return nil, fmt.Errorf("loctree: height must be >= 1, got %d", height)
	}
	t := &Tree{
		sys:    sys,
		height: height,
		root:   root,
		levels: make([][]hexgrid.Coord, height+1),
		index:  make([]map[hexgrid.Coord]int, height+1),
	}
	t.levels[height] = []hexgrid.Coord{root}
	for h := height; h > 0; h-- {
		parents := t.levels[h]
		children := make([]hexgrid.Coord, 0, len(parents)*7)
		for _, p := range parents {
			ch := hexgrid.Children(p)
			children = append(children, ch[:]...)
		}
		t.levels[h-1] = children
	}
	for h := 0; h <= height; h++ {
		m := make(map[hexgrid.Coord]int, len(t.levels[h]))
		for i, c := range t.levels[h] {
			m[c] = i
		}
		t.index[h] = m
	}
	t.leaves = make([]NodeID, len(t.levels[0]))
	for i, c := range t.levels[0] {
		t.leaves[i] = NodeID{Level: 0, Coord: c}
	}
	return t, nil
}

// NewAt builds a tree of the given height whose root is the level-`height`
// cell containing the geographic point p.
func NewAt(sys *hexgrid.System, p geo.LatLng, height int) (*Tree, error) {
	if sys == nil {
		return nil, fmt.Errorf("loctree: nil hex system")
	}
	return New(sys, sys.Locate(height, p), height)
}

// System returns the underlying hex system.
func (t *Tree) System() *hexgrid.System { return t.sys }

// Height returns the tree height H (root level).
func (t *Tree) Height() int { return t.height }

// Root returns the root node (the whole area of interest).
func (t *Tree) Root() NodeID { return NodeID{Level: t.height, Coord: t.root} }

// NumLeaves returns 7^H.
func (t *Tree) NumLeaves() int { return len(t.levels[0]) }

// LevelNodes returns the nodes of level h in BFS order. The returned slice
// must not be modified.
func (t *Tree) LevelNodes(h int) []NodeID {
	if h < 0 || h > t.height {
		return nil
	}
	out := make([]NodeID, len(t.levels[h]))
	for i, c := range t.levels[h] {
		out[i] = NodeID{Level: h, Coord: c}
	}
	return out
}

// Contains reports whether n is a node of this tree.
func (t *Tree) Contains(n NodeID) bool {
	if n.Level < 0 || n.Level > t.height {
		return false
	}
	_, ok := t.index[n.Level][n.Coord]
	return ok
}

// IndexOf returns n's position within its level's BFS order.
func (t *Tree) IndexOf(n NodeID) (int, bool) {
	if n.Level < 0 || n.Level > t.height {
		return 0, false
	}
	i, ok := t.index[n.Level][n.Coord]
	return i, ok
}

// AncestorAt returns n's ancestor at the given level (n itself if
// level == n.Level). ok=false if level is out of range or n is foreign.
func (t *Tree) AncestorAt(n NodeID, level int) (NodeID, bool) {
	if !t.Contains(n) || level < n.Level || level > t.height {
		return NodeID{}, false
	}
	c := n.Coord
	for h := n.Level; h < level; h++ {
		c = hexgrid.Parent(c)
	}
	return NodeID{Level: level, Coord: c}, true
}

// LeavesUnder returns the leaf descendants of n in deterministic order
// (digit-order DFS, which coincides with the global BFS order restricted to
// the subtree). For a leaf it returns the leaf itself. The result is a view
// of the tree's own leaf table: it allocates nothing and must not be
// modified.
func (t *Tree) LeavesUnder(n NodeID) []NodeID {
	lo, hi, ok := t.LeafSpan(n)
	if !ok {
		return nil
	}
	return t.leaves[lo:hi:hi]
}

// LeafSpan returns the half-open range of leaf positions (IndexOf order at
// level 0) that n's descendants occupy, so a leaf's position inside the
// subtree is its IndexOf minus lo. ok=false for foreign nodes.
func (t *Tree) LeafSpan(n NodeID) (lo, hi int, ok bool) {
	p, ok := t.IndexOf(n)
	if !ok {
		return 0, 0, false
	}
	width := 1
	for h := 0; h < n.Level; h++ {
		width *= 7
	}
	return p * width, (p + 1) * width, true
}

// Locate returns the tree node at the given level containing the geographic
// point p, or ok=false if p falls outside the tree's region.
func (t *Tree) Locate(p geo.LatLng, level int) (NodeID, bool) {
	if level < 0 || level > t.height {
		return NodeID{}, false
	}
	n := NodeID{Level: level, Coord: t.sys.Locate(level, p)}
	if !t.Contains(n) {
		return NodeID{}, false
	}
	return n, true
}

// Center returns the geographic center of node n.
func (t *Tree) Center(n NodeID) geo.LatLng {
	return t.sys.Center(n.Level, n.Coord)
}

// Distance returns the haversine distance (km) between the centers of two
// nodes at the same level. It panics if the levels differ, which indicates
// a programming error (the paper only defines obfuscation within a level).
func (t *Tree) Distance(a, b NodeID) float64 {
	if a.Level != b.Level {
		panic(fmt.Sprintf("loctree: distance across levels %d and %d", a.Level, b.Level))
	}
	return t.sys.CenterDistance(a.Level, a.Coord, b.Coord)
}

// ClusterLeaves returns a connected leaf set of size 7*m: the descendant
// leaves of the first m level-1 nodes in a center-out spiral around the
// root's center-child lineage. This generalizes "the leaves of one subtree"
// to the intermediate sizes used by the paper's experiments (K = 7, 14, ...,
// 70 in Figs. 10b, 12b, 14a). m must be in [1, 7^(H-1)].
func (t *Tree) ClusterLeaves(m int) ([]NodeID, error) {
	maxParents := len(t.levels[1])
	if m < 1 || m > maxParents {
		return nil, fmt.Errorf("loctree: cluster size %d out of range [1,%d]", m, maxParents)
	}
	// Spiral of level-1 cells around the root's center lineage at level 1.
	center := t.root
	for h := t.height; h > 1; h-- {
		center = hexgrid.Children(center)[0]
	}
	parents := make([]hexgrid.Coord, 0, m)
	for k := 0; len(parents) < m; k++ {
		for _, c := range hexgrid.Ring(center, k) {
			if _, ok := t.index[1][c]; !ok {
				continue
			}
			parents = append(parents, c)
			if len(parents) == m {
				break
			}
		}
		if k > 4*t.height+maxParents { // cannot happen; guards infinite loop
			return nil, fmt.Errorf("loctree: spiral failed to collect %d parents", m)
		}
	}
	out := make([]NodeID, 0, 7*m)
	for _, p := range parents {
		out = append(out, t.LeavesUnder(NodeID{Level: 1, Coord: p})...)
	}
	return out, nil
}

// Priors holds a prior probability distribution over the leaves of a tree,
// aligned with LevelNodes(0) order, plus aggregated priors for every upper
// level (a node's prior is the sum of its children's — footnote 5 / Sec. 6.1).
type Priors struct {
	byLevel [][]float64
}

// NewPriors validates and aggregates a leaf-level distribution. leaf must
// have length tree.NumLeaves(), non-negative entries, and a positive sum;
// it is normalized to sum to 1.
func NewPriors(t *Tree, leaf []float64) (*Priors, error) {
	if len(leaf) != t.NumLeaves() {
		return nil, fmt.Errorf("loctree: got %d leaf priors, tree has %d leaves", len(leaf), t.NumLeaves())
	}
	sum := 0.0
	for i, v := range leaf {
		if v < 0 {
			return nil, fmt.Errorf("loctree: negative prior %v at leaf %d", v, i)
		}
		sum += v
	}
	if sum <= 0 {
		return nil, fmt.Errorf("loctree: leaf priors sum to %v, want > 0", sum)
	}
	p := &Priors{byLevel: make([][]float64, t.height+1)}
	p.byLevel[0] = make([]float64, len(leaf))
	for i, v := range leaf {
		p.byLevel[0][i] = v / sum
	}
	for h := 1; h <= t.height; h++ {
		nodes := t.levels[h]
		agg := make([]float64, len(nodes))
		for i, c := range nodes {
			for _, ch := range hexgrid.Children(c) {
				agg[i] += p.byLevel[h-1][t.index[h-1][ch]]
			}
		}
		p.byLevel[h] = agg
	}
	return p, nil
}

// UniformPriors returns the uniform distribution over leaves.
func UniformPriors(t *Tree) *Priors {
	leaf := make([]float64, t.NumLeaves())
	for i := range leaf {
		leaf[i] = 1
	}
	p, err := NewPriors(t, leaf)
	if err != nil {
		panic("loctree: uniform priors cannot fail: " + err.Error())
	}
	return p
}

// Of returns the prior of node n. The tree used to build the Priors must be
// the one n belongs to; unknown nodes return 0.
func (p *Priors) Of(t *Tree, n NodeID) float64 {
	i, ok := t.IndexOf(n)
	if !ok {
		return 0
	}
	return p.byLevel[n.Level][i]
}

// Subset returns the (re-normalized if normalize is set) prior vector for an
// arbitrary set of same-level nodes, aligned with the given order.
func (p *Priors) Subset(t *Tree, nodes []NodeID, normalize bool) ([]float64, error) {
	out := make([]float64, len(nodes))
	sum := 0.0
	for i, n := range nodes {
		idx, ok := t.IndexOf(n)
		if !ok {
			return nil, fmt.Errorf("loctree: node %v not in tree", n)
		}
		out[i] = p.byLevel[n.Level][idx]
		sum += out[i]
	}
	if normalize {
		if sum <= 0 {
			return nil, fmt.Errorf("loctree: subset prior mass is %v, cannot normalize", sum)
		}
		for i := range out {
			out[i] /= sum
		}
	}
	return out, nil
}
