package mechanism

import (
	"fmt"

	"corgi/internal/loctree"
	"corgi/internal/sample"
)

// Rows is the detached form of a binding: the exact per-row weight
// vectors a lease bundle ships, plus the same leaf→row resolution and
// lazy alias builds the live Binding serves from. internal/clientdraw
// replays server draw sequences through it — equal float64 inputs build
// equal Walker tables, so a device-local draw lands byte-identical to
// the server's.
//
// An empty weight vector marks a row the server refused to detach
// (degenerate after pruning); asking for its alias is ErrUnsampleable,
// without consuming any randomness, matching the server's failed alias
// build.
//
// Like Binding, Rows is caller-synchronized: the alias cache mutates on
// first use of each row under the owner's lock.
type Rows struct {
	tree   *loctree.Tree
	root   loctree.NodeID
	lo, hi int // the subtree's leaf span in the tree's leaf order
	nodes  []loctree.NodeID
	// rowOf maps a leaf's position in the subtree to its row in nodes,
	// exactly as Binding.rowOf does on the server.
	rowOf    []int32
	weights  [][]float64
	rowAlias []*sample.Alias // by row, built on first use
}

// NewRows assembles a detached row set for one subtree. weights is
// index-aligned with nodes; an empty row is a server-refused row. The
// subtree must resolve to at least one leaf in this tree.
func NewRows(tree *loctree.Tree, root loctree.NodeID, precision int,
	pruned, nodes []loctree.NodeID, weights [][]float64) (*Rows, error) {
	if tree == nil {
		return nil, fmt.Errorf("mechanism: nil tree")
	}
	if len(weights) != len(nodes) {
		return nil, fmt.Errorf("mechanism: %d weight rows for %d report nodes", len(weights), len(nodes))
	}
	lo, hi, ok := tree.LeafSpan(root)
	if !ok {
		return nil, fmt.Errorf("mechanism: subtree %v has no leaves in this tree", root)
	}
	r := &Rows{
		tree:     tree,
		root:     root,
		lo:       lo,
		hi:       hi,
		nodes:    nodes,
		weights:  weights,
		rowAlias: make([]*sample.Alias, len(nodes)),
	}
	if precision > 0 {
		r.rowOf = ancestorRows(tree, tree.LeavesUnder(root), precision, nodes)
		return r, nil
	}
	r.rowOf = make([]int32, hi-lo)
	for p := range r.rowOf {
		r.rowOf[p] = rowMissing
	}
	for i, n := range nodes {
		if p, ok := r.pos(n); ok {
			r.rowOf[p] = int32(i)
		}
	}
	for _, n := range pruned {
		if p, ok := r.pos(n); ok {
			r.rowOf[p] = rowPruned
		}
	}
	return r, nil
}

// pos returns leaf's position inside the detached subtree.
func (r *Rows) pos(leaf loctree.NodeID) (int, bool) {
	if leaf.Level != 0 {
		return 0, false
	}
	i, ok := r.tree.IndexOf(leaf)
	if !ok || i < r.lo || i >= r.hi {
		return 0, false
	}
	return i - r.lo, true
}

// Root returns the detached subtree root.
func (r *Rows) Root() loctree.NodeID { return r.root }

// Nodes returns the report node set. Callers must not mutate it.
func (r *Rows) Nodes() []loctree.NodeID { return r.nodes }

// RowFor resolves a true leaf cell to its report row — the same
// resolution the live Binding applies, so refusals match the server's
// row for row.
func (r *Rows) RowFor(leaf loctree.NodeID) (int, error) {
	pos, covered := r.pos(leaf)
	return rowForLeaf(r.root, pos, covered, r.rowOf, leaf)
}

// Alias builds (and caches) the alias table for one row from its exact
// detached weights — the same sample.New the server's row builds bottom
// out in. Caller must hold the owning lock.
func (r *Rows) Alias(row int) (*sample.Alias, error) {
	if a := r.rowAlias[row]; a != nil {
		return a, nil
	}
	w := r.weights[row]
	if len(w) == 0 {
		// The server encoded this row empty: degenerate after pruning. No
		// randomness is consumed, matching the server's failed alias build.
		return nil, fmt.Errorf("%w: row %v degenerate after pruning", ErrUnsampleable, r.nodes[row])
	}
	a, err := sample.New(w)
	if err != nil {
		return nil, fmt.Errorf("%w: row %v: %v", ErrUnsampleable, r.nodes[row], err)
	}
	r.rowAlias[row] = a
	return a, nil
}
