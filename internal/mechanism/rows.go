package mechanism

import (
	"fmt"
	"slices"

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
// A Rows is reused, not rebuilt: Reset points it at the next lease's rows
// and keeps its position table, its alias slots and every table it built,
// which later rows are rebuilt into in place (sample.Alias.Build). Its
// tables are its own and never handed out past the owner's lock.
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
	// spare holds tables built before the last Reset, to be rebuilt for
	// whichever rows are drawn from next.
	spare []*sample.Alias
}

// Reset points r at a detached row set for one subtree, reusing r's
// arrays and tables. weights is index-aligned with nodes; an empty row is
// a server-refused row. The subtree must resolve to at least one leaf in
// this tree. r keeps nodes and weights, not copies. The zero Rows is ready
// for Reset, and a Reset that fails leaves r as it was.
func (r *Rows) Reset(tree *loctree.Tree, root loctree.NodeID, precision int,
	pruned, nodes []loctree.NodeID, weights [][]float64) error {
	if tree == nil {
		return fmt.Errorf("mechanism: nil tree")
	}
	if len(weights) != len(nodes) {
		return fmt.Errorf("mechanism: %d weight rows for %d report nodes", len(weights), len(nodes))
	}
	lo, hi, ok := tree.LeafSpan(root)
	if !ok {
		return fmt.Errorf("mechanism: subtree %v has no leaves in this tree", root)
	}
	for _, a := range r.rowAlias {
		if a != nil {
			r.spare = append(r.spare, a)
		}
	}
	r.rowAlias = slices.Grow(r.rowAlias[:0], len(nodes))[:len(nodes)]
	clear(r.rowAlias)
	r.tree, r.root, r.lo, r.hi, r.nodes, r.weights = tree, root, lo, hi, nodes, weights
	if precision > 0 {
		r.rowOf = ancestorRows(r.rowOf, tree, tree.LeavesUnder(root), precision, nodes)
		return nil
	}
	r.rowOf = slices.Grow(r.rowOf[:0], hi-lo)[:hi-lo]
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
	return nil
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
// detached weights — the same build sample.New runs for the server's
// rows, here into a spare table when there is one. Caller must hold the
// owning lock.
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
	var a *sample.Alias
	if k := len(r.spare); k > 0 {
		a, r.spare = r.spare[k-1], r.spare[:k-1]
	} else {
		a = new(sample.Alias)
	}
	if err := a.Build(w); err != nil {
		return nil, fmt.Errorf("%w: row %v: %v", ErrUnsampleable, r.nodes[row], err)
	}
	r.rowAlias[row] = a
	return a, nil
}
