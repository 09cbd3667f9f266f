// Package mechanism is the single row-serving abstraction every
// obfuscation path in the repo produces and consumes rows through. A
// mechanism, in the paper's sense, is a row-stochastic matrix Z over a
// subtree's leaf cells; customized serving asks, for one user (policy,
// prune set S with |S| <= δ, precision level), for the normalized weight
// row their true cell draws from plus its metadata (ε, support size,
// precision grouping).
//
// Every path answers that ask here: the server's resident report
// sessions, the device's Algorithm 4 (a session.Session over a fetched
// forest), and lease replay all bottom out in this package:
//
//   - Binding (binding.go) is the live form: one (Source, policy, prune
//     set) evaluation serving rows lazily — exactly the float operation
//     order the session hot path has always used, which is what keeps
//     draws byte-identical across the in-proc, HTTP, stream, and lease
//     serving paths.
//   - Rows (rows.go) is the detached form: the exact weight vectors a
//     lease bundle ships, rebuilt into the same alias tables on the
//     device.
//   - Factory (factory.go) is the build form: one way to construct the
//     underlying matrix over a cell set. core.Mechanisms lists the
//     LP-optimal forest builders beside PlanarLaplace; internal/eval
//     sweeps that list and the fuzzed row contract binds every entry.
//
// A Source is whatever owns the matrix. core.ForestEntry is the one
// implementation, whether its rows were solved, decoded, or built from
// planar-Laplace rows (core.PlanarEntry), and it shares its
// engine-accounted alias cache with every binding.
package mechanism

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"corgi/internal/loctree"
	"corgi/internal/sample"
)

// minMass mirrors obf.Matrix.Prune: a row retaining less mass than this
// after pruning makes renormalization numerically unstable.
const minMass = 1e-9

// ErrUnsampleable marks a draw that failed because the matrix data cannot
// support it — a row degenerate after pruning, or an alias build over a
// zero-mass row. These are server-side data conditions, not request
// faults: the serving layer maps them to 5xx, unlike caller mistakes.
var ErrUnsampleable = errors.New("mechanism: row unsampleable")

// ErrOutsideSubtree marks a row ask for a cell the binding's subtree does
// not cover. Under mobility this is retryable: registry.Report re-anchors
// the session and retries instead of failing the request.
var ErrOutsideSubtree = errors.New("mechanism: cell outside the bound subtree")

// OutsideSubtreeError is the ErrOutsideSubtree every refusal carries: which
// cell, outside which subtree. A moving user hits it on every change of
// subtree and the callers there only test errors.Is before re-anchoring or
// renewing, so the message is formatted when somebody reads it, not when
// the error is made.
type OutsideSubtreeError struct {
	Leaf, Root loctree.NodeID
}

func (e *OutsideSubtreeError) Error() string {
	return fmt.Sprintf("%v: cell %v, subtree %v", ErrOutsideSubtree, e.Leaf, e.Root)
}

// Unwrap makes errors.Is(err, ErrOutsideSubtree) hold.
func (e *OutsideSubtreeError) Unwrap() error { return ErrOutsideSubtree }

// Source is one subtree's obfuscation matrix as the serving stack sees
// it: the support leaves indexing rows and columns, raw row access for
// customization, and a shared per-row alias cache for the unpruned fast
// path. core.ForestEntry satisfies it.
type Source interface {
	// SubtreeRoot is the privacy-subtree node the matrix covers.
	SubtreeRoot() loctree.NodeID
	// SupportLeaves are the leaf nodes indexing matrix rows/columns.
	SupportLeaves() []loctree.NodeID
	// LeafIndex is the leaf → matrix position table over SupportLeaves,
	// built once per source and shared by every binding of it; it also
	// holds the source's unpruned bindings (see LeafIndex).
	LeafIndex() *LeafIndex
	// Dim is the matrix dimension; 0 signals an unusable source (nil
	// entry, nil matrix) and callers must treat it as invalid.
	Dim() int
	// MatrixRow returns raw row i (unnormalized access to the underlying
	// row-stochastic matrix). Callers must not mutate it.
	MatrixRow(i int) []float64
	// SharedAliasRow returns the O(1) alias sampler for row i, the
	// unpruned leaf-precision fast path. A forest entry serves it from its
	// engine-LRU-accounted cache; the unpruned binding in LeafIndex caches
	// what it gets either way.
	SharedAliasRow(i int) (*sample.Alias, error)
	// IsDegraded reports whether the rows come from a planar-Laplace
	// fallback rather than an LP-optimal solve.
	IsDegraded() bool
}

// LeafIndex is the part of a binding that depends only on the source: each
// support leaf's matrix position, the identity position list the unpruned
// arms use as their keep set, and the unpruned bindings themselves. A source
// embeds one and hands it to every Bind, so a re-anchor looks positions up
// instead of rebuilding them and, when the user's preferences prune nothing,
// takes the binding that is already there. The zero value is ready (entries
// decoded from the wire or a store need no constructor), the table is
// immutable once built, and all of it is collected with the source that
// holds it.
type LeafIndex struct {
	once     sync.Once
	pos      map[loctree.NodeID]int
	identity []int
	// unpruned[l] is the binding every user whose preferences prune nothing
	// shares at precision level l, published by the first Bind to build it.
	// A policy's precision level lies below its privacy level, which is the
	// root's, so there is one slot per level under the root.
	unpruned []atomic.Pointer[Binding]
}

// Over returns x, built on the first call over the source's subtree root
// and support leaves. A source always passes its own, so later calls find
// the table in place.
func (x *LeafIndex) Over(root loctree.NodeID, leaves []loctree.NodeID) *LeafIndex {
	x.once.Do(func() {
		x.pos = make(map[loctree.NodeID]int, len(leaves))
		x.identity = make([]int, len(leaves))
		for i, l := range leaves {
			x.pos[l] = i
			x.identity[i] = i
		}
		x.unpruned = make([]atomic.Pointer[Binding], max(root.Level, 1))
	})
	return x
}

// unprunedSlot returns where the source keeps its unpruned binding of one
// precision level, nil for a level no valid policy over this source has.
func (x *LeafIndex) unprunedSlot(level int) *atomic.Pointer[Binding] {
	if level < 0 || level >= len(x.unpruned) {
		return nil
	}
	return &x.unpruned[level]
}

// Pos returns leaf's matrix position, or ok=false when the source does not
// cover it.
func (x *LeafIndex) Pos(leaf loctree.NodeID) (int, bool) {
	i, ok := x.pos[leaf]
	return i, ok
}

// Entries of a position → report row table that are not rows.
const (
	// rowPruned: the user's own preferences pruned this leaf (leaf
	// precision only — a coarser precision reports the leaf's group).
	rowPruned = -1
	// rowMissing: no report node stands for this leaf.
	rowMissing = -2
)

// rowForLeaf is the one leaf→row resolution shared by live bindings and
// detached row sets. pos is the leaf's position in the subtree (valid when
// covered); rowOf maps positions to report rows, nil meaning every leaf
// reports from its own position (nothing pruned, leaf precision). At a
// coarser precision the table already holds the ancestor group's row; at
// leaf precision a cell the user's own preferences pruned has no row to
// draw from (Algorithm 4's loud failure).
func rowForLeaf(root loctree.NodeID, pos int, covered bool, rowOf []int32,
	leaf loctree.NodeID) (int, error) {
	if !covered {
		return 0, &OutsideSubtreeError{Leaf: leaf, Root: root}
	}
	if rowOf == nil {
		return pos, nil
	}
	switch row := int(rowOf[pos]); row {
	case rowPruned:
		return 0, fmt.Errorf("mechanism: preferences prune the user's own location %v at precision 0", leaf)
	case rowMissing:
		return 0, fmt.Errorf("mechanism: cell %v has no node in the customized report set", leaf)
	default:
		return row, nil
	}
}

// ancestorRows is the position → row table of a coarser precision: each
// leaf reports from the row of its ancestor at level, rowMissing when no
// report node is that ancestor. It is built in rowOf's array when that is
// long enough.
func ancestorRows(rowOf []int32, tree *loctree.Tree, leaves []loctree.NodeID, level int, nodes []loctree.NodeID) []int32 {
	rowOf = slices.Grow(rowOf[:0], len(leaves))[:len(leaves)]
	for p, leaf := range leaves {
		rowOf[p] = rowMissing
		if anc, ok := tree.AncestorAt(leaf, level); ok {
			if row := slices.Index(nodes, anc); row >= 0 {
				rowOf[p] = int32(row)
			}
		}
	}
	return rowOf
}
