package mechanism

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"corgi/internal/loctree"
	"corgi/internal/policy"
	"corgi/internal/sample"
)

// Config binds one source to one user's customization.
type Config struct {
	// Tree is the region's location tree.
	Tree *loctree.Tree
	// Source is the subtree's obfuscation matrix (a forest entry or a
	// static wrapper).
	Source Source
	// Delta is the prune budget the source's matrix was generated with;
	// Bind verifies the policy's realized prune set fits it (Sec. 5.3).
	Delta int
	// Policy is the user's customization triple.
	Policy policy.Policy
	// Attrs provides per-leaf attributes for preference evaluation; nil is
	// fine when the policy has no preferences.
	Attrs map[loctree.NodeID]policy.Attributes
	// Pruned, when non-nil, is the precomputed prune set — the source
	// leaves failing Policy.Preferences — and Bind skips re-evaluating
	// them (an empty-but-non-nil slice means "evaluated, nothing pruned").
	// Leave nil to have Bind evaluate Preferences over Attrs.
	Pruned []loctree.NodeID
	// Anchor is the true cell the preference attributes were evaluated at.
	// Bind does not read it: where one user's preferences were evaluated is
	// a fact about that user's session (session.Config.Anchor), not about
	// the rows, which is what lets users whose preferences prune nothing
	// share one binding.
	Anchor loctree.NodeID
	// Priors supplies leaf priors for precision reduction (Equ. 17);
	// required when Policy.PrecisionLevel > 0.
	Priors *loctree.Priors
	// Epsilon is the Geo-Ind budget the source was generated under. It
	// never changes a weight; an unpruned binding is shared only among
	// binds under the same one.
	Epsilon float64
}

// Binding is one user's customized view of a source: the prune set
// evaluated, δ-prunability verified, the report node set fixed, and rows
// served lazily. It is the single implementation of prune/renormalize/
// precision-grouping behind the resident-session, lease-detach, and
// user-side (Algorithm 4) paths; the float operation order in buildRow /
// precisionWeights / DetachRows is what keeps draws byte-identical across
// all of them, so treat any change there as a wire-format change.
//
// Who owns a Binding depends on its prune set. One that prunes nothing is a
// function of (source, precision level) alone, so the source holds it (see
// LeafIndex) and Bind hands the same object to every session of every such
// user: "no preferences" and "preferences that prune nothing here" are one
// case. One that prunes something is built fresh for its caller and
// belongs to it.
//
// Either way a Binding is immutable once Bind returns, apart from the alias
// cache, whose slots are atomic: concurrent Alias calls are safe, and two
// that race to build a row store equal tables (an Alias is immutable and a
// function of its weights). Always hold a Binding by pointer.
type Binding struct {
	tree      *loctree.Tree
	precision int
	priors    *loctree.Priors
	src       Source
	epsilon   float64

	// idx is the source's shared leaf → position table. Everything below
	// is indexed by position or by report row, never keyed by node.
	idx        *LeafIndex
	dropIdx    []bool           // by source leaf position; nil when nothing is pruned
	pruned     []loctree.NodeID // nil when nothing is pruned
	keptLeaves []loctree.NodeID
	keep       []int // kept source-leaf positions in order

	// nodes are the report outcomes (kept leaves, or precision-level
	// groups); rowOf maps a source leaf position to its row in nodes (see
	// rowForLeaf; nil when every leaf reports from its own position);
	// groups holds, per node, the keptLeaves positions it aggregates
	// (precision mode only). With nothing pruned, keep, keptLeaves and —
	// at leaf precision — nodes are the source's own slices, not copies.
	nodes  []loctree.NodeID
	rowOf  []int32
	groups [][]int

	rowAlias []atomic.Pointer[sample.Alias] // by report row, built on first use
}

// Bind evaluates the policy against one source: preferences decide the
// prune set S over the subtree's leaves (step 2-3 of Fig. 8), the
// δ-prunability of the source is verified against |S| (Sec. 5.3: the
// reserved budget must cover the realized prune set), and the report node
// set is fixed. No alias table is built yet — rows build lazily on first
// use.
//
// When S is empty the result is the binding the source already holds for
// the policy's precision level, provided it was bound under this tree,
// these priors and this ε (the serving stack always does; a caller binding
// one source under others gets a private binding, as does whoever loses
// the race to publish the first one).
func Bind(cfg Config) (*Binding, error) {
	if cfg.Tree == nil {
		return nil, fmt.Errorf("mechanism: nil tree")
	}
	if cfg.Source == nil || cfg.Source.Dim() == 0 {
		return nil, fmt.Errorf("mechanism: nil source")
	}
	if cfg.Policy.PrecisionLevel > 0 && cfg.Priors == nil {
		return nil, fmt.Errorf("mechanism: precision level %d needs priors", cfg.Policy.PrecisionLevel)
	}
	leaves := cfg.Source.SupportLeaves()
	idx := cfg.Source.LeafIndex()
	var pruned []loctree.NodeID
	switch {
	case cfg.Pruned != nil:
		for _, n := range cfg.Pruned {
			if _, ok := idx.Pos(n); !ok {
				return nil, fmt.Errorf("mechanism: pruned leaf %v not in subtree %v", n, cfg.Source.SubtreeRoot())
			}
		}
		pruned = cfg.Pruned
	case len(cfg.Policy.Preferences) > 0:
		evaluated, err := EvalPreferences(leaves, cfg.Policy, cfg.Attrs)
		if err != nil {
			return nil, err
		}
		pruned = evaluated
	}
	if len(pruned) > cfg.Delta {
		return nil, fmt.Errorf("mechanism: preferences prune %d locations but the matrix is only %d-prunable (Sec. 5.3 tradeoff)",
			len(pruned), cfg.Delta)
	}

	var slot *atomic.Pointer[Binding]
	if len(pruned) == 0 {
		if slot = idx.unprunedSlot(cfg.Policy.PrecisionLevel); slot != nil {
			if b := slot.Load(); b != nil && b.tree == cfg.Tree && b.priors == cfg.Priors && b.epsilon == cfg.Epsilon {
				return b, nil
			}
		}
	}
	b := &Binding{
		tree:      cfg.Tree,
		precision: cfg.Policy.PrecisionLevel,
		priors:    cfg.Priors,
		src:       cfg.Source,
		epsilon:   cfg.Epsilon,
		idx:       idx,
	}
	if len(pruned) == 0 {
		b.keep, b.keptLeaves = idx.identity, leaves
	} else {
		b.pruned = pruned
		b.dropIdx = make([]bool, len(leaves))
		kept := len(leaves)
		for _, n := range pruned {
			if p, _ := idx.Pos(n); !b.dropIdx[p] {
				b.dropIdx[p] = true
				kept--
			}
		}
		b.keep = make([]int, 0, kept)
		b.keptLeaves = make([]loctree.NodeID, 0, kept)
		for i, l := range leaves {
			if !b.dropIdx[i] {
				b.keep = append(b.keep, i)
				b.keptLeaves = append(b.keptLeaves, l)
			}
		}
	}
	if len(b.keptLeaves) == 0 {
		return nil, fmt.Errorf("mechanism: preferences prune every location in the subtree")
	}

	b.nodes = b.keptLeaves
	switch {
	case b.precision > 0:
		groups, groupNodes, err := GroupByAncestor(cfg.Tree, b.keptLeaves, b.precision)
		if err != nil {
			return nil, err
		}
		b.groups = groups
		b.nodes = groupNodes
		b.rowOf = ancestorRows(nil, cfg.Tree, leaves, b.precision, groupNodes)
	case len(pruned) > 0:
		b.rowOf = make([]int32, len(leaves))
		for p := range b.rowOf {
			b.rowOf[p] = rowPruned
		}
		for row, p := range b.keep {
			b.rowOf[p] = int32(row)
		}
	}
	b.rowAlias = make([]atomic.Pointer[sample.Alias], len(b.nodes))
	if slot != nil {
		slot.CompareAndSwap(nil, b)
	}
	return b, nil
}

// Source returns the bound source.
func (b *Binding) Source() Source { return b.src }

// Root returns the bound subtree root.
func (b *Binding) Root() loctree.NodeID { return b.src.SubtreeRoot() }

// Covers reports whether the bound subtree contains leaf.
func (b *Binding) Covers(leaf loctree.NodeID) bool {
	_, ok := b.idx.Pos(leaf)
	return ok
}

// Nodes returns the report node set (kept leaves, or precision groups).
// Callers must not mutate it.
func (b *Binding) Nodes() []loctree.NodeID { return b.nodes }

// Pruned returns the leaves the policy's preferences removed, nil when
// there are none. Callers must not mutate it.
func (b *Binding) Pruned() []loctree.NodeID { return b.pruned }

// RowFor resolves a true leaf cell to the report row it draws from:
// precision ancestor lookup, pruned-own-location refusal, report-set
// membership. A cell outside the subtree is ErrOutsideSubtree.
func (b *Binding) RowFor(leaf loctree.NodeID) (int, error) {
	pos, covered := b.idx.Pos(leaf)
	return rowForLeaf(b.src.SubtreeRoot(), pos, covered, b.rowOf, leaf)
}

// Alias returns the alias table for one report row, building and caching
// it on first use. Safe for concurrent use: callers that race on a row each
// build it and keep equal tables.
func (b *Binding) Alias(row int) (*sample.Alias, error) {
	if a := b.rowAlias[row].Load(); a != nil {
		return a, nil
	}
	a, err := b.buildRow(row)
	if err != nil {
		return nil, err
	}
	b.rowAlias[row].Store(a)
	return a, nil
}

// buildRow assembles the report distribution for one row without ever
// materializing the customized matrix:
//
//   - leaf precision, empty prune set: the source's own shared per-row
//     alias cache serves directly (byte-accounted in the engine LRU for
//     forest entries);
//   - leaf precision, pruned: the matrix row minus the dropped columns,
//     renormalized (Sec. 4.3) inside the alias build;
//   - coarser precision: the Equ. 17 aggregation restricted to the rows
//     of the drawn-from group — weight_j = Σ_{u∈g_row} p_u/mass_u ·
//     Σ_{v∈g_j} z[u][v], with the constant 1/p_row dropped since the
//     alias build normalizes.
func (b *Binding) buildRow(row int) (*sample.Alias, error) {
	if b.precision == 0 {
		orig := b.keep[row]
		if len(b.pruned) == 0 {
			a, err := b.src.SharedAliasRow(orig)
			if err != nil {
				return nil, fmt.Errorf("%w: row %v: %v", ErrUnsampleable, b.nodes[row], err)
			}
			return a, nil
		}
		a, _, err := sample.NewSubset(b.src.MatrixRow(orig), b.dropIdx)
		if err != nil {
			return nil, fmt.Errorf("%w: row %v: %v", ErrUnsampleable, b.nodes[row], err)
		}
		return a, nil
	}

	weights, err := b.precisionWeights(row, make([]float64, len(b.nodes)))
	if err != nil {
		return nil, err
	}
	a, err := sample.New(weights)
	if err != nil {
		return nil, fmt.Errorf("%w: precision row %v: %v", ErrUnsampleable, b.nodes[row], err)
	}
	return a, nil
}

// precisionWeights materializes the Equ. 17 aggregated weight vector for
// one precision-group row into weights, which must hold len(Nodes()) zeros.
// It is the single implementation behind both the live draw path (buildRow)
// and lease detachment (DetachRows): the float operation order here is what
// makes a client-rebuilt alias table bit-identical to the server's —
// sample.New over equal float64 inputs yields equal tables, so equality
// must hold at the weight vector, not just mathematically.
func (b *Binding) precisionWeights(row int, weights []float64) ([]float64, error) {
	for _, u := range b.groups[row] { // u indexes keptLeaves
		orig := b.keep[u]
		r := b.src.MatrixRow(orig)
		removed := 0.0
		for l, dropped := range b.dropIdx {
			if dropped {
				removed += r[l]
			}
		}
		mass := 1 - removed
		if mass < minMass {
			return nil, fmt.Errorf("%w: row %v retains %.3g probability mass after pruning",
				ErrUnsampleable, b.keptLeaves[u], mass)
		}
		pu := b.priors.Of(b.tree, b.keptLeaves[u])
		scale := pu / mass
		for j, gj := range b.groups {
			sum := 0.0
			for _, v := range gj {
				sum += r[b.keep[v]]
			}
			weights[j] += scale * sum
		}
	}
	return weights, nil
}

// DetachRows returns the exact weight vector every report row samples
// from, index-aligned with Nodes(): what a lease bundle ships, in the
// representation a client alias build needs. Each row reproduces the
// corresponding buildRow arm's inputs to sample.New bit for bit:
//
//   - leaf precision, empty prune set: the full matrix row itself (the
//     shared alias cache is sample.New over exactly that row). These rows
//     are VIEWS of the source's matrix, which is immutable once the entry
//     is published and shared by every binding of it: read them, encode
//     them, never write them;
//   - leaf precision, pruned: the kept columns in keep order with
//     NewSubset's minMass admission check (NewSubset feeds sample.New the
//     same vector);
//   - coarser precision: precisionWeights, shared with buildRow.
//
// A row that buildRow would refuse (degenerate after pruning) comes back
// nil, the bundle's marker for a row the client must refuse.
//
// The caller owns the storage: the row headers are written into rows'
// array and computed rows into arena's, each reused when long enough and
// returned, grown or not, for the next detach to reuse (nil for both is
// fine). Computed rows share the arena, so a detach into storage that has
// held a subtree this large allocates nothing however many rows it has.
func (b *Binding) DetachRows(rows [][]float64, arena []float64) ([][]float64, []float64, error) {
	n := len(b.nodes)
	rows = slices.Grow(rows[:0], n)[:n]
	if b.viewsRows() {
		for i := range rows {
			rows[i] = b.src.MatrixRow(b.keep[i])
		}
		return rows, arena, nil
	}
	arena = slices.Grow(arena[:0], n*n)[:n*n]
	clear(arena)
	for i := range rows {
		w, err := b.detachInto(i, arena[i*n:(i+1)*n:(i+1)*n])
		if err != nil && !errors.Is(err, ErrUnsampleable) {
			return rows, arena, err
		}
		rows[i] = w
	}
	return rows, arena, nil
}

// viewsRows reports whether report rows are the source's matrix rows as
// they stand: nothing pruned, leaf precision.
func (b *Binding) viewsRows() bool {
	return b.precision == 0 && len(b.pruned) == 0
}

// detachInto computes a pruned or precision-grouped row into dst, which
// must hold len(Nodes()) zeros.
func (b *Binding) detachInto(row int, dst []float64) ([]float64, error) {
	if b.precision > 0 {
		return b.precisionWeights(row, dst)
	}
	r := b.src.MatrixRow(b.keep[row])
	removed := 0.0
	for j, d := range b.dropIdx {
		if d {
			removed += r[j]
		}
	}
	if 1-removed < minMass {
		return nil, fmt.Errorf("%w: row %v retains %.3g probability mass after pruning",
			ErrUnsampleable, b.nodes[row], 1-removed)
	}
	for i, j := range b.keep {
		dst[i] = r[j]
	}
	return dst, nil
}

// EvalPreferences returns the leaves of the subtree that fail the policy's
// preferences — the prune set S (step 2 of Fig. 8). attrs must cover every
// leaf it is asked about.
func EvalPreferences(leaves []loctree.NodeID, pol policy.Policy,
	attrs map[loctree.NodeID]policy.Attributes) ([]loctree.NodeID, error) {
	var pruned []loctree.NodeID
	for _, leaf := range leaves {
		a, ok := attrs[leaf]
		if !ok {
			return nil, fmt.Errorf("mechanism: no attributes for leaf %v", leaf)
		}
		allowed, err := pol.Allowed(a)
		if err != nil {
			return nil, fmt.Errorf("mechanism: evaluating %v: %w", leaf, err)
		}
		if !allowed {
			pruned = append(pruned, leaf)
		}
	}
	return pruned, nil
}

// GroupByAncestor partitions leaf indices by their ancestor at the given
// level, preserving first-seen ancestor order. Every precision-grouping
// consumer (bindings here, the user-side Algorithm 4 path) derives its
// grouping from this one implementation.
func GroupByAncestor(tree *loctree.Tree, leaves []loctree.NodeID, level int) ([][]int, []loctree.NodeID, error) {
	var order []loctree.NodeID
	var groups [][]int
	for i, leaf := range leaves {
		anc, ok := tree.AncestorAt(leaf, level)
		if !ok {
			return nil, nil, fmt.Errorf("mechanism: no ancestor of %v at level %d", leaf, level)
		}
		g := slices.Index(order, anc)
		if g < 0 {
			g = len(order)
			order = append(order, anc)
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	return groups, order, nil
}
