package mechanism_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"corgi/internal/core"
	"corgi/internal/geo"
	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
	"corgi/internal/mechanism"
	"corgi/internal/obf"
	"corgi/internal/policy"
)

// oracle is the naive, map-keyed customization of one source: node-keyed
// maps for every lookup, slices grown by append, nothing shared and nothing
// precomputed. It is the reference the position-indexed Binding and Rows
// are held to, bit for bit; its float loops spell out the operation order
// that is the lease wire format.
type oracle struct {
	tree      *loctree.Tree
	priors    *loctree.Priors
	m         *obf.Matrix
	precision int

	leafIdx    map[loctree.NodeID]int
	prunedSet  map[loctree.NodeID]bool
	dropIdx    []bool
	keptLeaves []loctree.NodeID
	keep       []int
	nodes      []loctree.NodeID
	rowIndex   map[loctree.NodeID]int
	groups     [][]int
}

func newOracle(tree *loctree.Tree, priors *loctree.Priors, leaves []loctree.NodeID, m *obf.Matrix,
	pruned []loctree.NodeID, precision int) *oracle {
	o := &oracle{tree: tree, priors: priors, m: m, precision: precision,
		leafIdx: map[loctree.NodeID]int{}, prunedSet: map[loctree.NodeID]bool{},
		dropIdx: make([]bool, len(leaves)), rowIndex: map[loctree.NodeID]int{}}
	for i, l := range leaves {
		o.leafIdx[l] = i
	}
	for _, p := range pruned {
		o.prunedSet[p] = true
		o.dropIdx[o.leafIdx[p]] = true
	}
	for i, l := range leaves {
		if !o.dropIdx[i] {
			o.keep = append(o.keep, i)
			o.keptLeaves = append(o.keptLeaves, l)
		}
	}
	o.nodes = o.keptLeaves
	if precision > 0 {
		o.nodes = nil
		byAncestor := map[loctree.NodeID][]int{}
		for i, l := range o.keptLeaves {
			anc, _ := tree.AncestorAt(l, precision)
			if _, seen := byAncestor[anc]; !seen {
				o.nodes = append(o.nodes, anc)
			}
			byAncestor[anc] = append(byAncestor[anc], i)
		}
		for _, anc := range o.nodes {
			o.groups = append(o.groups, byAncestor[anc])
		}
	}
	for i, n := range o.nodes {
		o.rowIndex[n] = i
	}
	return o
}

// Outcomes of a row resolution, as far as callers can tell them apart.
const (
	resolved = iota
	outside  // mechanism.ErrOutsideSubtree
	refused  // any other error: pruned own location, no report node
)

func (o *oracle) rowFor(leaf loctree.NodeID) (int, int) {
	if _, ok := o.leafIdx[leaf]; !ok {
		return 0, outside
	}
	rowNode := leaf
	if o.precision > 0 {
		rowNode, _ = o.tree.AncestorAt(leaf, o.precision)
	} else if o.prunedSet[leaf] {
		return 0, refused
	}
	row, ok := o.rowIndex[rowNode]
	if !ok {
		return 0, refused
	}
	return row, resolved
}

// detachRow returns the weight vector a row samples from, nil when the row
// retains too little mass to renormalize.
func (o *oracle) detachRow(row int) []float64 {
	const minMass = 1e-9
	removedFrom := func(r []float64) float64 {
		removed := 0.0
		for l, dropped := range o.dropIdx {
			if dropped {
				removed += r[l]
			}
		}
		return removed
	}
	if o.precision == 0 {
		r := o.m.Row(o.leafIdx[o.nodes[row]])
		if len(o.prunedSet) == 0 {
			return slices.Clone(r)
		}
		if 1-removedFrom(r) < minMass {
			return nil
		}
		var weights []float64
		for _, j := range o.keep {
			weights = append(weights, r[j])
		}
		return weights
	}
	weights := make([]float64, len(o.nodes))
	for _, u := range o.groups[row] {
		r := o.m.Row(o.keep[u])
		mass := 1 - removedFrom(r)
		if mass < minMass {
			return nil
		}
		scale := o.priors.Of(o.tree, o.keptLeaves[u]) / mass
		for j, gj := range o.groups {
			sum := 0.0
			for _, v := range gj {
				sum += r[o.keep[v]]
			}
			weights[j] += scale * sum
		}
	}
	return weights
}

func classify(err error) int {
	switch {
	case err == nil:
		return resolved
	case errors.Is(err, mechanism.ErrOutsideSubtree):
		return outside
	default:
		return refused
	}
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func height2Tree(t *testing.T) *loctree.Tree {
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

// randomMatrix is row-stochastic with a few near-point-mass rows, so some
// prune sets leave a row too little mass to renormalize.
func randomMatrix(rng *rand.Rand, n int) *obf.Matrix {
	m := obf.NewMatrix(n)
	for i := 0; i < n; i++ {
		row, sum := m.Row(i), 0.0
		for j := range row {
			row[j] = rng.Float64()
			if i%5 == 0 && j != (i+1)%n {
				row[j] *= 1e-12
			}
			sum += row[j]
		}
		for j := range row {
			row[j] /= sum
		}
	}
	return m
}

// TestBindingMatchesMapOracle binds K=7 and K=49 sources plain, pruned and
// at a coarser precision, over random prune sets within the budget, and
// checks everything a caller can observe of the Binding — and of the Rows
// rebuilt from its detached weights — against the oracle.
func TestBindingMatchesMapOracle(t *testing.T) {
	tree := height2Tree(t)
	rng := rand.New(rand.NewSource(13))
	prior := make([]float64, tree.NumLeaves())
	for i := range prior {
		prior[i] = 0.1 + rng.Float64()
	}
	priors, err := loctree.NewPriors(tree, prior)
	if err != nil {
		t.Fatal(err)
	}
	all := tree.LevelNodes(0)
	var unsampleable int
	var outcomes [3]int
	var rows mechanism.Rows

	for _, root := range []loctree.NodeID{tree.LevelNodes(1)[3], tree.Root()} {
		leaves := tree.LeavesUnder(root)
		m := randomMatrix(rng, len(leaves))
		src := &core.ForestEntry{Root: root, Leaves: leaves, Matrix: m}
		const delta = 8
		pruneSets := [][]loctree.NodeID{{}, {leaves[0]}, slices.Clone(leaves[:min(7, len(leaves)-1)])}
		for i := 0; i < 40; i++ {
			perm := rng.Perm(len(leaves))
			var set []loctree.NodeID
			for _, p := range perm[:1+rng.Intn(min(delta, len(leaves)-1))] {
				set = append(set, leaves[p])
			}
			pruneSets = append(pruneSets, set)
		}
		for _, pruned := range pruneSets {
			for precision := 0; precision <= 1; precision++ {
				name := fmt.Sprintf("K=%d/pruned=%d/precision=%d", len(leaves), len(pruned), precision)
				b, err := mechanism.Bind(mechanism.Config{
					Tree: tree, Source: src, Delta: delta, Priors: priors, Pruned: pruned,
					Policy: policy.Policy{PrivacyLevel: root.Level, PrecisionLevel: precision},
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				o := newOracle(tree, priors, leaves, m, pruned, precision)
				if !slices.Equal(b.Nodes(), o.nodes) {
					t.Fatalf("%s: nodes %v, oracle %v", name, b.Nodes(), o.nodes)
				}
				if !slices.Equal(b.Pruned(), pruned) {
					t.Fatalf("%s: pruned %v, bound with %v", name, b.Pruned(), pruned)
				}
				weights, _, err := b.DetachRows(nil, nil)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for row := range o.nodes {
					want, got := o.detachRow(row), weights[row]
					if want == nil {
						if got != nil {
							t.Fatalf("%s row %d: weights %v, want nil (unsampleable)", name, row, got)
						}
						unsampleable++
						continue
					}
					if !sameBits(got, want) {
						t.Fatalf("%s row %d: weights %v, oracle %v", name, row, got, want)
					}
				}
				// One Rows for every case, so each Reset reuses what the
				// last one held.
				if err := rows.Reset(tree, root, precision, pruned, b.Nodes(), weights); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				// Rows.Resolve reports an outside leaf as not covered, with
				// no error; as a RowFor it is ErrOutsideSubtree.
				rowsRowFor := func(leaf loctree.NodeID) (int, error) {
					row, covered, err := rows.Resolve(leaf)
					if !covered && err == nil {
						return 0, mechanism.ErrOutsideSubtree
					}
					return row, err
				}
				for _, leaf := range append(slices.Clone(all), root) { // every cell, in or out, and a non-leaf
					wantRow, want := o.rowFor(leaf)
					outcomes[want]++
					for form, resolve := range map[string]func(loctree.NodeID) (int, error){"Binding.RowFor": b.RowFor, "Rows.Resolve": rowsRowFor} {
						gotRow, err := resolve(leaf)
						if classify(err) != want || (want == resolved && gotRow != wantRow) {
							t.Fatalf("%s %s(%v) = %d, %v; oracle row %d outcome %d", name, form, leaf, gotRow, err, wantRow, want)
						}
					}
					if b.Covers(leaf) != (want != outside) {
						t.Fatalf("%s: Covers(%v) = %v", name, leaf, b.Covers(leaf))
					}
				}
			}
		}
	}
	if unsampleable == 0 || outcomes[resolved] == 0 || outcomes[outside] == 0 || outcomes[refused] == 0 {
		t.Fatalf("cases never reached: %d unsampleable rows, row outcomes %v", unsampleable, outcomes)
	}
}

// TestConcurrentBindsShareOneLeafIndex: a source's position table is built
// by whichever bind gets there first and read by all of them; first binds
// from many goroutines at once must agree (run under -race).
func TestConcurrentBindsShareOneLeafIndex(t *testing.T) {
	tree := height2Tree(t)
	leaves := tree.LeavesUnder(tree.Root())
	src := &core.ForestEntry{Root: tree.Root(), Leaves: leaves, Matrix: randomMatrix(rand.New(rand.NewSource(1)), len(leaves))}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pruned := []loctree.NodeID{}
			if g%2 == 1 {
				pruned = append(pruned, leaves[g])
			}
			b, err := mechanism.Bind(mechanism.Config{Tree: tree, Source: src, Delta: 1, Pruned: pruned,
				Policy: policy.Policy{PrivacyLevel: 2}})
			if err != nil {
				t.Error(err)
				return
			}
			for p, leaf := range leaves {
				row, err := b.RowFor(leaf)
				if g%2 == 1 && p == g {
					if err == nil {
						t.Errorf("bind %d resolved its own pruned leaf", g)
					}
					continue
				}
				if err != nil || b.Nodes()[row] != leaf {
					t.Errorf("bind %d: RowFor(%v) = %d, %v", g, leaf, row, err)
				}
			}
		}(g)
	}
	wg.Wait()
}
