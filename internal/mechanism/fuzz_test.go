package mechanism_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	_ "corgi/internal/core" // register the forest mechanism factories
	"corgi/internal/geo"
	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
	"corgi/internal/mechanism"
	"corgi/internal/policy"
)

// fuzzWorld is the shared K=7 instance the row-contract fuzzer binds
// against: one level-1 subtree so every registered mechanism builds in
// milliseconds, with matrices cached per (factory, epsilon, delta) so the
// fuzzer spends its iterations on bindings, not LP solves.
type fuzzWorld struct {
	tree   *loctree.Tree
	root   loctree.NodeID
	leaves []loctree.NodeID
	build  mechanism.BuildConfig
	priors *loctree.Priors

	mu      sync.Mutex
	sources map[string]*mechanism.StaticSource
}

var (
	fuzzOnce sync.Once
	fuzzW    *fuzzWorld
	fuzzErr  error
)

func newFuzzWorld() (*fuzzWorld, error) {
	sys, err := hexgrid.NewSystem(geo.SanFrancisco.Center(), 0.1)
	if err != nil {
		return nil, err
	}
	tree, err := loctree.NewAt(sys, geo.SanFrancisco.Center(), 1)
	if err != nil {
		return nil, err
	}
	leaves := tree.LevelNodes(0)
	root := tree.LevelNodes(1)[0]
	cells := make([]hexgrid.Coord, len(leaves))
	for i, l := range leaves {
		cells[i] = l.Coord
	}
	return &fuzzWorld{
		tree:    tree,
		root:    root,
		leaves:  leaves,
		build:   mechanism.BuildConfig{Sys: sys, Cells: cells, Iterations: 2},
		priors:  loctree.UniformPriors(tree),
		sources: map[string]*mechanism.StaticSource{},
	}, nil
}

// source builds (or returns the cached) matrix for one factory at one
// (epsilon, delta), wrapped as a StaticSource.
func (w *fuzzWorld) source(f mechanism.Factory, eps float64, delta int) (*mechanism.StaticSource, error) {
	key := fmt.Sprintf("%s|%g|%d", f.Name, eps, delta)
	w.mu.Lock()
	defer w.mu.Unlock()
	if s, ok := w.sources[key]; ok {
		return s, nil
	}
	bc := w.build
	bc.Epsilon = eps
	bc.Delta = delta
	m, err := mechanism.Build(f.Name, bc)
	if err != nil {
		return nil, fmt.Errorf("building %s at eps=%g delta=%d: %w", f.Name, eps, delta, err)
	}
	s, err := mechanism.NewStaticSource(w.root, w.leaves, m, false)
	if err != nil {
		return nil, err
	}
	w.sources[key] = s
	return s, nil
}

// FuzzMechanismRowContract fuzzes the Mechanism row contract across every
// registered factory: for any admitted binding — fuzzer-chosen epsilon,
// prune budget delta, prune-set bits, precision level — every served row
// must have non-negative weights summing to 1 over Nodes(), and the
// binding's metadata must respect |S| <= delta. A binding the
// implementation refuses (prune set over budget, every leaf pruned, a row
// degenerate after pruning) is fine; serving a malformed row is the bug.
func FuzzMechanismRowContract(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(15), false)
	f.Add(uint8(3), uint8(0b0000101), uint8(10), false)
	f.Add(uint8(2), uint8(0b1000001), uint8(20), true)
	f.Add(uint8(7), uint8(0b1111111), uint8(5), false)

	f.Fuzz(func(t *testing.T, deltaB, pruneBits, epsB uint8, precision bool) {
		fuzzOnce.Do(func() { fuzzW, fuzzErr = newFuzzWorld() })
		if fuzzErr != nil {
			t.Fatal(fuzzErr)
		}
		w := fuzzW
		// Small discrete grids keep the (factory, eps, delta) cache — and
		// the LP solve count — bounded no matter what the fuzzer explores.
		eps := []float64{5, 10, 15, 20}[epsB%4]
		delta := int(deltaB) % (len(w.leaves) + 1)
		var pruned []loctree.NodeID
		for i, l := range w.leaves {
			if pruneBits&(1<<i) != 0 {
				pruned = append(pruned, l)
			}
		}
		pol := policy.Policy{PrivacyLevel: 1}
		if precision {
			pol.PrecisionLevel = 1
		}

		for _, fac := range mechanism.Factories() {
			src, err := w.source(fac, eps, delta)
			if err != nil {
				// A build the solver refuses (delta too aggressive for
				// epsilon) is a legal outcome, not a contract violation.
				continue
			}
			b, err := mechanism.Bind(mechanism.Config{
				Tree:    w.tree,
				Source:  src,
				Delta:   delta,
				Policy:  pol,
				Pruned:  pruned,
				Priors:  w.priors,
				Epsilon: eps,
			})
			if err != nil {
				continue // refused bindings (|S| > delta, empty support) are legal
			}
			if got := len(b.Pruned()); got != len(pruned) || got > delta {
				t.Fatalf("%s: admitted prune set of %d, bound with %d under delta=%d", fac.Name, got, len(pruned), delta)
			}
			nodes := b.Nodes()
			rows, _, err := b.DetachRows(nil, nil)
			if err != nil {
				t.Fatalf("%s: %v", fac.Name, err)
			}
			for i, row := range rows {
				if row == nil {
					// An unsampleable row (degenerate after pruning) is a
					// legal refusal; the contract covers rows actually served.
					continue
				}
				if len(row) != len(nodes) {
					t.Fatalf("%s: row %d has %d weights for %d nodes", fac.Name, i, len(row), len(nodes))
				}
				sum := 0.0
				for j, v := range row {
					if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("%s: row %d weight %d = %v", fac.Name, i, j, v)
					}
					sum += v
				}
				if sum == 0 {
					continue // massless: the alias build refuses it, as it does an unsampleable row
				}
				norm := 0.0
				for _, v := range row {
					norm += v / sum
				}
				if math.Abs(norm-1) > 1e-9 {
					t.Fatalf("%s: row %d normalises to %v, want 1", fac.Name, i, norm)
				}
			}
		}
	})
}
