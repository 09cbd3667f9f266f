package mechanism_test

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"corgi/internal/core"
	"corgi/internal/loctree"
	"corgi/internal/mechanism"
	"corgi/internal/policy"
	"corgi/internal/sample"
	"corgi/internal/session"
)

func randomPriors(t *testing.T, tree *loctree.Tree, seed int64) *loctree.Priors {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	prior := make([]float64, tree.NumLeaves())
	for i := range prior {
		prior[i] = 0.1 + rng.Float64()
	}
	priors, err := loctree.NewPriors(tree, prior)
	if err != nil {
		t.Fatal(err)
	}
	return priors
}

// TestSessionsSharingBindingsDrawWhatEachDrawsAlone: eight sessions with
// their own seeds re-anchor back and forth over the same two sources, at
// once, so all of them hold the sources' two shared bindings and race to
// build their alias rows. Each must draw, byte for byte, what the naive
// oracle draws for its seed from tables nobody else touches (run under
// -race). In the pruned case every session holds the same one-cell prune
// set on each source, so the bindings they share are the sources' pruned
// ones.
func TestSessionsSharingBindingsDrawWhatEachDrawsAlone(t *testing.T) {
	tree := height2Tree(t)
	priors := randomPriors(t, tree, 13)
	k7 := [2]loctree.NodeID{tree.LevelNodes(1)[0], tree.LevelNodes(1)[1]}
	for _, tc := range []struct {
		name  string
		pol   policy.Policy
		roots [2]loctree.NodeID
		// prune is the position of the leaf each source's prune set holds,
		// -1 for none. randomMatrix's near-point-mass rows put their mass
		// on leaves 1 and 6 of a K=7 subtree, so pruning leaf 3 leaves
		// every row sampleable.
		prune int
	}{
		{"plain", policy.Policy{PrivacyLevel: 1}, k7, -1},
		// A height-2 tree has one level-2 subtree: the second source is a
		// second matrix over it.
		{"precision-1", policy.Policy{PrivacyLevel: 2, PrecisionLevel: 1}, [2]loctree.NodeID{tree.Root(), tree.Root()}, -1},
		{"pruned", policy.Policy{PrivacyLevel: 1}, k7, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			var srcs [2]*core.ForestEntry
			var oracles [2]*oracle
			// pruned and drawable are per source: its prune set, and the
			// leaves a session may draw from (its own cell not pruned).
			var pruned, drawable [2][]loctree.NodeID
			for k, root := range tc.roots {
				leaves := tree.LeavesUnder(root)
				m := randomMatrix(rng, len(leaves))
				drawable[k] = leaves
				if tc.prune >= 0 {
					pruned[k] = []loctree.NodeID{leaves[tc.prune]}
					drawable[k] = slices.Delete(slices.Clone(leaves), tc.prune, tc.prune+1)
				}
				src := &core.ForestEntry{Root: root, Leaves: leaves, Matrix: m}
				srcs[k], oracles[k] = src, newOracle(tree, priors, leaves, m, pruned[k], tc.pol.PrecisionLevel)
			}
			delta := len(pruned[0])
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					seed := int64(g + 1)
					sess, err := session.New(session.Config{Tree: tree, Entry: srcs[g%2], Delta: delta, Policy: tc.pol,
						Pruned: pruned[g%2], Priors: priors, Seed: seed, Epsilon: 1})
					if err != nil {
						t.Error(err)
						return
					}
					for i := 0; i < 150; i++ {
						k := (g + i) % 2
						if err := sess.Rebind(session.Rebind{Entry: srcs[k], Delta: delta, Pruned: pruned[k]}); err != nil {
							t.Error(err)
							return
						}
						leaf := drawable[k][(7*i+g)%len(drawable[k])]
						var got [1]loctree.NodeID
						if err := sess.DrawCellNInto(leaf, got[:]); err != nil {
							t.Error(err)
							return
						}
						row, _ := oracles[k].rowFor(leaf)
						table, err := sample.New(oracles[k].detachRow(row))
						if err != nil {
							t.Error(err)
							return
						}
						// Alone, draw i reads position i of the seed's stream.
						if want := oracles[k].nodes[table.Pick(sample.Uniform(seed, uint64(i)))]; got[0] != want {
							t.Errorf("session %d draw %d from %v: %v, alone %v", g, i, leaf, got[0], want)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			// The sessions did share: what they bound is what the source holds.
			for k, src := range srcs {
				cfg := mechanism.Config{Tree: tree, Source: src, Delta: delta, Policy: tc.pol,
					Pruned: pruned[k], Priors: priors, Epsilon: 1}
				first, err := mechanism.Bind(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if again, _ := mechanism.Bind(cfg); again != first {
					t.Fatal("two binds of one source and prune set returned two bindings")
				}
			}
		})
	}
}

// TestBindSharesOnlyWhatIsTheSame: the binding a source holds is served to
// every bind with its prune set under the tree, priors and ε it was built
// with, whatever the policy's preferences were; a bind under any other of
// the three, at another precision level, or with another prune set gets its
// own, and no pruned bind displaces the source's unpruned binding. Past the
// source's pruned slots, every bind, hit or miss, is what a source nobody
// bound before would build.
func TestBindSharesOnlyWhatIsTheSame(t *testing.T) {
	tree := height2Tree(t)
	priors := randomPriors(t, tree, 13)
	leaves := tree.LeavesUnder(tree.Root())
	src := &core.ForestEntry{Root: tree.Root(), Leaves: leaves, Matrix: randomMatrix(rand.New(rand.NewSource(1)), len(leaves))}
	bind := func(cfg mechanism.Config) *mechanism.Binding {
		t.Helper()
		cfg.Source, cfg.Delta = src, 1
		b, err := mechanism.Bind(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	plain := mechanism.Config{Tree: tree, Priors: priors, Epsilon: 1, Policy: policy.Policy{PrivacyLevel: 2}}
	first := bind(plain)

	pred, err := policy.ParsePredicate("blocked = false")
	if err != nil {
		t.Fatal(err)
	}
	attrs := map[loctree.NodeID]policy.Attributes{}
	for _, l := range leaves {
		attrs[l] = policy.Attributes{"blocked": policy.Bool(false)}
	}
	keepAll := plain
	keepAll.Policy.Preferences = []policy.Predicate{pred}
	if keepAll.Pruned, err = mechanism.EvalPreferences(leaves, keepAll.Policy, attrs); err != nil {
		t.Fatal(err)
	}
	empty := keepAll
	empty.Pruned = []loctree.NodeID{}
	for name, cfg := range map[string]mechanism.Config{
		"the same config": plain, "preferences that prune nothing": keepAll, "an empty prune set": empty,
	} {
		if b := bind(cfg); b != first {
			t.Errorf("%s: bound a second unpruned binding", name)
		} else if b.Pruned() != nil {
			t.Errorf("%s: pruned %v, want nil", name, b.Pruned())
		}
	}

	coarse := plain
	coarse.Policy.PrecisionLevel = 1
	if b := bind(coarse); b == first || len(b.Nodes()) != 7 {
		t.Errorf("precision level 1 was served the leaf-precision binding (%d nodes)", len(b.Nodes()))
	} else if bind(coarse) != b {
		t.Error("precision level 1 is not shared with itself")
	}

	otherTree, otherPriors, otherEps := plain, plain, plain
	otherTree.Tree = height2Tree(t)
	otherPriors.Priors = randomPriors(t, tree, 14)
	otherEps.Epsilon = 2
	for name, cfg := range map[string]mechanism.Config{"tree": otherTree, "priors": otherPriors, "epsilon": otherEps} {
		if bind(cfg) == first {
			t.Errorf("a bind under another %s was served the first caller's binding", name)
		}
	}
	if bind(plain) != first {
		t.Error("the misses displaced the source's binding")
	}

	home := plain
	home.Pruned = []loctree.NodeID{leaves[3]}
	shared := bind(home)
	if shared == first || !slices.Equal(shared.Pruned(), home.Pruned) {
		t.Fatalf("a pruned bind returned a binding pruning %v, want %v", shared.Pruned(), home.Pruned)
	}
	same := home
	same.Pruned = slices.Clone(home.Pruned)
	if bind(same) != shared {
		t.Error("two binds of equal prune sets returned two bindings")
	}
	office, coarseHome, treeHome, priorsHome, epsHome := home, home, home, home, home
	office.Pruned = []loctree.NodeID{leaves[4]}
	coarseHome.Policy.PrecisionLevel = 1
	treeHome.Tree = otherTree.Tree
	priorsHome.Priors = otherPriors.Priors
	epsHome.Epsilon = otherEps.Epsilon
	for name, cfg := range map[string]mechanism.Config{
		"prune set": office, "precision level": coarseHome, "tree": treeHome, "priors": priorsHome, "epsilon": epsHome,
	} {
		if b := bind(cfg); b == shared || b == first {
			t.Errorf("a pruned bind with another %s was served another config's binding", name)
		} else if bind(cfg) != b {
			t.Errorf("a pruned bind with another %s is not shared with itself", name)
		}
	}
	if bind(home) != shared {
		t.Error("five other pruned binds displaced the first one; the source keeps more than that")
	}
	if bind(plain) != first {
		t.Error("the pruned binds displaced the source's unpruned binding")
	}

	// More (prune set, precision level) pairs than the source keeps, in a
	// random order: some binds hit and some miss a displaced set.
	var cycle []mechanism.Config
	for i := 0; i < 12; i++ {
		cfg := plain
		cfg.Source, cfg.Delta = src, 2
		cfg.Policy.PrecisionLevel = i % 2
		cfg.Pruned = []loctree.NodeID{leaves[i]}
		if i >= 6 {
			cfg.Pruned = append(cfg.Pruned, leaves[i+20])
		}
		cycle = append(cycle, cfg)
	}
	rng := rand.New(rand.NewSource(3))
	seen := map[*mechanism.Binding]bool{}
	hits := 0
	for i := 0; i < 120; i++ {
		cfg := cycle[rng.Intn(len(cycle))]
		b, err := mechanism.Bind(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if seen[b] {
			hits++
		}
		seen[b] = true
		cfg.Source = &core.ForestEntry{Root: src.Root, Leaves: src.Leaves, Matrix: src.Matrix}
		fresh, err := mechanism.Bind(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := b.DetachRows(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := fresh.DetachRows(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(b.Pruned(), cfg.Pruned) || !slices.Equal(b.Nodes(), fresh.Nodes()) ||
			!slices.EqualFunc(got, want, sameBits) {
			t.Fatalf("bind %d of %v at precision %d: a binding pruning %v with %d nodes, not what a fresh source binds",
				i, cfg.Pruned, cfg.Policy.PrecisionLevel, b.Pruned(), len(b.Nodes()))
		}
	}
	if misses := 120 - hits; hits == 0 || misses <= len(cycle) {
		t.Fatalf("%d hits and %d misses over %d configs: the cycle never hit, or never missed a displaced set",
			hits, misses, len(cycle))
	}
}

// TestBindKeepsNoReferenceToCallersPruneSet: the caller of Bind may reuse
// its Config.Pruned slice once Bind returns, as the registry reuses pooled
// scratch, while the source keeps the binding for every later bind of that
// set. Overwriting the slice changes neither the binding's prune set, nor
// its nodes, nor what it draws, nor which set it is shared for.
func TestBindKeepsNoReferenceToCallersPruneSet(t *testing.T) {
	tree := height2Tree(t)
	priors := randomPriors(t, tree, 13)
	leaves := tree.LeavesUnder(tree.LevelNodes(1)[0])
	m := randomMatrix(rand.New(rand.NewSource(1)), len(leaves))
	src := &core.ForestEntry{Root: tree.LevelNodes(1)[0], Leaves: leaves, Matrix: m}
	home := []loctree.NodeID{leaves[3]}
	scratch := slices.Clone(home)
	cfg := mechanism.Config{Tree: tree, Source: src, Delta: 1, Priors: priors, Epsilon: 1,
		Policy: policy.Policy{PrivacyLevel: 1}, Pruned: scratch}
	b, err := mechanism.Bind(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scratch[0] = leaves[4]

	o := newOracle(tree, priors, leaves, m, home, 0)
	if !slices.Equal(b.Pruned(), home) || !slices.Equal(b.Nodes(), o.nodes) {
		t.Fatalf("after the caller reused its slice: pruned %v nodes %v, bound with %v (nodes %v)",
			b.Pruned(), b.Nodes(), home, o.nodes)
	}
	drawn, alone := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		leaf := leaves[i%len(leaves)]
		want, outcome := o.rowFor(leaf)
		got, err := b.RowFor(leaf)
		if classify(err) != outcome || (outcome == resolved && got != want) {
			t.Fatalf("RowFor(%v) = %d, %v; oracle row %d outcome %d", leaf, got, err, want, outcome)
		}
		if outcome != resolved {
			continue
		}
		a, err := b.Alias(got)
		if err != nil {
			t.Fatal(err)
		}
		table, err := sample.New(o.detachRow(want))
		if err != nil {
			t.Fatal(err)
		}
		if g, w := b.Nodes()[a.Draw(drawn)], o.nodes[table.Draw(alone)]; g != w {
			t.Fatalf("draw %d from %v: %v, oracle %v", i, leaf, g, w)
		}
	}

	cfg.Pruned = slices.Clone(home)
	if again, err := mechanism.Bind(cfg); err != nil || again != b {
		t.Errorf("a bind of the set first bound is not served its binding (%v)", err)
	}
	cfg.Pruned = scratch
	if other, err := mechanism.Bind(cfg); err != nil || other == b || !slices.Equal(other.Pruned(), scratch) {
		t.Errorf("a bind of the set the caller overwrote its slice with was served the first set's binding (%v)", err)
	}
}
