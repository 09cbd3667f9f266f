package mechanism_test

import (
	"math/rand"
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
// -race).
func TestSessionsSharingBindingsDrawWhatEachDrawsAlone(t *testing.T) {
	tree := height2Tree(t)
	priors := randomPriors(t, tree, 13)
	for _, tc := range []struct {
		name  string
		pol   policy.Policy
		roots [2]loctree.NodeID
	}{
		{"plain", policy.Policy{PrivacyLevel: 1}, [2]loctree.NodeID{tree.LevelNodes(1)[0], tree.LevelNodes(1)[1]}},
		// A height-2 tree has one level-2 subtree: the second source is a
		// second matrix over it.
		{"precision-1", policy.Policy{PrivacyLevel: 2, PrecisionLevel: 1}, [2]loctree.NodeID{tree.Root(), tree.Root()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			var srcs [2]*core.ForestEntry
			var oracles [2]*oracle
			for k, root := range tc.roots {
				leaves := tree.LeavesUnder(root)
				m := randomMatrix(rng, len(leaves))
				src := &core.ForestEntry{Root: root, Leaves: leaves, Matrix: m}
				srcs[k], oracles[k] = src, newOracle(tree, priors, leaves, m, nil, tc.pol.PrecisionLevel)
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					seed := int64(g + 1)
					sess, err := session.New(session.Config{Tree: tree, Entry: srcs[g%2], Policy: tc.pol,
						Pruned: []loctree.NodeID{}, Priors: priors, Seed: seed, Epsilon: 1})
					if err != nil {
						t.Error(err)
						return
					}
					alone := rand.New(rand.NewSource(seed))
					for i := 0; i < 150; i++ {
						k := (g + i) % 2
						if err := sess.Rebind(session.Rebind{Entry: srcs[k], Pruned: []loctree.NodeID{}}); err != nil {
							t.Error(err)
							return
						}
						leaves := srcs[k].SupportLeaves()
						leaf := leaves[(7*i+g)%len(leaves)]
						got, err := sess.DrawCell(leaf)
						if err != nil {
							t.Error(err)
							return
						}
						row, _ := oracles[k].rowFor(leaf)
						table, err := sample.New(oracles[k].detachRow(row))
						if err != nil {
							t.Error(err)
							return
						}
						if want := oracles[k].nodes[table.Draw(alone)]; got != want {
							t.Errorf("session %d draw %d from %v: %v, alone %v", g, i, leaf, got, want)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			// The sessions did share: what they bound is what the source holds.
			for _, src := range srcs {
				cfg := mechanism.Config{Tree: tree, Source: src, Policy: tc.pol, Priors: priors, Epsilon: 1}
				first, err := mechanism.Bind(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if again, _ := mechanism.Bind(cfg); again != first {
					t.Fatal("two unpruned binds of one source returned two bindings")
				}
			}
		})
	}
}

// TestBindSharesOnlyWhatIsTheSame: the binding a source holds is served to
// every bind that prunes nothing under the tree, priors and ε it was built
// with, whatever the policy's preferences were; a bind under any other of
// the three, at another precision level, or with a prune set gets its own.
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
	keepAll.Policy.Preferences, keepAll.Attrs = []policy.Predicate{pred}, attrs
	evaluated := keepAll
	evaluated.Attrs, evaluated.Pruned = nil, []loctree.NodeID{}
	for name, cfg := range map[string]mechanism.Config{
		"the same config": plain, "preferences that prune nothing": keepAll, "an empty precomputed prune set": evaluated,
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

	pruned := plain
	pruned.Pruned = leaves[:1]
	if a, b := bind(pruned), bind(pruned); a == b || a == first {
		t.Error("a pruned binding was shared")
	}
}
