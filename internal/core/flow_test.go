package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"corgi/internal/geo"
	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
	"corgi/internal/mechanism"
	"corgi/internal/obf"
	"corgi/internal/policy"
	"corgi/internal/session"
)

// newFlowServer builds a height-2 tree over SF with uniform priors and a
// small target set, plus a server with fast parameters.
func newFlowServer(t *testing.T) (*Server, *loctree.Tree, *loctree.Priors) {
	t.Helper()
	sys, err := hexgrid.NewSystem(geo.SanFrancisco.Center(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := loctree.NewAt(sys, geo.SanFrancisco.Center(), 2)
	if err != nil {
		t.Fatal(err)
	}
	priors := loctree.UniformPriors(tree)
	leaves := tree.LevelNodes(0)
	targets := make([]geo.LatLng, 0, 10)
	probs := make([]float64, 0, 10)
	for i := 0; i < 10; i++ {
		targets = append(targets, tree.Center(leaves[i*4]))
		probs = append(probs, 1)
	}
	srv, err := NewServerWithOptions(tree, priors, targets, probs, Params{
		Epsilon: 15, Iterations: 3, UseGraphApprox: true,
	}, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return srv, tree, priors
}

func TestNewServerValidation(t *testing.T) {
	_, tree, priors := newFlowServer(t)
	tgt := []geo.LatLng{geo.SanFrancisco.Center()}
	if _, err := NewServerWithOptions(nil, priors, tgt, []float64{1}, Params{Epsilon: 1}, EngineOptions{}); err == nil {
		t.Error("nil tree must fail")
	}
	if _, err := NewServerWithOptions(tree, nil, tgt, []float64{1}, Params{Epsilon: 1}, EngineOptions{}); err == nil {
		t.Error("nil priors must fail")
	}
	if _, err := NewServerWithOptions(tree, priors, nil, nil, Params{Epsilon: 1}, EngineOptions{}); err == nil {
		t.Error("no targets must fail")
	}
	if _, err := NewServerWithOptions(tree, priors, tgt, []float64{1, 2}, Params{Epsilon: 1}, EngineOptions{}); err == nil {
		t.Error("mismatched probs must fail")
	}
	if _, err := NewServerWithOptions(tree, priors, tgt, []float64{1}, Params{Epsilon: 0}, EngineOptions{}); err == nil {
		t.Error("zero epsilon must fail")
	}
}

func TestGenerateForestLevel1(t *testing.T) {
	srv, tree, _ := newFlowServer(t)
	forest, err := srv.GenerateForest(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if forest.PrivacyLevel != 1 || forest.Delta != 2 {
		t.Errorf("forest metadata wrong: %+v", forest)
	}
	if len(forest.Entries) != 7 {
		t.Fatalf("forest has %d entries, want 7", len(forest.Entries))
	}
	for node, e := range forest.Entries {
		if e.Root != node {
			t.Errorf("entry root %v under key %v", e.Root, node)
		}
		if len(e.Leaves) != 7 {
			t.Errorf("entry %v has %d leaves", node, len(e.Leaves))
		}
		if err := e.Matrix.CheckStochastic(1e-6); err != nil {
			t.Errorf("entry %v: %v", node, err)
		}
		if rep := e.Matrix.CheckGeoInd(e.Pairs, 15, 1e-6); rep.Violated != 0 {
			t.Errorf("entry %v violates %d constraints", node, rep.Violated)
		}
		if len(e.Result.Trace) != 4 { // initial + 3 iterations
			t.Errorf("entry %v trace %d", node, len(e.Result.Trace))
		}
	}
	// The leaf sets of the entries partition the tree's leaves.
	seen := map[loctree.NodeID]bool{}
	for _, e := range forest.Entries {
		for _, l := range e.Leaves {
			if seen[l] {
				t.Fatalf("leaf %v in two entries", l)
			}
			seen[l] = true
		}
	}
	if len(seen) != tree.NumLeaves() {
		t.Errorf("entries cover %d leaves, want %d", len(seen), tree.NumLeaves())
	}
}

func TestGenerateForestValidation(t *testing.T) {
	srv, _, _ := newFlowServer(t)
	if _, err := srv.GenerateForest(0, 1); err == nil {
		t.Error("privacy level 0 must fail")
	}
	if _, err := srv.GenerateForest(3, 1); err == nil {
		t.Error("privacy level above height must fail")
	}
	if _, err := srv.GenerateEntryCtx(context.Background(), loctree.NodeID{Level: 1, Coord: hexgrid.Coord{Q: 99, R: 99}}, 1); err == nil {
		t.Error("foreign node must fail")
	}
	if _, err := srv.GenerateEntryCtx(context.Background(), srv.Tree().LevelNodes(1)[0], -1); err == nil {
		t.Error("negative delta must fail")
	}
}

func TestGenerateEntryCaching(t *testing.T) {
	srv, tree, _ := newFlowServer(t)
	node := tree.LevelNodes(1)[0]
	e1, err := srv.GenerateEntryCtx(context.Background(), node, 1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := srv.GenerateEntryCtx(context.Background(), node, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Error("same request must hit the cache")
	}
	e3, err := srv.GenerateEntryCtx(context.Background(), node, 2)
	if err != nil {
		t.Fatal(err)
	}
	if e3 == e1 {
		t.Error("different delta must regenerate")
	}
}

// userSession is Algorithm 4's set-up as the device runs it (device.Forest):
// locate the real leaf, take the forest entry of its privacy-level
// ancestor, and bind a session to it.
func userSession(tree *loctree.Tree, forest *Forest, real geo.LatLng, pol policy.Policy,
	attrs map[loctree.NodeID]policy.Attributes, priors *loctree.Priors, seed int64) (*session.Session, error) {
	realLeaf, ok := tree.Locate(real, 0)
	if !ok {
		return nil, fmt.Errorf("real location %v outside the tree region", real)
	}
	root, ok := tree.AncestorAt(realLeaf, pol.PrivacyLevel)
	if !ok {
		return nil, fmt.Errorf("no ancestor of %v at level %d", realLeaf, pol.PrivacyLevel)
	}
	entry, ok := forest.Entries[root]
	if !ok {
		return nil, fmt.Errorf("forest has no entry for subtree %v", root)
	}
	return session.New(session.Config{
		Tree: tree, Entry: entry, Delta: forest.Delta,
		Policy: pol, Attrs: attrs, Priors: priors, Seed: seed,
	})
}

func TestUserSideEndToEnd(t *testing.T) {
	srv, tree, priors := newFlowServer(t)
	forest, err := srv.GenerateForest(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	real := geo.SanFrancisco.Center()
	realLeaf, _ := tree.Locate(real, 0)
	subRoot, _ := tree.AncestorAt(realLeaf, 1)
	subLeaves := tree.LeavesUnder(subRoot)

	// Attributes: mark one non-real leaf as "home" to be pruned.
	attrs := map[loctree.NodeID]policy.Attributes{}
	var homeLeaf loctree.NodeID
	for _, l := range tree.LevelNodes(0) {
		isHome := false
		if l != realLeaf && homeLeaf == (loctree.NodeID{}) {
			for _, sl := range subLeaves {
				if sl == l {
					isHome = true
					homeLeaf = l
					break
				}
			}
		}
		attrs[l] = policy.Attributes{"home": policy.Bool(isHome)}
	}
	pred, _ := policy.ParsePredicate("home != true")
	pol := policy.Policy{PrivacyLevel: 1, PrecisionLevel: 0, Preferences: []policy.Predicate{pred}}

	sess, err := userSession(tree, forest, real, pol, attrs, priors, 5)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Root() != subRoot {
		t.Fatalf("wrong subtree %v", sess.Root())
	}
	if pruned := sess.Pruned(); len(pruned) != 1 || pruned[0] != homeLeaf {
		t.Fatalf("pruned %v, want [%v]", pruned, homeLeaf)
	}
	reportedHome := 0
	for trial := 0; trial < 200; trial++ {
		reported, err := sess.Draw(real)
		if err != nil {
			t.Fatal(err)
		}
		if reported == homeLeaf {
			reportedHome++
		}
		if reported.Level != 0 {
			t.Fatalf("reported level %d, want 0", reported.Level)
		}
		if !tree.Contains(reported) {
			t.Fatalf("reported foreign node %v", reported)
		}
	}
	if reportedHome != 0 {
		t.Errorf("home leaf reported %d times despite pruning", reportedHome)
	}
}

func TestUserSidePrecisionReduction(t *testing.T) {
	srv, tree, priors := newFlowServer(t)
	forest, err := srv.GenerateForest(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	pol := policy.Policy{PrivacyLevel: 2, PrecisionLevel: 1}
	sess, err := userSession(tree, forest, geo.SanFrancisco.Center(), pol, nil, priors, 6)
	if err != nil {
		t.Fatal(err)
	}
	reported, err := sess.Draw(geo.SanFrancisco.Center())
	if err != nil {
		t.Fatal(err)
	}
	if reported.Level != 1 {
		t.Fatalf("reported level %d, want 1", reported.Level)
	}
	// Every row of the reduced mechanism is a distribution over the 7
	// level-1 nodes.
	b, err := mechanism.Bind(mechanism.Config{
		Tree: tree, Source: forest.Entries[tree.Root()], Policy: pol, Priors: priors,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Nodes()) != 7 {
		t.Fatalf("reduced mechanism has %d nodes, want 7", len(b.Nodes()))
	}
	rows, _, err := b.DetachRows(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		if len(row) != 7 {
			t.Fatalf("row %d has %d weights, want 7", i, len(row))
		}
		sum := 0.0
		for _, v := range row {
			if v < 0 {
				t.Fatalf("row %d has a negative weight %v", i, v)
			}
			sum += v
		}
		norm := 0.0
		for _, v := range row {
			norm += v / sum
		}
		if math.Abs(norm-1) > 1e-6 {
			t.Errorf("row %d normalises to %v", i, norm)
		}
	}
}

func TestUserSideErrors(t *testing.T) {
	srv, tree, priors := newFlowServer(t)
	forest, err := srv.GenerateForest(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	real := geo.SanFrancisco.Center()

	// Bad policy.
	if _, err := userSession(tree, forest, real,
		policy.Policy{PrivacyLevel: 0, PrecisionLevel: 0}, nil, priors, 7); err == nil {
		t.Error("invalid policy must fail")
	}
	// Forest level mismatch.
	if _, err := userSession(tree, forest, real,
		policy.Policy{PrivacyLevel: 2, PrecisionLevel: 0}, nil, priors, 7); err == nil {
		t.Error("forest level mismatch must fail")
	}
	// Real location outside the region.
	sess, err := userSession(tree, forest, real, policy.Policy{PrivacyLevel: 1}, nil, priors, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Draw(geo.LatLng{Lat: 0, Lng: 0}); err == nil {
		t.Error("outside location must fail")
	}
	// Preferences pruning more than delta.
	attrs := map[loctree.NodeID]policy.Attributes{}
	for _, l := range tree.LevelNodes(0) {
		attrs[l] = policy.Attributes{"popular": policy.Bool(false)}
	}
	pred, _ := policy.ParsePredicate("popular = true")
	pol := policy.Policy{PrivacyLevel: 1, PrecisionLevel: 0, Preferences: []policy.Predicate{pred}}
	if _, err := userSession(tree, forest, real, pol, attrs, priors, 7); err == nil {
		t.Error("pruning beyond delta must fail (Sec. 5.3)")
	}
	// Missing attributes.
	polMissing := policy.Policy{PrivacyLevel: 1, PrecisionLevel: 0,
		Preferences: []policy.Predicate{{Var: "nope", Op: policy.OpEq, Val: policy.Bool(true)}}}
	if _, err := userSession(tree, forest, real, polMissing, attrs, priors, 7); err == nil {
		t.Error("missing attribute must fail")
	}
}

func TestPrunedRealLocationAtPrecisionZero(t *testing.T) {
	srv, tree, priors := newFlowServer(t)
	forest, err := srv.GenerateForest(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	real := geo.SanFrancisco.Center()
	realLeaf, _ := tree.Locate(real, 0)
	attrs := map[loctree.NodeID]policy.Attributes{}
	for _, l := range tree.LevelNodes(0) {
		attrs[l] = policy.Attributes{"home": policy.Bool(l == realLeaf)}
	}
	pred, _ := policy.ParsePredicate("home != true")
	pol := policy.Policy{PrivacyLevel: 1, PrecisionLevel: 0, Preferences: []policy.Predicate{pred}}
	sess, err := userSession(tree, forest, real, pol, attrs, priors, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Draw(real); err == nil {
		t.Error("pruning the real leaf at precision 0 must fail loudly")
	}
}

func TestOutcomeMatrixGeoIndAfterPruneWithinDelta(t *testing.T) {
	// Pruning <= delta locations from a delta-prunable matrix must keep
	// Geo-Ind violations at (or very near) zero — the core robustness claim.
	srv, tree, _ := newFlowServer(t)
	node := tree.LevelNodes(1)[0]
	robust, err := srv.GenerateEntryCtx(context.Background(), node, 2)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := srv.GenerateEntryCtx(context.Background(), node, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Prune 2 locations (= delta) from both and compare violation counts.
	prune := []int{1, 4}
	checkAfter := func(m *obf.Matrix) obf.ViolationReport {
		rep, err := m.CheckGeoIndPruned(prune, robust.Pairs, 15, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	robustRep := checkAfter(robust.Matrix)
	plainRep := checkAfter(plain.Matrix)
	if robustRep.Violated > plainRep.Violated {
		t.Errorf("robust matrix violated more than non-robust after pruning: %d vs %d",
			robustRep.Violated, plainRep.Violated)
	}
	if robustRep.Violated > robustRep.Total/20 {
		t.Errorf("delta-prunable matrix has %d/%d violations after pruning <= delta",
			robustRep.Violated, robustRep.Total)
	}
}
