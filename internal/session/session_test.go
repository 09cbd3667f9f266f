package session

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"corgi/internal/core"
	"corgi/internal/geo"
	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
	"corgi/internal/mechanism"
	"corgi/internal/obf"
	"corgi/internal/policy"
	"corgi/internal/raceon"
)

// testWorld builds a height-2 tree and a synthetic stochastic forest entry
// over one privacy-level-2 subtree (49 leaves) — no LP involved, so tests
// stay fast while exercising the real tree geometry.
func testWorld(t *testing.T, privacyLevel int) (*loctree.Tree, *core.ForestEntry, *loctree.Priors) {
	t.Helper()
	sys, err := hexgrid.NewSystem(geo.SanFrancisco.Center(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := loctree.NewAt(sys, geo.SanFrancisco.Center(), 2)
	if err != nil {
		t.Fatal(err)
	}
	root := tree.LevelNodes(privacyLevel)[0]
	leaves := tree.LeavesUnder(root)
	n := len(leaves)
	rng := rand.New(rand.NewSource(17))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, n)
		total := 0.0
		for j := range rows[i] {
			rows[i][j] = 0.01 + rng.Float64()
			total += rows[i][j]
		}
		for j := range rows[i] {
			rows[i][j] /= total
		}
	}
	m, err := obf.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	entry := &core.ForestEntry{Root: root, Leaves: leaves, Matrix: m}
	return tree, entry, loctree.UniformPriors(tree)
}

func blockPolicy(privacy, precision int) policy.Policy {
	pred, _ := policy.ParsePredicate("blocked != true")
	return policy.Policy{
		PrivacyLevel:   privacy,
		PrecisionLevel: precision,
		Preferences:    []policy.Predicate{pred},
	}
}

// TestRowWeightsMatchMatrixPath is the core correctness property: the
// session's row-wise pruned/renormalized/precision-reduced distribution
// must equal what the full matrix algebra (obf.Prune + obf.PrecisionReduce)
// produces, for both leaf precision and a coarser level.
// drawN draws n reports for one true cell through DrawCellNInto.
func drawN(s *Session, leaf loctree.NodeID, n int) ([]loctree.NodeID, error) {
	out := make([]loctree.NodeID, n)
	return out, s.DrawCellNInto(leaf, out)
}

func TestRowWeightsMatchMatrixPath(t *testing.T) {
	tree, entry, priors := testWorld(t, 2)
	blocked := []loctree.NodeID{entry.Leaves[3], entry.Leaves[11], entry.Leaves[30]}

	for _, precision := range []int{0, 1} {
		pol := blockPolicy(2, precision)
		s, err := New(Config{
			Tree: tree, Entry: entry, Delta: len(blocked),
			Policy: pol, Pruned: blocked, Priors: priors, Seed: 1,
		})
		if err != nil {
			t.Fatalf("precision %d: %v", precision, err)
		}

		// Matrix-algebra reference: prune + renormalize, then reduce.
		var dropIdx []int
		for i, l := range entry.Leaves {
			for _, b := range blocked {
				if l == b {
					dropIdx = append(dropIdx, i)
				}
			}
		}
		pruned, keep, err := entry.Matrix.Prune(dropIdx)
		if err != nil {
			t.Fatal(err)
		}
		keptLeaves := make([]loctree.NodeID, len(keep))
		for ni, oi := range keep {
			keptLeaves[ni] = entry.Leaves[oi]
		}
		ref := pruned
		refNodes := keptLeaves
		if precision > 0 {
			groups, groupNodes, err := mechanism.GroupByAncestor(tree, keptLeaves, precision)
			if err != nil {
				t.Fatal(err)
			}
			leafPriors := make([]float64, len(keptLeaves))
			for i, l := range keptLeaves {
				leafPriors[i] = priors.Of(tree, l)
			}
			ref, err = obf.PrecisionReduce(pruned, groups, leafPriors)
			if err != nil {
				t.Fatal(err)
			}
			refNodes = groupNodes
		}

		// Compare every row's alias distribution against the reference.
		realLeaf := entry.Leaves[0] // unpruned
		s.mu.Lock()
		row, err := s.b.RowFor(realLeaf)
		if err != nil {
			s.mu.Unlock()
			t.Fatal(err)
		}
		a, err := s.b.Alias(row)
		nodes := s.b.Nodes()
		s.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if len(nodes) != len(refNodes) {
			t.Fatalf("precision %d: %d report nodes, reference has %d", precision, len(nodes), len(refNodes))
		}
		for j, node := range nodes {
			if node != refNodes[j] {
				t.Fatalf("precision %d: node order diverges at %d: %v vs %v", precision, j, node, refNodes[j])
			}
			want := ref.At(row, j)
			if got := a.Prob(j); math.Abs(got-want) > 1e-9 {
				t.Fatalf("precision %d: P(%d) = %v, matrix path says %v", precision, j, got, want)
			}
		}
	}
}

func TestBudgetEnforced(t *testing.T) {
	tree, entry, priors := testWorld(t, 2)
	blocked := []loctree.NodeID{entry.Leaves[3], entry.Leaves[11]}
	_, err := New(Config{
		Tree: tree, Entry: entry, Delta: 1, // budget below |S| = 2
		Policy: blockPolicy(2, 0), Pruned: blocked, Priors: priors,
	})
	if err == nil {
		t.Fatal("prune set beyond the reserved budget accepted")
	}
}

func TestOwnLocationPruned(t *testing.T) {
	tree, entry, priors := testWorld(t, 2)
	real := entry.Leaves[5]
	pruned := []loctree.NodeID{real}
	s, err := New(Config{
		Tree: tree, Entry: entry, Delta: 1,
		Policy: blockPolicy(2, 0), Pruned: pruned, Priors: priors,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drawN(s, real, 1); err == nil {
		t.Fatal("drew a report for a leaf the user's own preferences pruned at precision 0")
	}
	// At coarser precision the ancestor row still exists.
	s2, err := New(Config{
		Tree: tree, Entry: entry, Delta: 1,
		Policy: blockPolicy(2, 1), Pruned: pruned, Priors: priors,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drawN(s2, real, 1); err != nil {
		t.Fatalf("precision-1 draw for a pruned leaf: %v", err)
	}
}

func TestDrawOutsideSubtree(t *testing.T) {
	tree, entry, priors := testWorld(t, 1) // privacy level 1: subtree is 7 leaves
	s, err := New(Config{
		Tree: tree, Entry: entry, Delta: 0,
		Policy: policy.Policy{PrivacyLevel: 1}, Priors: priors,
	})
	if err != nil {
		t.Fatal(err)
	}
	inSubtree := map[loctree.NodeID]bool{}
	for _, l := range entry.Leaves {
		inSubtree[l] = true
	}
	for _, l := range tree.LevelNodes(0) {
		if !inSubtree[l] {
			if _, err := drawN(s, l, 1); err == nil {
				t.Fatal("drew for a cell outside the session subtree")
			}
			break
		}
	}
}

// TestDeterministicPerSeed: equal configs draw equal sequences; different
// seeds diverge.
func TestDeterministicPerSeed(t *testing.T) {
	tree, entry, priors := testWorld(t, 2)
	mk := func(seed int64) []loctree.NodeID {
		s, err := New(Config{
			Tree: tree, Entry: entry, Delta: 0,
			Policy: policy.Policy{PrivacyLevel: 2}, Priors: priors, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		out, err := drawN(s, entry.Leaves[0], 64)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := mk(42), mk(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := mk(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 64-draw sequences")
	}
}

// TestConcurrentDraws exercises the mutex-serialized RNG and the lazy row
// builds under the race detector.
func TestConcurrentDraws(t *testing.T) {
	tree, entry, priors := testWorld(t, 2)
	s, err := New(Config{
		Tree: tree, Entry: entry, Delta: 0,
		Policy: policy.Policy{PrivacyLevel: 2}, Priors: priors, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			leaf := entry.Leaves[g%len(entry.Leaves)]
			for i := 0; i < 500; i++ {
				if _, err := drawN(s, leaf, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := s.Draws(); got != 8*500 {
		t.Fatalf("draw counter = %d, want %d", got, 8*500)
	}
}

// TestPolicyFingerprintMatchesCanonicalJSON: the digest replaced a hash of
// the policy's JSON form, and must partition policies exactly as that form
// did — including the cases a naive concatenation of fields would alias.
func TestPolicyFingerprintMatchesCanonicalJSON(t *testing.T) {
	pred := func(v string, op policy.Op, val policy.Value) policy.Predicate {
		return policy.Predicate{Var: v, Op: op, Val: val}
	}
	prefs := func(ps ...policy.Predicate) policy.Policy {
		return policy.Policy{PrivacyLevel: 2, Preferences: ps}
	}
	home, far := pred("home", policy.OpEq, policy.Bool(false)), pred("distance", policy.OpLe, policy.Number(5))
	pols := []policy.Policy{
		{PrivacyLevel: 1},
		{PrivacyLevel: 2},
		{PrivacyLevel: 2, PrecisionLevel: 1},
		{PrivacyLevel: 12},
		{PrivacyLevel: 1, PrecisionLevel: 2},
		{PrivacyLevel: 2, Preferences: nil},
		{PrivacyLevel: 2, Preferences: []policy.Predicate{}},
		prefs(home),
		prefs(home, far),
		prefs(far, home),
		prefs(home, home),
		prefs(pred("home", policy.OpNe, policy.Bool(false))),
		prefs(pred("home", policy.OpEq, policy.Bool(true))),
		// One value, three kinds.
		prefs(pred("x", policy.OpEq, policy.String("1"))),
		prefs(pred("x", policy.OpEq, policy.Number(1))),
		prefs(pred("x", policy.OpEq, policy.String("true"))),
		prefs(pred("x", policy.OpEq, policy.Bool(true))),
		prefs(pred("x", policy.OpEq, policy.Number(0))),
		prefs(pred("x", policy.OpEq, policy.Number(math.Copysign(0, -1)))),
		// Only the payload of the value's kind counts.
		prefs(pred("x", policy.OpEq, policy.Value{Kind: policy.KindString, S: "1", F: 7, B: true})),
		// Attr/value and predicate/predicate boundaries.
		prefs(pred("ab", policy.OpEq, policy.String("c"))),
		prefs(pred("a", policy.OpEq, policy.String("bc"))),
		prefs(pred("a", policy.OpEq, policy.String("b")), pred("c", policy.OpEq, policy.String("d"))),
		prefs(pred("a", policy.OpEq, policy.String("bc")), pred("", policy.OpEq, policy.String("d"))),
		prefs(pred("a", policy.OpEq, policy.String("b\x00c"))),
		prefs(pred("a", policy.OpEq, policy.String("")), pred("a", policy.OpEq, policy.String(""))),
		prefs(pred("a", policy.OpEq, policy.String(""))),
		prefs(pred("a=", policy.OpEq, policy.String(""))),
		prefs(pred("a", policy.OpLe, policy.String(""))),
		prefs(pred("a", policy.OpLt, policy.String("="))),
	}
	canon := make([]string, len(pols))
	for i, p := range pols {
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		canon[i] = string(b)
	}
	equal := 0
	for i := range pols {
		for j := range pols {
			same := PolicyFingerprint(pols[i]) == PolicyFingerprint(pols[j])
			if want := canon[i] == canon[j]; same != want {
				t.Errorf("fingerprints equal = %v, canonical JSON equal = %v:\n  %s\n  %s", same, want, canon[i], canon[j])
			}
			if same && i < j {
				equal++
			}
		}
	}
	// The table must hold both answers: nil, empty and absent preferences
	// are one policy (three pairs), and so are the two spellings of
	// String("1").
	if equal != 4 {
		t.Errorf("%d pairs of table entries share a fingerprint, want 4", equal)
	}
}

// TestPolicyFingerprintAllocatesNothing: the key is computed on every
// report, warm ones included.
func TestPolicyFingerprintAllocatesNothing(t *testing.T) {
	if raceon.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	two := blockPolicy(2, 0)
	two.Preferences = append(two.Preferences, policy.Predicate{Var: "distance", Op: policy.OpLe, Val: policy.Number(5)})
	for _, pol := range []policy.Policy{{PrivacyLevel: 1}, two} {
		pol := pol
		if got := testing.AllocsPerRun(100, func() { fingerprintSink = PolicyFingerprint(pol) }); got != 0 {
			t.Errorf("PolicyFingerprint(%v): %v allocs, want 0", pol, got)
		}
	}
}

var fingerprintSink Fingerprint

// synthEntryAt builds a synthetic row-stochastic forest entry over an
// arbitrary subtree root, mirroring testWorld's construction.
func synthEntryAt(t *testing.T, tree *loctree.Tree, root loctree.NodeID, seed int64) *core.ForestEntry {
	t.Helper()
	leaves := tree.LeavesUnder(root)
	n := len(leaves)
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, n)
		total := 0.0
		for j := range rows[i] {
			rows[i][j] = 0.01 + rng.Float64()
			total += rows[i][j]
		}
		for j := range rows[i] {
			rows[i][j] /= total
		}
	}
	m, err := obf.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return &core.ForestEntry{Root: root, Leaves: leaves, Matrix: m}
}

// TestRebindContinuesRNGStream is the mobility core: re-anchoring onto a
// new subtree swaps the binding but never resets the RNG, so a replayed
// move sequence is deterministic and the post-move draws continue the
// stream instead of restarting it from the seed.
func TestRebindContinuesRNGStream(t *testing.T) {
	tree, entryA, priors := testWorld(t, 1)
	rootB := tree.LevelNodes(1)[1]
	entryB := synthEntryAt(t, tree, rootB, 23)
	leafA, leafB := entryA.Leaves[0], entryB.Leaves[0]
	pol := policy.Policy{PrivacyLevel: 1}

	run := func() ([]loctree.NodeID, *Session) {
		s, err := New(Config{Tree: tree, Entry: entryA, Delta: 0, Policy: pol, Priors: priors, Seed: 77})
		if err != nil {
			t.Fatal(err)
		}
		pre, err := drawN(s, leafA, 8)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Rebind(Rebind{Entry: entryB, Delta: 0}); err != nil {
			t.Fatal(err)
		}
		post, err := drawN(s, leafB, 8)
		if err != nil {
			t.Fatal(err)
		}
		return append(pre, post...), s
	}
	seq1, s1 := run()
	seq2, _ := run()
	for i := range seq1 {
		if seq1[i] != seq2[i] {
			t.Fatalf("replayed move sequence diverged at draw %d: %v vs %v", i, seq1[i], seq2[i])
		}
	}
	if got := s1.Reanchors(); got != 1 {
		t.Fatalf("reanchor counter = %d, want 1", got)
	}
	if s1.Root() != rootB || !s1.b.Covers(leafB) || s1.b.Covers(leafA) {
		t.Fatalf("binding not swapped: root %v", s1.Root())
	}

	// A fresh session started directly on entry B restarts the stream from
	// the seed; the rebound session must NOT match it — that would mean the
	// move reset the RNG.
	fresh, err := New(Config{Tree: tree, Entry: entryB, Delta: 0, Policy: pol, Priors: priors, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	freshDraws, err := drawN(fresh, leafB, 8)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < 8; i++ {
		if seq1[8+i] != freshDraws[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("post-rebind draws match a seed-fresh session: the move reset the RNG stream")
	}
}

// TestRebindFailureKeepsOldBinding: a rebind whose prune set exceeds the
// new entry's budget must leave the session serving its old subtree.
func TestRebindFailureKeepsOldBinding(t *testing.T) {
	tree, entryA, priors := testWorld(t, 1)
	rootB := tree.LevelNodes(1)[1]
	entryB := synthEntryAt(t, tree, rootB, 23)
	s, err := New(Config{
		Tree: tree, Entry: entryA, Delta: 0,
		Policy: policy.Policy{PrivacyLevel: 1}, Priors: priors, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = s.Rebind(Rebind{Entry: entryB, Delta: 0, Pruned: entryB.Leaves[:1]})
	if err == nil {
		t.Fatal("over-budget rebind accepted")
	}
	if s.Root() != entryA.Root || s.Reanchors() != 0 {
		t.Fatalf("failed rebind mutated the session: root %v, reanchors %d", s.Root(), s.Reanchors())
	}
	if _, err := drawN(s, entryA.Leaves[0], 1); err != nil {
		t.Fatalf("old binding unusable after failed rebind: %v", err)
	}
}

// TestConcurrentReanchorDraws races draws against rebinds: the race job's
// stress for the mobility path. Draws must always land on a consistent
// binding (old or new, never torn), and counters must add up.
func TestConcurrentReanchorDraws(t *testing.T) {
	tree, entryA, priors := testWorld(t, 1)
	entryB := synthEntryAt(t, tree, tree.LevelNodes(1)[1], 31)
	s, err := New(Config{
		Tree: tree, Entry: entryA, Delta: 0,
		Policy: policy.Policy{PrivacyLevel: 1}, Priors: priors, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	const (
		drawers = 6
		perG    = 300
		rebinds = 100
	)
	var wg sync.WaitGroup
	var drawn atomic.Uint64
	for g := 0; g < drawers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Try a cell of each subtree. One binding covers exactly one of
				// the two, so both draws fail only when a Rebind landed between
				// them (A refused while bound to B, rebind, B refused while
				// bound to A): a miss the registry's retry loop absorbs. The
				// re-anchor counter shows that; it is bumped just after the
				// binding is swapped, so a pair that beats it there is told
				// apart by its refusals naming different subtrees.
				la := entryA.Leaves[(g+i)%len(entryA.Leaves)]
				lb := entryB.Leaves[(g+i)%len(entryB.Leaves)]
				before := s.Reanchors()
				_, errA := drawN(s, la, 1)
				_, errB := drawN(s, lb, 1)
				if errA == nil {
					drawn.Add(1)
				}
				if errB == nil {
					drawn.Add(1)
				}
				if errA != nil && errB != nil && s.Reanchors() == before {
					var missA, missB *mechanism.OutsideSubtreeError
					if !errors.As(errA, &missA) || !errors.As(errB, &missB) || missA.Root == missB.Root {
						t.Errorf("both subtrees rejected with no rebind between: %v / %v", errA, errB)
						return
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rebinds; i++ {
			entry := entryA
			if i%2 == 0 {
				entry = entryB
			}
			if err := s.Rebind(Rebind{Entry: entry, Delta: 0}); err != nil {
				t.Errorf("rebind %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	if s.Reanchors() != rebinds {
		t.Fatalf("reanchors = %d, want %d", s.Reanchors(), rebinds)
	}
	if s.Draws() != drawn.Load() {
		t.Fatalf("draw counter %d, successful draws %d", s.Draws(), drawn.Load())
	}
}

// bindHook is a forest entry that runs a function when it is bound, which
// is how a test gets inside Upgrade between its read of the session's
// binding and its swap.
type bindHook struct {
	*core.ForestEntry
	onBind func()
}

func (h bindHook) LeafIndex() *mechanism.LeafIndex {
	h.onBind()
	return h.ForestEntry.LeafIndex()
}

// TestDegradedAndOptimalEntriesNeverShareABinding: unpruned bindings are
// shared per entry, and a degraded entry and the optimal one that replaces
// it are two entries, so a session on the fallback never draws optimal rows
// early and one that upgraded never draws fallback rows again. Beside it,
// Upgrade's lost-race rule under sharing: an Upgrade that read the degraded
// binding before a Rebind moved the session elsewhere must not bring the
// session back, while one whose session left and returned in between finds
// the same shared binding it read and upgrades it, which is right: the
// session is on the entry being replaced either way.
func TestDegradedAndOptimalEntriesNeverShareABinding(t *testing.T) {
	tree, optimal, priors := testWorld(t, 1)
	degraded := synthEntryAt(t, tree, optimal.Root, 5)
	degraded.Degraded = true
	elsewhere := synthEntryAt(t, tree, tree.LevelNodes(1)[1], 31)
	pol := policy.Policy{PrivacyLevel: 1}

	bind := func(e *core.ForestEntry) *mechanism.Binding {
		b, err := mechanism.Bind(mechanism.Config{Tree: tree, Source: e, Policy: pol, Priors: priors})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if d, o := bind(degraded), bind(optimal); d == o || !d.Source().IsDegraded() || o.Source().IsDegraded() {
		t.Fatal("the degraded entry and the optimal entry share a binding")
	}

	s, err := New(Config{Tree: tree, Entry: degraded, Policy: pol, Priors: priors, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rebind := func(e *core.ForestEntry) {
		if err := s.Rebind(Rebind{Entry: e}); err != nil {
			t.Fatal(err)
		}
	}
	upgraded, err := s.Upgrade(bindHook{optimal, func() { rebind(elsewhere) }}, 0)
	if err != nil || upgraded {
		t.Fatalf("an upgrade that lost to a rebind: %v, %v", upgraded, err)
	}
	if at := s.Bound(); at.Root != elsewhere.Root || at.Degraded {
		t.Fatalf("the lost upgrade overwrote the rebind: bound to %+v", at)
	}

	rebind(degraded)
	if !s.Bound().Degraded {
		t.Fatal("a session rebound onto the degraded entry does not report degraded")
	}
	upgraded, err = s.Upgrade(bindHook{optimal, func() { rebind(elsewhere); rebind(degraded) }}, 0)
	if err != nil || !upgraded {
		t.Fatalf("an upgrade whose session left and came back: %v, %v", upgraded, err)
	}
	if at := s.Bound(); at.Root != optimal.Root || at.Degraded {
		t.Fatalf("after the upgrade: bound to %+v", at)
	}
	if again, _ := s.Upgrade(optimal, 0); again {
		t.Fatal("an upgraded session upgraded again")
	}
	if bind(degraded) == bind(optimal) {
		t.Fatal("the upgrade merged the two entries' bindings")
	}
}

// TestUpgradeOfPrunedDegradedSessionKeepsItsPruneSet: a session bound to a
// degraded entry with a non-empty prune set upgrades onto the optimal entry
// with that set, not with none: its Bound and Pruned read as before, and
// from the position it reached it draws what a fresh session bound to the
// optimal entry with the same set draws.
func TestUpgradeOfPrunedDegradedSessionKeepsItsPruneSet(t *testing.T) {
	tree, optimal, priors := testWorld(t, 1)
	degraded := synthEntryAt(t, tree, optimal.Root, 5)
	degraded.Degraded = true
	pol := blockPolicy(1, 0)
	real := optimal.Leaves[0]
	pruned := []loctree.NodeID{optimal.Leaves[2], optimal.Leaves[4]}
	cfg := Config{Tree: tree, Entry: degraded, Delta: len(pruned), Policy: pol,
		Pruned: pruned, Anchor: real, Priors: priors, Seed: 11}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drawN(s, real, 5); err != nil {
		t.Fatal(err)
	}
	before := s.Bound()
	if before.Pruned != len(pruned) || !before.Degraded {
		t.Fatalf("before the upgrade: bound to %+v", before)
	}

	upgraded, err := s.Upgrade(optimal, len(pruned))
	if err != nil || !upgraded {
		t.Fatalf("upgrade: %v, %v", upgraded, err)
	}
	want := before
	want.Degraded = false
	if after := s.Bound(); after != want {
		t.Fatalf("after the upgrade: bound to %+v, want %+v", after, want)
	}
	if got := s.Pruned(); !slices.Equal(got, pruned) {
		t.Fatalf("after the upgrade: pruned %v, want %v", got, pruned)
	}

	cfg.Entry = optimal
	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh.FastForward(s.Draws())
	got, err := drawN(s, real, 40)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := drawN(fresh, real, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, ref) {
		t.Fatalf("upgraded session drew %v, a fresh one on the optimal entry %v", got, ref)
	}
	for _, r := range got {
		if slices.Contains(pruned, r) {
			t.Fatalf("upgraded session reported pruned cell %v", r)
		}
	}
}
