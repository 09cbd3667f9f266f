package registry

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"corgi/internal/budget"
	"corgi/internal/gowalla"
	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
	"corgi/internal/policy"
)

func reportTestRegistry(t *testing.T) *Registry {
	t.Helper()
	reg, err := New(fastSpecs("rep-a", "rep-b"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func centerCell(t *testing.T, reg *Registry, region string) hexgrid.Coord {
	t.Helper()
	sh, err := reg.Shard(context.Background(), region)
	if err != nil {
		t.Fatal(err)
	}
	tree := sh.Server.Tree()
	leaf, ok := tree.Locate(sh.Spec.Center(), 0)
	if !ok {
		t.Fatal("region center not in tree")
	}
	return leaf.Coord
}

func TestReportBasicAndDeterministic(t *testing.T) {
	reg := reportTestRegistry(t)
	ctx := context.Background()
	req := ReportRequest{
		Region: "rep-a",
		Cell:   centerCell(t, reg, "rep-a"),
		UID:    7,
		Policy: policy.Policy{PrivacyLevel: 1},
		Seed:   42,
		Count:  8,
	}
	res, err := reg.Report(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 8 {
		t.Fatalf("drew %d reports, want 8", len(res.Reports))
	}
	if res.Region != "rep-a" || res.PrecisionLevel != 0 {
		t.Fatalf("result metadata wrong: %+v", res)
	}
	sh, _ := reg.Shard(ctx, "rep-a")
	for _, n := range res.Reports {
		if n.Level != 0 || !sh.Server.Tree().Contains(n) {
			t.Fatalf("report %v not a tree leaf", n)
		}
	}

	// A fresh registry with the same inputs replays the same sequence —
	// the determinism the remote/local equivalence guarantee needs.
	reg2 := reportTestRegistry(t)
	res2, err := reg2.Report(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Reports {
		if res.Reports[i] != res2.Reports[i] {
			t.Fatalf("replayed draw %d differs: %v vs %v", i, res.Reports[i], res2.Reports[i])
		}
	}

	// Repeat requests reuse the resident session and advance its stream.
	if _, err := reg.Report(ctx, req); err != nil {
		t.Fatal(err)
	}
	if st := reg.AggregateSessionStats(); st.Hits == 0 || st.Created != 1 || st.Draws != 16 {
		t.Fatalf("session stats after reuse: %+v", st)
	}
}

func TestReportWithPreferences(t *testing.T) {
	reg := reportTestRegistry(t)
	ctx := context.Background()
	sh, err := reg.Shard(ctx, "rep-a")
	if err != nil {
		t.Fatal(err)
	}
	md, err := sh.Metadata()
	if err != nil {
		t.Fatal(err)
	}
	// Pick a user whose inferred home lies in the level-2 subtree but is
	// not the cell they are standing in: "home != true" then prunes
	// exactly one location.
	tree := sh.Server.Tree()
	cell := centerCell(t, reg, "rep-a")
	leaf := loctree.NodeID{Level: 0, Coord: cell}
	root, _ := tree.AncestorAt(leaf, 2)
	inRange := map[loctree.NodeID]bool{}
	for _, l := range tree.LeavesUnder(root) {
		inRange[l] = true
	}
	uid := -1
	for u := 0; u < 500; u++ {
		if h, ok := md.HomeLeaf[u]; ok && inRange[h] && h != leaf {
			uid = u
			break
		}
	}
	if uid < 0 {
		t.Fatal("no user with a home in range; synthetic metadata changed?")
	}
	pred, err := policy.ParsePredicate("home != true")
	if err != nil {
		t.Fatal(err)
	}
	req := ReportRequest{
		Region: "rep-a",
		Cell:   cell,
		UID:    int64(uid),
		Policy: policy.Policy{PrivacyLevel: 2, PrecisionLevel: 1, Preferences: []policy.Predicate{pred}},
		Seed:   1,
		Count:  4,
	}
	res, err := reg.Report(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pruned != 1 {
		t.Fatalf("pruned %d, want exactly the user's home cell", res.Pruned)
	}
	for _, n := range res.Reports {
		if n.Level != 1 {
			t.Fatalf("precision-1 policy reported level-%d node %v", n.Level, n)
		}
	}
}

func TestReportBadRequests(t *testing.T) {
	reg := reportTestRegistry(t)
	ctx := context.Background()
	good := centerCell(t, reg, "rep-a")

	cases := []ReportRequest{
		{Region: "nope", Cell: good, Policy: policy.Policy{PrivacyLevel: 1}},
		{Region: "rep-a", Cell: hexgrid.Coord{Q: 9999, R: 9999}, Policy: policy.Policy{PrivacyLevel: 1}},
		{Region: "rep-a", Cell: good, Policy: policy.Policy{PrivacyLevel: 99}},
		{Region: "rep-a", Cell: good, Policy: policy.Policy{PrivacyLevel: 1, PrecisionLevel: 1}},
	}
	for i, req := range cases {
		_, err := reg.Report(ctx, req)
		if err == nil {
			t.Fatalf("case %d accepted: %+v", i, req)
		}
		if i == 0 {
			if !errors.Is(err, ErrUnknownRegion) {
				t.Fatalf("unknown region not classified: %v", err)
			}
		} else if !errors.Is(err, ErrBadReport) {
			t.Fatalf("case %d not classified as bad request: %v", i, err)
		}
	}
}

// TestReportMovedUserReanchorsPreferences: location-relative preferences
// (the "distance" attribute) anchor at the true cell, so a user who moved
// within the same subtree must get a freshly pruned binding — the session
// re-anchors in place rather than being keyed to where they used to stand.
func TestReportMovedUserReanchorsPreferences(t *testing.T) {
	reg := reportTestRegistry(t)
	ctx := context.Background()
	sh, err := reg.Shard(ctx, "rep-a")
	if err != nil {
		t.Fatal(err)
	}
	tree := sh.Server.Tree()
	root := tree.LevelNodes(1)[0]
	leaves := tree.LeavesUnder(root)

	// Expected prune counts from geometry: leaves farther than 0.15 km
	// from where the user stands fail "distance <= 0.15".
	const cutoff = 0.15
	prunedFrom := func(at loctree.NodeID) int {
		n := 0
		for _, l := range leaves {
			if tree.Distance(at, l) > cutoff {
				n++
			}
		}
		return n
	}
	// Pick two cells with different prune sets (the subtree's central
	// leaf sees everything within 0.1 km; a rim leaf does not).
	var cellA, cellB loctree.NodeID
	found := false
	for _, a := range leaves {
		for _, b := range leaves {
			if a != b && prunedFrom(a) != prunedFrom(b) {
				cellA, cellB, found = a, b, true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Fatal("no leaf pair with distinct distance prune sets; geometry changed?")
	}

	pred, err := policy.ParsePredicate("distance <= 0.15")
	if err != nil {
		t.Fatal(err)
	}
	mkReq := func(cell loctree.NodeID) ReportRequest {
		return ReportRequest{
			Region: "rep-a",
			Cell:   cell.Coord,
			UID:    5,
			Policy: policy.Policy{PrivacyLevel: 1, Preferences: []policy.Predicate{pred}},
			Seed:   2,
			Count:  1,
		}
	}
	resA, err := reg.Report(ctx, mkReq(cellA))
	if err != nil {
		t.Fatal(err)
	}
	if resA.Pruned != prunedFrom(cellA) {
		t.Fatalf("cell A pruned %d, geometry says %d", resA.Pruned, prunedFrom(cellA))
	}
	resB, err := reg.Report(ctx, mkReq(cellB))
	if err != nil {
		t.Fatal(err)
	}
	if resB.Pruned != prunedFrom(cellB) {
		t.Fatalf("moved user pruned %d, geometry at the new cell says %d (stale binding reused?)",
			resB.Pruned, prunedFrom(cellB))
	}
	if resA.Reanchored || !resB.Reanchored {
		t.Fatalf("re-anchor flags wrong: first %v (want false), moved %v (want true)",
			resA.Reanchored, resB.Reanchored)
	}
	// One session, re-anchored in place: the user's RNG stream survives the
	// move instead of fragmenting into per-anchor sessions.
	if st := reg.AggregateSessionStats(); st.Created != 1 || st.Reanchors != 1 {
		t.Fatalf("moved preference-bearing user must re-anchor its one session: %+v", st)
	}
}

// TestReportMissingAttribute: a preference over an attribute the region's
// metadata does not define is the caller's fault.
func TestReportMissingAttribute(t *testing.T) {
	reg := reportTestRegistry(t)
	pred, _ := policy.ParsePredicate("nonexistent = true")
	_, err := reg.Report(context.Background(), ReportRequest{
		Region: "rep-a",
		Cell:   centerCell(t, reg, "rep-a"),
		Policy: policy.Policy{PrivacyLevel: 1, Preferences: []policy.Predicate{pred}},
	})
	if !errors.Is(err, ErrBadReport) {
		t.Fatalf("missing attribute not a bad request: %v", err)
	}
}

// twoSubtreeCells picks one leaf from each of two distinct privacy-level-1
// subtrees of a region — a minimal "trajectory" that forces a re-anchor.
func twoSubtreeCells(t *testing.T, reg *Registry, region string) (hexgrid.Coord, hexgrid.Coord) {
	t.Helper()
	sh, err := reg.Shard(context.Background(), region)
	if err != nil {
		t.Fatal(err)
	}
	tree := sh.Server.Tree()
	roots := tree.LevelNodes(1)
	if len(roots) < 2 {
		t.Fatal("region has fewer than two level-1 subtrees")
	}
	a := tree.LeavesUnder(roots[0])[0]
	b := tree.LeavesUnder(roots[1])[0]
	return a.Coord, b.Coord
}

// TestReportTrajectoryDeterministicAcrossReanchor is the mobility
// tentpole's contract: one user's move sequence across subtrees re-anchors
// their single session (no stream reset), and a fresh registry replaying
// the same moves reproduces the identical draw sequence.
func TestReportTrajectoryDeterministicAcrossReanchor(t *testing.T) {
	ctx := context.Background()
	mkReq := func(cell hexgrid.Coord) ReportRequest {
		return ReportRequest{
			Region: "rep-a", Cell: cell, UID: 11,
			Policy: policy.Policy{PrivacyLevel: 1}, Seed: 5, Count: 2,
		}
	}
	run := func(reg *Registry) ([]loctree.NodeID, []bool) {
		cellA, cellB := twoSubtreeCells(t, reg, "rep-a")
		var draws []loctree.NodeID
		var moved []bool
		for _, cell := range []hexgrid.Coord{cellA, cellA, cellB, cellA} {
			res, err := reg.Report(ctx, mkReq(cell))
			if err != nil {
				t.Fatal(err)
			}
			draws = append(draws, res.Reports...)
			moved = append(moved, res.Reanchored)
		}
		return draws, moved
	}

	reg1 := reportTestRegistry(t)
	seq1, moved1 := run(reg1)
	wantMoved := []bool{false, false, true, true} // A->A warm, A->B and B->A re-anchor
	for i, m := range moved1 {
		if m != wantMoved[i] {
			t.Fatalf("re-anchor flags %v, want %v", moved1, wantMoved)
		}
	}
	st := reg1.AggregateSessionStats()
	if st.Created != 1 || st.Reanchors != 2 {
		t.Fatalf("trajectory must ride one session with two re-anchors: %+v", st)
	}

	seq2, _ := run(reportTestRegistry(t))
	if len(seq1) != len(seq2) {
		t.Fatalf("replay lengths differ: %d vs %d", len(seq1), len(seq2))
	}
	for i := range seq1 {
		if seq1[i] != seq2[i] {
			t.Fatalf("trajectory replay diverged at draw %d: %v vs %v", i, seq1[i], seq2[i])
		}
	}
}

// TestReportBudgetEnforced pins the acceptance boundary: with a window cap
// of exactly n draws' epsilon, draw n succeeds, draw n+1 is rejected with
// ErrBudgetExhausted, and the rejection does not perturb the user's
// deterministic stream.
func TestReportBudgetEnforced(t *testing.T) {
	specs := fastSpecs("rep-a")
	eps := specs[0].withDefaults().Epsilon
	mk := func(opts Options) *Registry {
		reg, err := New(fastSpecs("rep-a"), opts)
		if err != nil {
			t.Fatal(err)
		}
		return reg
	}
	reg := mk(Options{Budget: budget.Config{LimitEps: 3 * eps, Window: time.Hour}})
	ctx := context.Background()
	req := ReportRequest{
		Region: "rep-a", Cell: centerCell(t, reg, "rep-a"), UID: 9,
		Policy: policy.Policy{PrivacyLevel: 1}, Seed: 4, Count: 1,
	}
	var capped []loctree.NodeID
	for i := 0; i < 3; i++ {
		res, err := reg.Report(ctx, req)
		if err != nil {
			t.Fatalf("draw %d within budget rejected: %v", i+1, err)
		}
		if !res.Budgeted || res.EpsSpent != eps {
			t.Fatalf("budget echo wrong: %+v", res)
		}
		if want := eps * float64(2-i); res.EpsRemaining != want {
			t.Fatalf("draw %d remaining %v, want %v", i+1, res.EpsRemaining, want)
		}
		capped = append(capped, res.Reports...)
	}
	if _, err := reg.Report(ctx, req); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("over-budget draw: want ErrBudgetExhausted, got %v", err)
	}
	// A different user is unaffected.
	other := req
	other.UID = 10
	if _, err := reg.Report(ctx, other); err != nil {
		t.Fatalf("other user capped by someone else's spend: %v", err)
	}
	st := reg.AggregateBudgetStats()
	if st.Rejections != 1 || st.Charges != 4 { // 3 for uid 9 + 1 for uid 10
		t.Fatalf("budget stats: %+v", st)
	}

	// Budget rejections must not consume from the RNG stream: an uncapped
	// registry replaying the same requests (including the one that was
	// rejected above) yields the same first three draws.
	free := mk(Options{})
	var uncapped []loctree.NodeID
	for i := 0; i < 3; i++ {
		res, err := free.Report(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Budgeted {
			t.Fatal("accounting disabled but result claims budgeted")
		}
		uncapped = append(uncapped, res.Reports...)
	}
	for i := range capped {
		if capped[i] != uncapped[i] {
			t.Fatalf("budget accounting perturbed the stream at draw %d", i)
		}
	}
}

// TestReportConcurrentMovers races two requests on ONE (uid, seed, policy)
// stream from different subtrees: the shared session re-anchors back and
// forth, and every request must still be served (the check-then-draw pair
// retries on the concurrent-rebind race instead of surfacing a spurious
// rejection).
func TestReportConcurrentMovers(t *testing.T) {
	reg := reportTestRegistry(t)
	ctx := context.Background()
	cellA, cellB := twoSubtreeCells(t, reg, "rep-a")
	mkReq := func(cell hexgrid.Coord) ReportRequest {
		return ReportRequest{
			Region: "rep-a", Cell: cell, UID: 77,
			Policy: policy.Policy{PrivacyLevel: 1}, Seed: 8,
		}
	}
	// Warm both subtree entries so the race is over session state only.
	for _, c := range []hexgrid.Coord{cellA, cellB} {
		if _, err := reg.Report(ctx, mkReq(c)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		cell := cellA
		if g == 1 {
			cell = cellB
		}
		wg.Add(1)
		go func(cell hexgrid.Coord) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := reg.Report(ctx, mkReq(cell)); err != nil {
					t.Errorf("racing mover rejected: %v", err)
					return
				}
			}
		}(cell)
	}
	wg.Wait()
	if st := reg.AggregateSessionStats(); st.Created != 1 || st.Draws != 402 {
		t.Fatalf("racing movers must share one fully-served stream: %+v", st)
	}
}

// TestReportConcurrentMoversResultsDescribeTheirOwnBinding races two movers
// on one (uid, seed, policy) stream whose preferences prune the user's home
// in one subtree and nothing in the other. The shared session re-anchors
// under each of them between any two steps of the other, so a result that
// read its prune count in a second look at the session would now and then
// report the other mover's: Pruned must be the count of the binding the
// draws came from, which SubtreeRoot names (run under -race).
func TestReportConcurrentMoversResultsDescribeTheirOwnBinding(t *testing.T) {
	reg, _, _ := mobilityBenchWorld(t, Options{})
	ctx := context.Background()
	sh, prefs, away, home, _ := homeUser(t, reg)
	tree := sh.Server.Tree()
	var other loctree.NodeID
	for _, r := range tree.LevelNodes(1) {
		if r != home {
			other = r
			break
		}
	}
	cells := map[loctree.NodeID]hexgrid.Coord{home: away[0], other: tree.LeavesUnder(other)[0].Coord}
	pruned := map[loctree.NodeID]int{home: 1, other: 0}
	for root, cell := range cells { // both entries solved before the race
		req := prefs
		req.Cell = cell
		res, err := reg.Report(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if res.SubtreeRoot != root || res.Pruned != pruned[root] {
			t.Fatalf("cell %v: served from %v pruning %d, want %v pruning %d", cell, res.SubtreeRoot, res.Pruned, root, pruned[root])
		}
		res.Release()
	}
	var wg sync.WaitGroup
	for root, cell := range cells {
		wg.Add(1)
		go func(root loctree.NodeID, cell hexgrid.Coord) {
			defer wg.Done()
			req := prefs
			req.Cell = cell
			for i := 0; i < 500; i++ {
				res, err := reg.Report(ctx, req)
				if err != nil {
					t.Errorf("racing mover rejected: %v", err)
					return
				}
				gotRoot, got := res.SubtreeRoot, res.Pruned
				res.Release()
				if gotRoot != root || got != pruned[root] {
					t.Errorf("report %d from %v: served from %v with %d pruned, its binding prunes %d", i, cell, gotRoot, got, pruned[root])
					return
				}
			}
		}(root, cell)
	}
	wg.Wait()
}

// TestMetadataRetriesAfterFailure: a uniform-priors region whose check-in
// file is missing at its first preference-bearing report fails that report,
// and once the file is written the next report builds the metadata and is
// served. Concurrent first callers share one build, and a built metadata
// is kept when the file goes away again.
func TestMetadataRetriesAfterFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "checkins.txt")
	specs := fastSpecs("meta")
	specs[0].CheckinsPath = path
	reg, err := New(specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := reg.Shard(context.Background(), "meta")
	if err != nil {
		t.Fatal(err)
	}
	pred, _ := policy.ParsePredicate("home = false")
	req := ReportRequest{
		Region: "meta",
		Cell:   centerCell(t, reg, "meta"),
		Policy: policy.Policy{PrivacyLevel: 1, Preferences: []policy.Predicate{pred}},
		Seed:   3,
	}
	if _, err := reg.Report(context.Background(), req); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("report before the check-in file exists = %v, want fs.ErrNotExist", err)
	}
	ds, err := gowalla.Generate(gowalla.GenConfig{
		Seed: 5, NumCheckIns: 600, BBox: treeBBox(sh.Server.Tree(), sh.Spec.LeafSpacingKm),
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := gowalla.Save(f, ds.CheckIns); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Report(context.Background(), req); err != nil {
		t.Fatalf("report after the check-in file was written: %v", err)
	}
	md, err := sh.Metadata()
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent first callers on a fresh shard join one build.
	fresh, err := New(specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	freshSh, err := fresh.Shard(context.Background(), "meta")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*gowalla.Metadata, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = freshSh.Metadata()
		}(i)
	}
	wg.Wait()
	for i, m := range got {
		if m == nil || m != got[0] {
			t.Fatalf("concurrent caller %d got metadata %p, caller 0 %p", i, m, got[0])
		}
	}

	// Once built, the metadata no longer reads the file.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if again, err := sh.Metadata(); err != nil || again != md {
		t.Errorf("built metadata not kept: %p, %v; want %p", again, err, md)
	}
}
