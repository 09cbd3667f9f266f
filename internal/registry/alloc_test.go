package registry

import (
	"context"
	"runtime/debug"
	"testing"

	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
	"corgi/internal/policy"
	"corgi/internal/raceon"
	"corgi/internal/sample"
)

// reportAllocs measures Report's allocations per call over a cycle of
// cells, releasing every result as the transports do.
func reportAllocs(t *testing.T, reg *Registry, req ReportRequest, cells ...hexgrid.Coord) float64 {
	t.Helper()
	ctx := context.Background()
	i := 0
	return testing.AllocsPerRun(200, func() {
		req.Cell = cells[i%len(cells)]
		i++
		res, err := reg.Report(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	})
}

// TestReportAllocationBudgets pins the report path's allocations per
// temperature. The budgets are the design, not a measurement to loosen: a
// warm report allocates its result and nothing else; a plain re-anchor adds
// one binding and its alias-row slice, every other index being the entry's;
// a pruned re-anchor adds the prune set and the binding's exactly sized
// position slices. The renormalized alias table the first draw after a
// pruned re-anchor builds is sample.NewSubset's own cost, measured here on
// the same row and set aside: no budget on the re-anchor can shrink it.
func TestReportAllocationBudgets(t *testing.T) {
	if raceon.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	reg, leafA, leafB := mobilityBenchWorld(t, Options{})
	plain := ReportRequest{Region: "bench-mob", UID: 1, Seed: 1, Policy: policy.Policy{PrivacyLevel: 1}}

	if got := reportAllocs(t, reg, plain, leafA.Coord); got > 1 {
		t.Errorf("warm report: %v allocs/op, budget 1", got)
	}
	// leafA and leafB sit in different K=7 subtrees: every call crosses.
	if got := reportAllocs(t, reg, plain, leafA.Coord, leafB.Coord); got > 3 {
		t.Errorf("preference-free re-anchor: %v allocs/op, budget 3", got)
	}

	// A user alternating between two cells of the subtree that holds their
	// home: "home = false" re-evaluates at every move and prunes one cell.
	sh, err := reg.Shard(context.Background(), "bench-mob")
	if err != nil {
		t.Fatal(err)
	}
	md, err := sh.Metadata()
	if err != nil {
		t.Fatal(err)
	}
	tree := sh.Server.Tree()
	var away []hexgrid.Coord
	var root loctree.NodeID
	drop := make([]bool, 7)
	uid := -1
	for u := 0; u < 500 && uid < 0; u++ {
		home, ok := md.HomeLeaf[u]
		if !ok {
			continue
		}
		root, _ = tree.AncestorAt(home, 1)
		for i, l := range tree.LeavesUnder(root) {
			if drop[i] = l == home; !drop[i] {
				away = append(away, l.Coord)
			}
		}
		uid = u
	}
	if uid < 0 {
		t.Fatal("no user with a home; synthetic metadata changed?")
	}
	pred, err := policy.ParsePredicate("home = false")
	if err != nil {
		t.Fatal(err)
	}
	prefs := ReportRequest{Region: "bench-mob", UID: int64(uid), Seed: 1,
		Policy: policy.Policy{PrivacyLevel: 1, Preferences: []policy.Predicate{pred}}}
	for _, c := range away[:2] { // solve the delta-1 entry outside the measurement
		prefs.Cell = c
		res, err := reg.Report(context.Background(), prefs)
		if err != nil {
			t.Fatal(err)
		}
		if res.Pruned != 1 {
			t.Fatalf("pruned %d cells, want the home cell alone", res.Pruned)
		}
	}
	entry, err := sh.Server.ServeEntryCtx(context.Background(), root, 1)
	if err != nil {
		t.Fatal(err)
	}
	table := testing.AllocsPerRun(200, func() {
		if _, _, err := sample.NewSubset(entry.MatrixRow(0), drop); err != nil {
			t.Fatal(err)
		}
	})
	if got := reportAllocs(t, reg, prefs, away[0], away[1]) - table; got > 10 {
		t.Errorf("home = false re-anchor: %v allocs/op beside the %v of its alias table, budget 10", got, table)
	}
}

// TestReportReturnsDrawBuffersOnError: a report that fails after taking
// its pooled draw buffers must put them back. The failing step here is the
// entry fetch of a re-anchor under a cancelled context.
func TestReportReturnsDrawBuffersOnError(t *testing.T) {
	if raceon.Enabled {
		t.Skip("under the race detector sync.Pool drops a share of what is Put")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection would empty the pool
	reg, err := New(fastSpecs("bufs"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sh, err := reg.Shard(ctx, "bufs")
	if err != nil {
		t.Fatal(err)
	}
	tree := sh.Server.Tree()
	roots := tree.LevelNodes(1)
	const count = 1 << 12 // a capacity no other report in this process asks for
	req := ReportRequest{Region: "bufs", Cell: tree.LeavesUnder(roots[0])[0].Coord, UID: 1, Seed: 1,
		Policy: policy.Policy{PrivacyLevel: 1}, Count: count}
	res, err := reg.Report(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	res.Release()

	// The user moves to a subtree nobody has solved; the solve cannot start.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	req.Cell = tree.LeavesUnder(roots[1])[0].Coord
	if _, err := reg.Report(cancelled, req); err == nil {
		t.Fatal("a re-anchor onto an unsolved entry succeeded under a cancelled context")
	}
	bufs := drawBufsPool.Get().(*drawBufs)
	defer drawBufsPool.Put(bufs)
	if cap(bufs.nodes) < count {
		t.Fatalf("the failed report dropped its pooled buffers: pool returned capacity %d", cap(bufs.nodes))
	}
}
