package registry

import (
	"context"
	"errors"
	"runtime/debug"
	"testing"
	"time"

	"corgi/internal/budget"
	"corgi/internal/clientdraw"
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
	sh, prefs, away, root, drop := homeUser(t, reg)
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

// homeUser finds a user of mobilityBenchWorld's region with a home and
// returns a "home = false" request for them (the delta-1 entry of the home's
// K=7 subtree already solved), the subtree's other cells, its root, and the
// drop flags of the home cell over its leaves.
func homeUser(t *testing.T, reg *Registry) (sh *Shard, prefs ReportRequest, away []hexgrid.Coord, root loctree.NodeID, drop []bool) {
	t.Helper()
	sh, err := reg.Shard(context.Background(), "bench-mob")
	if err != nil {
		t.Fatal(err)
	}
	md, err := sh.Metadata()
	if err != nil {
		t.Fatal(err)
	}
	tree := sh.Server.Tree()
	drop = make([]bool, 7)
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
	prefs = ReportRequest{Region: "bench-mob", UID: int64(uid), Seed: 1,
		Policy: policy.Policy{PrivacyLevel: 1, Preferences: []policy.Predicate{pred}}}
	for _, c := range away[:2] { // solve the delta-1 entry outside any measurement
		prefs.Cell = c
		res, err := reg.Report(context.Background(), prefs)
		if err != nil {
			t.Fatal(err)
		}
		if res.Pruned != 1 {
			t.Fatalf("pruned %d cells, want the home cell alone", res.Pruned)
		}
	}
	return sh, prefs, away, root, drop
}

// leaseAllocs measures a lease renewal's allocations on the server side:
// the request carries the previous grant's token, the session is resident
// and the user has not moved.
func leaseAllocs(t *testing.T, reg *Registry, req LeaseRequest) float64 {
	t.Helper()
	ctx := context.Background()
	grant, err := reg.Lease(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(200, func() {
		req.Token = grant.Token
		if grant, err = reg.Lease(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
}

// TestLeaseAllocationBudgets is the lease path's side of the budgets above.
// A renewal holds what outlives it and nothing else: the grant, the encoded
// bundle, the token, the verified token's region string, and the bundle
// with its row headers on the way to the encoder (a pruned session adds the
// one array its renormalized rows are computed into). No row is copied: a
// K=49 renewal costs what a K=7 one does.
// On the device, a renewal decodes into one arena and builds one alias
// table for its first draw; leaving the subtree costs the typed error.
func TestLeaseAllocationBudgets(t *testing.T) {
	if raceon.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	reg, leafA, leafB := mobilityBenchWorld(t, Options{})
	k7 := LeaseRequest{Region: "bench-mob", Cell: leafA.Coord, UID: 1, Seed: 1, Draws: 32,
		Policy: policy.Policy{PrivacyLevel: 1}}
	if got := leaseAllocs(t, reg, k7); got > 8 {
		t.Errorf("K=7 plain renewal: %v allocs/op, budget 8", got)
	}
	k49 := k7
	k49.UID, k49.Policy = 2, policy.Policy{PrivacyLevel: 2}
	if got := leaseAllocs(t, reg, k49); got > 8 {
		t.Errorf("K=49 plain renewal: %v allocs/op, budget 8", got)
	}
	sh, prefs, away, _, _ := homeUser(t, reg)
	pruned := LeaseRequest{Region: prefs.Region, Cell: away[0], UID: prefs.UID, Seed: prefs.Seed, Draws: 32,
		Policy: prefs.Policy}
	if got := leaseAllocs(t, reg, pruned); got > 12 {
		t.Errorf("home = false renewal: %v allocs/op, budget 12", got)
	}

	kr, err := budget.NewKeyring([]byte("alloc-budget-secret"))
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	tok := budget.LeaseToken{UID: 1, Region: "bench-mob", Root: leafA, Eps: 15, DrawCap: 32,
		ExpiresAt: now.Add(time.Minute).UnixMilli()}
	var signed []byte
	if got := testing.AllocsPerRun(200, func() { signed = kr.Sign(tok) }); got != 1 {
		t.Errorf("Keyring.Sign: %v allocs/op, want the token alone", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, err := kr.Verify(signed, now); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Errorf("Keyring.Verify: %v allocs/op, budget 1 (the region string)", got)
	}

	// The device: renew, draw once, then step outside the leased subtree.
	// Every renewal needs the grant after its own, or the client would fall
	// back to re-seeding its stream; AllocsPerRun calls 1 + 200 times.
	tree := sh.Server.Tree()
	ctx := context.Background()
	grants := make([]*LeaseGrant, 202)
	for i := range grants {
		if grants[i], err = reg.Lease(ctx, k7); err != nil {
			t.Fatal(err)
		}
		k7.Token = grants[i].Token
	}
	lease, err := clientdraw.Open(tree, grants[0].Bundle, grants[0].Token)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]loctree.NodeID, 1)
	next := grants[1:]
	if got := testing.AllocsPerRun(200, func() {
		if lease, err = lease.Renew(next[0].Bundle, next[0].Token); err != nil {
			t.Fatal(err)
		}
		next = next[1:]
		if err := lease.DrawCellNInto(leafA, out); err != nil {
			t.Fatal(err)
		}
	}); got > 16 {
		t.Errorf("client renew + first draw, K=7: %v allocs/op, budget 16", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		if err := lease.DrawCellNInto(leafB, out); !errors.Is(err, clientdraw.ErrOutsideSubtree) {
			t.Fatalf("draw outside the subtree: %v", err)
		}
	}); got > 1 {
		t.Errorf("refused draw outside the subtree: %v allocs/op, budget 1", got)
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
	// A capacity no other report in this process asks for.
	const count = 1 << 12
	reg, err := New(fastSpecs("bufs"), Options{MaxReportCount: count})
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
