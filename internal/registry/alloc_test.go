package registry

import (
	"bytes"
	"context"
	"errors"
	"runtime/debug"
	"strings"
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
// temperature. The budgets are the design, not a measurement to loosen. A
// released report allocates nothing while the user's preferences prune
// nothing: the result is the pool's, and a re-anchor takes the binding the
// entry already holds, whether the policy has no preferences or has some
// that remove no cell of the new subtree. A pruned re-anchor allocates the
// prune set and a binding of its own with exactly sized position slices.
// The renormalized alias table the first draw after a pruned re-anchor
// builds is sample.NewSubset's own cost, measured here on the same row and
// set aside: no budget on the re-anchor can shrink it.
func TestReportAllocationBudgets(t *testing.T) {
	if raceon.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	reg, leafA, leafB := mobilityBenchWorld(t, Options{})
	plain := ReportRequest{Region: "bench-mob", UID: 1, Seed: 1, Policy: policy.Policy{PrivacyLevel: 1}}

	if got := reportAllocs(t, reg, plain, leafA.Coord); got > 0 {
		t.Errorf("warm report: %v allocs/op, budget 0", got)
	}
	// leafA and leafB sit in different K=7 subtrees: every call crosses.
	if got := reportAllocs(t, reg, plain, leafA.Coord, leafB.Coord); got > 0 {
		t.Errorf("preference-free re-anchor: %v allocs/op, budget 0", got)
	}
	// Every cell has a check-in count, so the preference is evaluated at
	// every move and removes nothing.
	pred, err := policy.ParsePredicate("checkins > -1")
	if err != nil {
		t.Fatal(err)
	}
	keepAll := ReportRequest{Region: "bench-mob", UID: 1, Seed: 1,
		Policy: policy.Policy{PrivacyLevel: 1, Preferences: []policy.Predicate{pred}}}
	if got := reportAllocs(t, reg, keepAll, leafA.Coord, leafB.Coord); got > 0 {
		t.Errorf("re-anchor under preferences that prune nothing: %v allocs/op, budget 0", got)
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
	if got := reportAllocs(t, reg, prefs, away[0], away[1]) - table; got > 9 {
		t.Errorf("home = false re-anchor: %v allocs/op beside the %v of its alias table, budget 9", got, table)
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
// and the user has not moved. Every grant is released once its token is
// copied out, as the stream server releases it once it is encoded.
func leaseAllocs(t *testing.T, reg *Registry, req LeaseRequest) float64 {
	t.Helper()
	ctx := context.Background()
	var token []byte
	renew := func() {
		req.Token = token
		grant, err := reg.Lease(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		token = append(token[:0], grant.Token...)
		grant.Release()
	}
	renew()
	return testing.AllocsPerRun(200, renew)
}

// TestLeaseAllocationBudgets is the lease path's side of the budgets above.
// A released renewal allocates nothing: the grant is the pool's, with the
// buffers the token and the bundle are written into, the row headers of
// the detached bundle and the arena a pruned session's renormalized rows
// are computed into, and the verified token names the shard's own region
// string. No row is copied: a K=49 renewal costs what a K=7 one does.
// On the device, a renewal decodes into the storage of the lease it
// retires, rebuilds its first alias table into that lease's tables and
// parses a token naming the retired lease's region: it allocates the new
// Lease alone. Leaving the subtree costs nothing past the first refusal at
// a cell, which the lease keeps.
func TestLeaseAllocationBudgets(t *testing.T) {
	if raceon.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	reg, leafA, leafB := mobilityBenchWorld(t, Options{})
	k7 := LeaseRequest{Region: "bench-mob", Cell: leafA.Coord, UID: 1, Seed: 1, Draws: 32,
		Policy: policy.Policy{PrivacyLevel: 1}}
	if got := leaseAllocs(t, reg, k7); got > 0 {
		t.Errorf("K=7 plain renewal: %v allocs/op, budget 0", got)
	}
	k49 := k7
	k49.UID, k49.Policy = 2, policy.Policy{PrivacyLevel: 2}
	if got := leaseAllocs(t, reg, k49); got > 0 {
		t.Errorf("K=49 plain renewal: %v allocs/op, budget 0", got)
	}
	sh, prefs, away, _, _ := homeUser(t, reg)
	pruned := LeaseRequest{Region: prefs.Region, Cell: away[0], UID: prefs.UID, Seed: prefs.Seed, Draws: 32,
		Policy: prefs.Policy}
	if got := leaseAllocs(t, reg, pruned); got > 0 {
		t.Errorf("home = false renewal: %v allocs/op, budget 0", got)
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
	buf := make([]byte, 0, cap(signed)) // the room Sign gives a token
	if got := testing.AllocsPerRun(200, func() {
		if out := kr.AppendSign(buf, tok); !bytes.Equal(out, signed) {
			t.Fatalf("AppendSign wrote %x, Sign %x", out, signed)
		}
	}); got != 0 {
		t.Errorf("Keyring.AppendSign into a buffer with room: %v allocs/op, budget 0", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, err := kr.Verify(signed, now, tok.Region); err != nil {
			t.Fatal(err)
		}
	}); got > 0 {
		t.Errorf("Keyring.Verify of a token naming the expected region: %v allocs/op, budget 0", got)
	}

	// The device: renew, draw once, then step outside the leased subtree.
	// Every renewal needs the grant after its own, or the client would fall
	// back to re-seeding its stream; AllocsPerRun calls 1 + 200 times. The
	// grants are kept, not released: the device holds their tokens.
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
	}); got > 1 {
		t.Errorf("client renew + first draw, K=7: %v allocs/op, budget 1 (the Lease)", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		if err := lease.DrawCellNInto(leafB, out); !errors.Is(err, clientdraw.ErrOutsideSubtree) {
			t.Fatalf("draw outside the subtree: %v", err)
		}
	}); got > 0 {
		t.Errorf("refused draw outside the subtree: %v allocs/op, budget 0", got)
	}
}

// TestReportReturnsPooledResultOnError: Report takes its result from the
// pool before it charges, so every failure after that must put it back.
// The exits are a budget rejection, a re-anchor whose entry fetch fails (a
// cancelled context), and a refused draw: here the user's own cell, which
// their preferences pruned; a row degenerate after pruning leaves by the
// same return.
func TestReportReturnsPooledResultOnError(t *testing.T) {
	if raceon.Enabled {
		t.Skip("under the race detector sync.Pool drops a share of what is Put")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection would empty the pool
	// A capacity no other report in this process asks for.
	const count = 1 << 12
	reg, err := New(fastSpecs("bench-mob"), Options{
		MaxReportCount: count,
		Budget:         budget.Config{LimitEps: 15 * (count + 8), Window: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sh, err := reg.Shard(ctx, "bench-mob")
	if err != nil {
		t.Fatal(err)
	}
	if sh.Spec.Epsilon != 15 {
		t.Fatalf("epsilon %v: the budget above assumes 15", sh.Spec.Epsilon)
	}
	tree := sh.Server.Tree()
	roots := tree.LevelNodes(1)
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	// Before anything is pooled: homeUser keeps the results of its reports.
	_, prefs, _, _, _ := homeUser(t, reg)
	md, err := sh.Metadata()
	if err != nil {
		t.Fatal(err)
	}

	// held reports whether the pool still holds the one result that owns
	// count-sized arrays, which is what the failing report was handed.
	held := func() bool {
		res := resultPool.Get().(*ReportResult)
		defer resultPool.Put(res)
		return cap(res.Reports) >= count && cap(res.Centers) >= count
	}
	plain := ReportRequest{Region: "bench-mob", Cell: tree.LeavesUnder(roots[0])[0].Coord, UID: 1, Seed: 1,
		Policy: policy.Policy{PrivacyLevel: 1}, Count: count}
	res, err := reg.Report(ctx, plain)
	if err != nil {
		t.Fatal(err)
	}
	res.Release()
	if !held() {
		t.Fatal("a released result did not come back from the pool; the checks below would prove nothing")
	}

	// The user moves to another subtree; its entry cannot be fetched.
	moved := plain
	moved.Cell, moved.Count = tree.LeavesUnder(roots[1])[0].Coord, 1
	if _, err := reg.Report(cancelled, moved); err == nil {
		t.Fatal("a re-anchor succeeded under a cancelled context")
	}
	if !held() {
		t.Error("a report whose re-anchor failed dropped its pooled result")
	}

	// "home = false" from the home cell itself: there is no row to draw from.
	prefs.Cell = md.HomeLeaf[int(prefs.UID)].Coord
	if _, err := reg.Report(ctx, prefs); !errors.Is(err, ErrBadReport) {
		t.Fatalf("a draw from the user's own pruned cell: %v, want ErrBadReport", err)
	}
	if !held() {
		t.Error("a report whose draw failed dropped its pooled result")
	}

	// The window has room for eight more draws, not for count of them.
	if _, err := reg.Report(ctx, plain); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("an over-budget report: %v, want ErrBudgetExhausted", err)
	}
	if !held() {
		t.Error("a budget-rejected report dropped its pooled result")
	}
}

// TestLeaseReturnsPooledGrantOnError: Lease takes its grant from the pool
// before it verifies the renewal token, so every failure after that must
// put it back. The exits are a forged token (403), a re-anchor whose entry
// fetch fails (a cancelled context) and an exhausted budget (429). The
// grant is told apart by its token buffer: the region's name is longer
// than any other region's a lease in this process signs for, so only a
// grant that signed for it has that much room. Under the race detector,
// which makes sync.Pool drop a share of what is Put, the exits still run
// but whether the grant came back is not asserted.
func TestLeaseReturnsPooledGrantOnError(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection would empty the pool
	region := strings.Repeat("r", 200)
	const draws = 4
	// Room for two leases and half of a third.
	reg, err := New(fastSpecs(region), Options{
		Budget: budget.Config{LimitEps: 15 * draws * 5 / 2, Window: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sh, err := reg.Shard(ctx, region)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Spec.Epsilon != 15 {
		t.Fatalf("epsilon %v: the budget above assumes 15", sh.Spec.Epsilon)
	}
	tree := sh.Server.Tree()
	roots := tree.LevelNodes(1)
	cancelled, cancel := context.WithCancel(ctx)
	cancel()

	// held reports whether the pool still holds the one grant whose token
	// buffer has room for this region, which is what the failing lease was
	// handed.
	held := func() bool {
		g := grantPool.Get().(*LeaseGrant)
		defer grantPool.Put(g)
		return raceon.Enabled || cap(g.Token) > len(region)
	}
	req := LeaseRequest{Region: region, Cell: tree.LeavesUnder(roots[0])[0].Coord, UID: 1, Seed: 1,
		Policy: policy.Policy{PrivacyLevel: 1}, Draws: draws}
	grant, err := reg.Lease(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	token := bytes.Clone(grant.Token)
	grant.Release()
	if !held() {
		t.Fatal("a released grant did not come back from the pool; the checks below would prove nothing")
	}

	forged := req
	forged.Token = bytes.Clone(token)
	forged.Token[len(forged.Token)-1] ^= 1
	if _, err := reg.Lease(ctx, forged); !errors.Is(err, ErrBadLeaseToken) {
		t.Fatalf("a lease with a forged token: %v, want ErrBadLeaseToken", err)
	}
	if !held() {
		t.Error("a lease refused for its token dropped its pooled grant")
	}

	// The user moves to another subtree; its entry cannot be fetched.
	moved := req
	moved.Cell, moved.Token = tree.LeavesUnder(roots[1])[0].Coord, token
	if _, err := reg.Lease(cancelled, moved); err == nil {
		t.Fatal("a re-anchor succeeded under a cancelled context")
	}
	if !held() {
		t.Error("a lease whose re-anchor failed dropped its pooled grant")
	}

	// Two leases are paid for; half of a third is left.
	if _, err := reg.Lease(ctx, req); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("an over-budget lease: %v, want ErrBudgetExhausted", err)
	}
	if !held() {
		t.Error("a budget-rejected lease dropped its pooled grant")
	}
}
