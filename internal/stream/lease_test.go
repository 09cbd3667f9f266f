// Lease-pipeline end-to-end tests: the client-side draw path (POST
// /v1/lease and LEASE frames feeding internal/clientdraw) against the
// three server-side paths, plus the budget and token enforcement the
// offload depends on. External package for the same reason as
// stream_test.go: both wires against live servers.
package stream_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"corgi/internal/budget"
	"corgi/internal/clientdraw"
	"corgi/internal/clock"
	"corgi/internal/cluster"
	"corgi/internal/loctree"
	"corgi/internal/policy"
	"corgi/internal/proto"
	"corgi/internal/registry"
	"corgi/internal/stream"
)

// TestLeaseTrajectoryEquivalence is the offload acceptance property: a
// seeded trajectory with a re-anchoring subtree crossing, drawn
// server-side in-process, yields the byte-identical draw sequence when
// the client draws it locally from leases acquired over HTTP and over
// the stream — including across renewals, whose caps are sized so every
// leased draw is consumed (unused draws are forfeited by design, so a
// client that wants continuity sizes caps exactly).
func TestLeaseTrajectoryEquivalence(t *testing.T) {
	const (
		seed  = int64(1337)
		uid   = int64(3)
		count = 4
	)
	pol := policy.Policy{PrivacyLevel: 1}

	type draw struct {
		q, r     int
		lat, lng float64
	}

	// Moves 0 and 1 sit at leafA, move 2 crosses to leafB (re-anchor),
	// move 3 crosses back. The initial lease pre-pays moves 0+1 in one
	// 8-draw cap; each crossing renews with an exact 4-draw cap.
	worldOf := func(reg *registry.Registry) (*loctree.Tree, loctree.NodeID, loctree.NodeID) {
		tree, _ := leaves(t, reg, "ra")
		leafA := tree.LeavesUnder(tree.LevelNodes(1)[0])[0]
		leafB := tree.LeavesUnder(tree.LevelNodes(1)[1])[0]
		return tree, leafA, leafB
	}

	// Server-side reference: the registry pipeline directly.
	var inproc []draw
	{
		reg := newRegistry(t, registry.Options{}, "ra")
		_, leafA, leafB := worldOf(reg)
		for i, leaf := range []loctree.NodeID{leafA, leafA, leafB, leafA} {
			res, err := reg.Report(context.Background(), registry.ReportRequest{
				Region: "ra", Cell: leaf.Coord, UID: uid,
				Policy: pol, Seed: seed, Count: count,
			})
			if err != nil {
				t.Fatalf("in-proc move %d: %v", i, err)
			}
			for j, n := range res.Reports {
				c := res.Centers[j]
				inproc = append(inproc, draw{n.Coord.Q, n.Coord.R, c.Lat, c.Lng})
			}
		}
	}

	// drawLocal replays the trajectory from leases acquired via acquire:
	// initial 8-draw lease at leafA, then 4-draw renewals at leafB and
	// leafA. Every grant's RNG position must land exactly where the
	// in-process stream stood: 0, 8, 12. useRenew picks the renewal
	// constructor — Renew moving the lease in place and a fresh Open must
	// produce the same stream.
	drawLocal := func(tree *loctree.Tree, leafA, leafB loctree.NodeID, useRenew bool,
		acquire func(leaf loctree.NodeID, draws int, token []byte) (*registry.LeaseGrant, error)) []draw {

		var out []draw
		consume := func(l *clientdraw.Lease, leaf loctree.NodeID, n int) {
			t.Helper()
			nodes := make([]loctree.NodeID, n)
			if err := l.DrawCellNInto(leaf, nodes); err != nil {
				t.Fatal(err)
			}
			for _, nd := range nodes {
				c := tree.Center(nd)
				out = append(out, draw{nd.Coord.Q, nd.Coord.R, c.Lat, c.Lng})
			}
		}
		open := func(prev *clientdraw.Lease, g *registry.LeaseGrant, wantPos uint64, wantRenewed bool) *clientdraw.Lease {
			t.Helper()
			if g.RNGPos != wantPos || g.Renewed != wantRenewed {
				t.Fatalf("grant at pos %d (renewed %v), want %d (%v)",
					g.RNGPos, g.Renewed, wantPos, wantRenewed)
			}
			var l *clientdraw.Lease
			var err error
			if prev != nil && useRenew {
				l, err = prev.Renew(g.Bundle, g.Token)
			} else {
				l, err = clientdraw.Open(tree, g.Bundle, g.Token)
			}
			if err != nil {
				t.Fatal(err)
			}
			if prev != nil && useRenew && l != prev {
				t.Fatal("Renew returned another lease")
			}
			return l
		}

		g, err := acquire(leafA, 2*count, nil)
		if err != nil {
			t.Fatal(err)
		}
		l := open(nil, g, 0, false)
		consume(l, leafA, count) // move 0
		consume(l, leafA, count) // move 1
		if err := l.DrawCellNInto(leafA, make([]loctree.NodeID, 1)); !errors.Is(err, clientdraw.ErrLeaseExhausted) {
			t.Fatalf("draw past cap: %v, want ErrLeaseExhausted", err)
		}

		g, err = acquire(leafB, count, l.Token()) // move 2: crossing
		if err != nil {
			t.Fatal(err)
		}
		if !g.Reanchored {
			t.Fatal("renewal across subtrees did not re-anchor")
		}
		l = open(l, g, 2*count, true)
		consume(l, leafB, count)

		g, err = acquire(leafA, count, l.Token()) // move 3: crossing back
		if err != nil {
			t.Fatal(err)
		}
		l = open(l, g, 3*count, true)
		consume(l, leafA, count)
		return out
	}

	// Lease over HTTP+JSON: POST /v1/lease, draws on-device.
	var overHTTP []draw
	{
		reg := newRegistry(t, registry.Options{}, "ra")
		tree, leafA, leafB := worldOf(reg)
		h, err := proto.NewMultiHandler(reg)
		if err != nil {
			t.Fatal(err)
		}
		hsrv := httptest.NewServer(h.Mux())
		t.Cleanup(hsrv.Close)
		hc := proto.NewClient(hsrv.URL)
		overHTTP = drawLocal(tree, leafA, leafB, false,
			func(leaf loctree.NodeID, draws int, token []byte) (*registry.LeaseGrant, error) {
				return hc.Remote().Lease(context.Background(), registry.LeaseRequest{
					Region: "ra", Cell: leaf.Coord, UID: uid, Policy: pol, Seed: seed, Draws: draws, Token: token,
				})
			})
	}

	// Lease over the stream: LEASE/LEASE_GRANT frames on one connection.
	var overStream []draw
	{
		reg := newRegistry(t, registry.Options{}, "ra")
		tree, leafA, leafB := worldOf(reg)
		_, addr := startStream(t, reg)
		sc := stream.NewClient(addr, stream.ClientConfig{Timeout: 10 * time.Second})
		defer sc.Close()
		overStream = drawLocal(tree, leafA, leafB, true,
			func(leaf loctree.NodeID, draws int, token []byte) (*registry.LeaseGrant, error) {
				g, err := sc.Lease(stream.Request{
					Region: "ra", Cell: [2]int{leaf.Coord.Q, leaf.Coord.R}, UID: uid,
					Policy: pol, Seed: seed,
				}, draws, token)
				return &g, err
			})
	}

	if len(inproc) != 4*count || len(overHTTP) != len(inproc) || len(overStream) != len(inproc) {
		t.Fatalf("draw counts: in-proc %d, lease/http %d, lease/stream %d",
			len(inproc), len(overHTTP), len(overStream))
	}
	for i := range inproc {
		// Exact equality, centers included: the bundle carries full float64
		// weight bits and the client recomputes centers from the same tree,
		// so even one ulp of drift is a real bug.
		if overHTTP[i] != inproc[i] {
			t.Fatalf("draw %d: lease/http %+v != in-proc %+v", i, overHTTP[i], inproc[i])
		}
		if overStream[i] != inproc[i] {
			t.Fatalf("draw %d: lease/stream %+v != in-proc %+v", i, overStream[i], inproc[i])
		}
	}
}

// TestReleaseLeavesDecodedGrantsAlone: only a grant Registry.Lease made
// is the pool's. A grant a client decoded off either wire, whether the
// caller holds the stream client's value, a handler's pointer, or what a
// cluster router relayed from the uid's owner, is its caller's: it carries
// no pooled lease, Release leaves every field and every byte of it as it
// was, and so does a renewal on the same client.
func TestReleaseLeavesDecodedGrantsAlone(t *testing.T) {
	reg := newRegistry(t, registry.Options{}, "ra")
	_, leafNodes := leaves(t, reg, "ra")
	_, addr := startStream(t, reg)
	sc := stream.NewClient(addr, stream.ClientConfig{Timeout: 10 * time.Second})
	defer sc.Close()
	h, err := proto.NewMultiHandler(reg)
	if err != nil {
		t.Fatal(err)
	}
	hsrv := httptest.NewServer(h.Mux())
	t.Cleanup(hsrv.Close)
	// A second node whose router relays the asks of the uids reg's node
	// owns to it over the stream.
	router, err := cluster.NewRouter(newRegistry(t, registry.Options{}, "ra"), "self",
		[]cluster.Peer{{Name: "self"}, {Name: addr, StreamAddr: addr}}, cluster.RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Close)
	relayed := int64(100)
	for router.Ring().Owner(relayed) != addr {
		relayed++
	}

	ask := func(uid int64, token []byte) registry.LeaseRequest {
		return registry.LeaseRequest{Region: "ra", Cell: leafNodes[0].Coord, UID: uid,
			Policy: policy.Policy{PrivacyLevel: 1}, Seed: 1, Draws: 4, Token: token}
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		lease func(token []byte) (*registry.LeaseGrant, error)
	}{
		{"stream.Client.Lease", func(token []byte) (*registry.LeaseGrant, error) {
			req := ask(1, token)
			g, err := sc.Lease(stream.WireLease(req), req.Draws, req.Token)
			return &g, err
		}},
		{"stream.Remote.Lease", func(token []byte) (*registry.LeaseGrant, error) { return sc.Remote().Lease(ctx, ask(2, token)) }},
		{"proto.Remote.Lease", func(token []byte) (*registry.LeaseGrant, error) {
			return proto.NewClient(hsrv.URL).Remote().Lease(ctx, ask(3, token))
		}},
		{"cluster.Router.Lease", func(token []byte) (*registry.LeaseGrant, error) { return router.Lease(ctx, ask(relayed, token)) }},
	} {
		g, err := tc.lease(nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.ValueOf(g).Elem().FieldByName("issued").IsNil() {
			t.Errorf("%s: a decoded grant belongs to a pooled lease", tc.name)
		}
		before := *g
		before.Token, before.Bundle = bytes.Clone(g.Token), bytes.Clone(g.Bundle)
		g.Release()
		if !reflect.DeepEqual(*g, before) {
			t.Errorf("%s: Release changed a decoded grant (region %q, %d token bytes; was %q, %d)",
				tc.name, g.Region, len(g.Token), before.Region, len(before.Token))
		}
		next, err := tc.lease(g.Token)
		if err != nil {
			t.Fatalf("%s renewal: %v", tc.name, err)
		}
		next.Release()
		if !bytes.Equal(g.Token, before.Token) || !bytes.Equal(g.Bundle, before.Bundle) {
			t.Errorf("%s: a renewal on the same client rewrote the first grant's token or bundle", tc.name)
		}
	}
	if got := router.Stats().ForwardedOut; got != 2 {
		t.Errorf("the router forwarded %d leases, want its 2", got)
	}
}

// TestKeptAnswersSurviveSlabRefills: the stream client cuts the answers it
// decodes from its connection's slabs, and an answer stays its caller's.
// One client keeps three slabs' worth of REPORT responses, some with more
// than one report, and three chunks' worth of LEASE grants, renewing each
// user's lease with the token it kept. Among the grants is a level-2
// lease, whose K=49 bundle is larger than a quarter chunk, and among the
// exchanges one the client retries on a fresh dial after the server
// restarts. Every kept slice is full to its capacity, so an append to it
// cannot write into another answer, and every field and byte of every
// answer reads at the end as it did when it was decoded.
func TestKeptAnswersSurviveSlabRefills(t *testing.T) {
	const (
		responses  = 3*16 + 1     // three sixteen-slot slabs and one more
		grantBytes = 3 * 16 << 10 // three 16 KiB chunks
	)
	reg := newRegistry(t, registry.Options{}, "ra")
	_, leafNodes := leaves(t, reg, "ra")
	srv, addr := startStream(t, reg)
	c := stream.NewClient(addr, stream.ClientConfig{Timeout: 10 * time.Second})
	defer c.Close()

	type keptResponse struct {
		resp *stream.Response
		snap stream.Response
	}
	type keptGrant struct {
		grant, snap registry.LeaseGrant
	}
	var resps []keptResponse
	var grants []keptGrant
	var tokens [4][]byte // each user's last token, as kept in its grant
	cut, big, retried := 0, false, false
	for i := 0; len(resps) < responses || cut < grantBytes; i++ {
		leaf := leafNodes[i%len(leafNodes)].Coord
		req := stream.Request{Region: "ra", Cell: [2]int{leaf.Q, leaf.R}, UID: int64(i % 4),
			Policy: policy.Policy{PrivacyLevel: 1}, Seed: 1, Count: 1 + i%3}
		if i == 40 {
			// Every pooled connection goes stale: the next exchange fails on
			// the pooled one and is retried on a fresh dial.
			shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			err := srv.Shutdown(shutCtx)
			cancel()
			if err != nil {
				t.Fatal(err)
			}
			srv, _ = serveStream(t, reg, addr)
		}
		before := c.Stats().Retries
		resp, err := c.Report(req)
		if err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
		retried = retried || c.Stats().Retries > before
		snap := *resp
		snap.Reports = slices.Clone(resp.Reports)
		resps = append(resps, keptResponse{resp, snap})

		uid := i % 4
		if i == 20 {
			// A user of their own, at the privacy level of the whole tree.
			uid, req.UID, req.Policy.PrivacyLevel = -1, 100, 2
		}
		var token []byte
		if uid >= 0 {
			token = tokens[uid]
		}
		grant, err := c.Lease(req, 4, token)
		if err != nil {
			t.Fatalf("lease %d: %v", i, err)
		}
		n := len(grant.Token) + len(grant.Bundle)
		if uid < 0 {
			if n <= 4<<10 {
				t.Fatalf("the level-2 grant holds %d bytes, not more than a quarter chunk", n)
			}
			big = true
		} else {
			tokens[uid] = grant.Token
			cut += n
		}
		snapGrant := grant
		snapGrant.Token, snapGrant.Bundle = bytes.Clone(grant.Token), bytes.Clone(grant.Bundle)
		grants = append(grants, keptGrant{grant, snapGrant})
	}
	if !big || !retried {
		t.Fatalf("a grant over a quarter chunk: %v; an exchange retried on a fresh dial: %v", big, retried)
	}

	for i, k := range resps {
		if r := k.resp.Reports; cap(r) != len(r) {
			t.Fatalf("response %d: %d reports with room for %d", i, len(r), cap(r))
		}
		if !reflect.DeepEqual(*k.resp, k.snap) {
			t.Fatalf("response %d changed after it was decoded: %+v, was %+v", i, *k.resp, k.snap)
		}
	}
	for i, k := range grants {
		if g := k.grant; cap(g.Token) != len(g.Token) || cap(g.Bundle) != len(g.Bundle) {
			t.Fatalf("grant %d: token %d/%d, bundle %d/%d bytes of their capacity",
				i, len(g.Token), cap(g.Token), len(g.Bundle), cap(g.Bundle))
		}
		if !reflect.DeepEqual(k.grant, k.snap) {
			t.Fatalf("grant %d changed after it was decoded (region %q, %d token bytes, %d bundle bytes)",
				i, k.grant.Region, len(k.grant.Token), len(k.grant.Bundle))
		}
	}
}

// TestLeaseBudgetExhaustion pins the zero-over-spend property: a lease
// charges its whole cap up front, and a renewal the window cannot cover
// answers 429 with the user's live headroom — on both wires — without
// spending anything.
func TestLeaseBudgetExhaustion(t *testing.T) {
	const eps = 15.0 // registry default epsilon for specs that leave it zero
	opts := registry.Options{Budget: budget.Config{LimitEps: 10 * eps, Window: time.Hour}}
	pol := policy.Policy{PrivacyLevel: 1}

	// HTTP wire.
	regH := newRegistry(t, opts, "ra")
	_, leafNodes := leaves(t, regH, "ra")
	cell := [2]int{leafNodes[0].Coord.Q, leafNodes[0].Coord.R}
	h, err := proto.NewMultiHandler(regH)
	if err != nil {
		t.Fatal(err)
	}
	hsrv := httptest.NewServer(h.Mux())
	t.Cleanup(hsrv.Close)
	hc := proto.NewClient(hsrv.URL).Remote()
	ask := func(draws int, token []byte) registry.LeaseRequest {
		return registry.LeaseRequest{Region: "ra", Cell: leafNodes[0].Coord, UID: 5, Policy: pol, Seed: 1, Draws: draws, Token: token}
	}

	lr, err := hc.Lease(context.Background(), ask(8, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !lr.Budgeted || lr.EpsSpent != 8*eps || lr.EpsRemaining != 2*eps {
		t.Fatalf("issue: budgeted=%v spent=%v remaining=%v", lr.Budgeted, lr.EpsSpent, lr.EpsRemaining)
	}
	// 4 more draws cost 60 against 30 of headroom: refused, headroom intact.
	_, err = hc.Lease(context.Background(), ask(4, lr.Token))
	var le *registry.Rejection
	if !errors.As(err, &le) || le.Status != http.StatusTooManyRequests {
		t.Fatalf("over-cap renewal: %v", err)
	}
	if !le.HasEps || le.EpsRemaining != 2*eps {
		t.Fatalf("429 headroom: %+v", le)
	}
	// A renewal the headroom does cover still succeeds: the refusal spent
	// nothing.
	if lr, err = hc.Lease(context.Background(), ask(2, lr.Token)); err != nil {
		t.Fatalf("exact-headroom renewal: %v", err)
	}
	if lr.EpsRemaining != 0 {
		t.Fatalf("headroom after exact renewal: %v", lr.EpsRemaining)
	}
	// Issued counts every grant (renewals included); the refused renewal
	// counted only as a budget denial.
	if st := regH.LeaseStats(); st.DeniedBudget != 1 || st.Issued != 2 || st.Renewed != 1 || st.DrawsGranted != 10 {
		t.Fatalf("lease stats: %+v", st)
	}

	// Stream wire: same refusal as a *registry.Rejection with the headroom field.
	regS := newRegistry(t, opts, "ra")
	_, addr := startStream(t, regS)
	sc := stream.NewClient(addr, stream.ClientConfig{Timeout: 10 * time.Second})
	defer sc.Close()
	req := stream.Request{Region: "ra", Cell: cell, UID: 5, Policy: pol, Seed: 1}
	g, err := sc.Lease(req, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Budgeted || g.EpsSpent != 8*eps || g.EpsRemaining != 2*eps {
		t.Fatalf("stream issue: %+v", g)
	}
	_, err = sc.Lease(req, 4, g.Token)
	var se *registry.Rejection
	if !errors.As(err, &se) || se.Status != http.StatusTooManyRequests {
		t.Fatalf("stream over-cap renewal: %v", err)
	}
	if !se.HasEps || se.EpsRemaining != 2*eps {
		t.Fatalf("stream 429 headroom: %+v", se)
	}
}

// TestLeaseTokenRejections pins the key-gating: a tampered token, a token
// presented by the wrong user, and the server's own token once the
// registry's clock has passed its lifetime all answer 403, and the
// registry counts them.
func TestLeaseTokenRejections(t *testing.T) {
	clk := clock.NewManual()
	reg := newRegistry(t, registry.Options{Budget: budget.Config{Now: clk.Now}}, "ra")
	_, leafNodes := leaves(t, reg, "ra")
	cell := [2]int{leafNodes[0].Coord.Q, leafNodes[0].Coord.R}
	pol := policy.Policy{PrivacyLevel: 1}

	h, err := proto.NewMultiHandler(reg)
	if err != nil {
		t.Fatal(err)
	}
	hsrv := httptest.NewServer(h.Mux())
	t.Cleanup(hsrv.Close)
	hc := proto.NewClient(hsrv.URL).Remote()
	_, addr := startStream(t, reg)
	sc := stream.NewClient(addr, stream.ClientConfig{Timeout: 10 * time.Second})
	defer sc.Close()
	ask := func(uid int64, token []byte) registry.LeaseRequest {
		return registry.LeaseRequest{Region: "ra", Cell: leafNodes[0].Coord, UID: uid, Policy: pol, Seed: 2, Draws: 2, Token: token}
	}

	lr, err := hc.Lease(context.Background(), ask(9, nil))
	if err != nil {
		t.Fatal(err)
	}

	wantHTTP403 := func(req registry.LeaseRequest) {
		t.Helper()
		_, err := hc.Lease(context.Background(), req)
		var le *registry.Rejection
		if !errors.As(err, &le) || le.Status != http.StatusForbidden {
			t.Fatalf("want 403 Rejection, got %v", err)
		}
	}

	// Tampered: one flipped byte in the signed payload.
	forged := append([]byte(nil), lr.Token...)
	forged[8] ^= 0x01
	wantHTTP403(ask(9, forged))
	_, err = sc.Lease(stream.Request{
		Region: "ra", Cell: cell, UID: 9, Policy: pol, Seed: 2,
	}, 2, forged)
	var se *registry.Rejection
	if !errors.As(err, &se) || se.Status != http.StatusForbidden {
		t.Fatalf("stream forged token: %v", err)
	}

	// Wrong presenter: a valid token under a different request UID.
	wantHTTP403(ask(10, lr.Token))

	// The denials never touched the session: the original lease still
	// renews and continues at the position it granted.
	lr2, err := hc.Lease(context.Background(), ask(9, lr.Token))
	if err != nil {
		t.Fatal(err)
	}
	if !lr2.Renewed || lr2.RNGPos != 2 {
		t.Fatalf("renewal after denials: renewed=%v pos=%d", lr2.Renewed, lr2.RNGPos)
	}

	// Expired: the server's own token, presented once the registry's clock
	// has passed its lifetime.
	clk.Advance(registry.DefaultLeaseTTL + time.Millisecond)
	wantHTTP403(ask(9, lr2.Token))

	if st := reg.LeaseStats(); st.DeniedToken != 4 {
		t.Fatalf("denied_token = %d, want 4: %+v", st.DeniedToken, st)
	}
}

// TestMaxReportCountLimit is the serving contract's cross-entry table. The
// limits are set ONCE, on the registry, and every way into it — in-process,
// through an owner-local cluster router, over the JSON routes, over stream
// frames — answers an over-cap draw count with the same 422 (nothing
// charged, nothing drawn) and a bad batch envelope with the same 400/413;
// the stream handshake advertises the registry's numbers.
func TestMaxReportCountLimit(t *testing.T) {
	const (
		maxCount, maxBatch = 7, 3
		over               = maxCount + 1
		uid                = int64(4)
	)
	pol := policy.Policy{PrivacyLevel: 1}
	ctx := context.Background()

	reg := newRegistry(t, registry.Options{
		MaxReportCount: maxCount, MaxBatch: maxBatch,
		Budget: budget.Config{LimitEps: 1e6, Window: time.Hour},
	}, "ra")
	_, leafNodes := leaves(t, reg, "ra")
	leaf := leafNodes[0].Coord
	router, err := cluster.NewRouter(reg, "self", []cluster.Peer{{Name: "self"}}, cluster.RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Close)
	h, err := proto.NewMultiHandler(reg)
	if err != nil {
		t.Fatal(err)
	}
	hsrv := httptest.NewServer(h.Mux())
	t.Cleanup(hsrv.Close)
	hc := proto.NewClient(hsrv.URL)
	_, addr := startStream(t, reg)
	sc := stream.NewClient(addr, stream.ClientConfig{Timeout: 10 * time.Second})
	defer sc.Close()

	// One in-cap report at the cap itself: the user now has window spend
	// and a resident session whose RNG position the refusals must not move.
	ask := registry.ReportRequest{Region: "ra", Cell: leaf, UID: uid, Policy: pol, Seed: 3, Count: maxCount}
	if _, err := reg.Report(ctx, ask); err != nil {
		t.Fatalf("count %d (the cap) refused: %v", maxCount, err)
	}
	sh, err := reg.Shard(ctx, "ra")
	if err != nil {
		t.Fatal(err)
	}
	spent, draws := sh.Budget.Spent(uid), sh.Sessions.Stats().Draws
	ask.Count = over
	leaseAsk := registry.LeaseRequest{Region: "ra", Cell: leaf, UID: uid, Policy: pol, Seed: 3, Draws: over}
	wire := stream.WireRequest(ask)

	// rejection reads the answer off an error, whichever entry produced it
	// (a client's *registry.Rejection classifies as itself).
	rejection := func(err error) registry.Rejection {
		t.Helper()
		if err == nil {
			t.Fatalf("count %d accepted", over)
		}
		return registry.Classify(err)
	}
	cases := []struct {
		name  string
		issue func() registry.Rejection
	}{
		{"in-proc report", func() registry.Rejection { _, err := reg.Report(ctx, ask); return rejection(err) }},
		{"in-proc lease", func() registry.Rejection { _, err := reg.Lease(ctx, leaseAsk); return rejection(err) }},
		{"router report", func() registry.Rejection { _, err := router.Report(ctx, ask); return rejection(err) }},
		{"router lease", func() registry.Rejection { _, err := router.Lease(ctx, leaseAsk); return rejection(err) }},
		{"http report", func() registry.Rejection { _, err := hc.Report(wire); return rejection(err) }},
		{"http batch item", func() registry.Rejection {
			items, err := hc.Remote().ReportBatch(ctx, []registry.ReportRequest{ask})
			if err != nil {
				t.Fatal(err)
			}
			return items[0].Rejection
		}},
		{"http lease", func() registry.Rejection {
			_, err := hc.Remote().Lease(ctx, leaseAsk)
			return rejection(err)
		}},
		{"stream report", func() registry.Rejection { _, err := sc.Report(wire); return rejection(err) }},
		{"stream batch item", func() registry.Rejection {
			items, err := sc.ReportBatch([]stream.Request{wire})
			if err != nil {
				t.Fatal(err)
			}
			return items[0].Rejection
		}},
		{"stream lease", func() registry.Rejection {
			_, err := sc.Lease(stream.WireLease(leaseAsk), over, nil)
			return rejection(err)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.issue()
			if got.Status != http.StatusUnprocessableEntity || !strings.Contains(got.Msg, "exceeds limit") {
				t.Fatalf("count %d answered %d %q, want 422 ... exceeds limit ...", over, got.Status, got.Msg)
			}
			if s, d := sh.Budget.Spent(uid), sh.Sessions.Stats().Draws; s != spent || d != draws {
				t.Fatalf("refusal charged or drew: spent %v -> %v, draws %d -> %d", spent, s, draws, d)
			}
		})
	}
	if st := reg.LeaseStats(); st.Issued != 0 {
		t.Fatalf("refused leases issued: %+v", st)
	}

	// Batch envelopes: empty is 400, one item over the cap 413, on both
	// batch routes alike.
	post := func(path string, n int) func() int {
		return func() int {
			body, _ := json.Marshal(map[string]any{"items": make([]struct{}, n)})
			resp, err := http.Post(hsrv.URL+path, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp.StatusCode
		}
	}
	frame := func(n int) func() int {
		return func() int {
			if _, err := sc.ReportBatch(make([]stream.Request, n)); err != nil {
				return rejection(err).Status
			}
			return http.StatusOK
		}
	}
	for _, tc := range []struct {
		name  string
		issue func(n int) func() int
	}{
		{"POST reports", func(n int) func() int { return post("/v1/reports", n) }},
		{"REPORTS frame", frame},
	} {
		t.Run("envelope "+tc.name, func(t *testing.T) {
			if got := tc.issue(0)(); got != http.StatusBadRequest {
				t.Fatalf("empty batch answered %d, want 400", got)
			}
			if got := tc.issue(maxBatch + 1)(); got != http.StatusRequestEntityTooLarge {
				t.Fatalf("%d-item batch answered %d, want 413", maxBatch+1, got)
			}
			if got := tc.issue(maxBatch)(); got != http.StatusOK {
				t.Fatalf("%d-item batch (the cap) answered %d, want 200", maxBatch, got)
			}
		})
	}

	// WELCOME := uint8 version | uvarint maxBatch | uvarint maxReportCount,
	// read off a raw connection: the client keeps the numbers to itself.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	hello := append([]byte{7, 0, 0, 0, 1}, stream.Magic...)
	if _, err := conn.Write(append(hello, stream.Version, stream.Version)); err != nil {
		t.Fatal(err)
	}
	welcome := make([]byte, 8)
	if _, err := io.ReadFull(conn, welcome); err != nil {
		t.Fatal(err)
	}
	if want := []byte{4, 0, 0, 0, 2, stream.Version, maxBatch, maxCount}; !bytes.Equal(welcome, want) {
		t.Fatalf("WELCOME frame % x, want % x", welcome, want)
	}
}
