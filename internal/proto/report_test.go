package proto

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"corgi/internal/budget"
	"corgi/internal/loctree"
	"corgi/internal/policy"
	"corgi/internal/registry"
	"corgi/internal/session"
)

func reportSpecs(names ...string) []registry.Spec {
	specs := make([]registry.Spec, len(names))
	for i, name := range names {
		specs[i] = registry.Spec{
			Name:      name,
			CenterLat: 37.765 + float64(i),
			CenterLng: -122.435,
			Height:    2, Iterations: 1, Targets: 3,
			UniformPriors: true,
		}
	}
	return specs
}

func reportServer(t *testing.T, names ...string) (*httptest.Server, *registry.Registry) {
	t.Helper()
	reg, err := registry.New(reportSpecs(names...), registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewMultiHandler(reg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h.Mux())
	t.Cleanup(srv.Close)
	return srv, reg
}

func TestReportRoundTrip(t *testing.T) {
	srv, _ := reportServer(t, "ra", "rb")
	c := NewClient(srv.URL)
	tree, _, err := c.FetchTree()
	if err != nil {
		t.Fatal(err)
	}
	leaf := tree.LevelNodes(0)[0]
	resp, err := c.Report(ReportRequest{
		Region: "ra",
		Cell:   [2]int{leaf.Coord.Q, leaf.Coord.R},
		Policy: policy.Policy{PrivacyLevel: 1},
		Seed:   7,
		Count:  5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Region != "ra" || len(resp.Reports) != 5 || resp.PrecisionLevel != 0 {
		t.Fatalf("response: %+v", resp)
	}
	for _, rep := range resp.Reports {
		if rep.Lat == 0 && rep.Lng == 0 {
			t.Fatalf("report without a center: %+v", rep)
		}
	}
}

// TestReportRemoteEqualsLocal is the acceptance property: a seeded remote
// report equals the local-sampling report for the same (region, cell,
// policy, seed). The local side fetches the same forest over the dense v1
// encoding (bit-exact float64 round trip) and draws through an
// internal/session with the same seed.
func TestReportRemoteEqualsLocal(t *testing.T) {
	srv, _ := reportServer(t, "ra")
	const (
		seed  = int64(424242)
		count = 16
	)
	pol := policy.Policy{PrivacyLevel: 2}

	c := NewRegionClient(srv.URL, "ra")
	c.ForceV1 = true // quantization-free so both sides see identical rows
	tree, _, err := c.FetchTree()
	if err != nil {
		t.Fatal(err)
	}
	priors, err := c.FetchPriors(tree)
	if err != nil {
		t.Fatal(err)
	}
	leaf := tree.LevelNodes(0)[10]

	// Remote: the server draws from its session.
	remote, err := c.Report(ReportRequest{
		Cell:   [2]int{leaf.Coord.Q, leaf.Coord.R},
		Policy: pol,
		Seed:   seed,
		Count:  count,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Local: fetch the forest, bind the same session shape, draw.
	forest, err := c.FetchForest(tree, pol.PrivacyLevel, 0)
	if err != nil {
		t.Fatal(err)
	}
	root, _ := tree.AncestorAt(leaf, pol.PrivacyLevel)
	sess, err := session.New(session.Config{
		Tree:   tree,
		Entry:  forest.Entries[root],
		Delta:  forest.Delta,
		Policy: pol,
		Priors: priors,
		Seed:   seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	local := make([]loctree.NodeID, count)
	if err := sess.DrawCellNInto(leaf, local); err != nil {
		t.Fatal(err)
	}

	if len(remote.Reports) != len(local) {
		t.Fatalf("remote drew %d, local %d", len(remote.Reports), len(local))
	}
	for i := range local {
		if remote.Reports[i].Q != local[i].Coord.Q || remote.Reports[i].R != local[i].Coord.R {
			t.Fatalf("draw %d diverged: remote (%d,%d) vs local %v",
				i, remote.Reports[i].Q, remote.Reports[i].R, local[i])
		}
	}
}

// TestPostRetriesStaleKeepAlive: a restarted server has closed every
// keep-alive connection a client pooled to it, so the next POST on one
// meets the close before any answer. The client replays it once on a
// fresh connection, as it does a GET: a replayed report is at worst
// charged twice, where a refused one is lost.
func TestPostRetriesStaleKeepAlive(t *testing.T) {
	reg, err := registry.New(reportSpecs("ra"), registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewMultiHandler(reg)
	if err != nil {
		t.Fatal(err)
	}
	mux := h.Mux()
	var served, dialed atomic.Int32
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, sent := r.Header["Idempotency-Key"]; sent {
			t.Error("the client sent an Idempotency-Key header")
		}
		if served.Add(1) == 2 {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			conn.Close()
			return
		}
		mux.ServeHTTP(w, r)
	}))
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dialed.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	sh, err := reg.Shard(context.Background(), "ra")
	if err != nil {
		t.Fatal(err)
	}
	req := registry.ReportRequest{Cell: sh.Server.Tree().LevelNodes(0)[0].Coord, Policy: policy.Policy{PrivacyLevel: 1}, Count: 1}
	remote := NewRegionClient(srv.URL, "ra").Remote()
	for i := 1; i <= 2; i++ {
		res, err := remote.Report(context.Background(), req)
		if err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
		res.Release()
	}
	if d, s := dialed.Load(), served.Load(); d != 2 || s != 3 {
		t.Fatalf("two reports took %d connections and %d requests, want 2 and 3", d, s)
	}
}

func TestReportBatchPerItemStatuses(t *testing.T) {
	srv, _ := reportServer(t, "ra")
	c := NewClient(srv.URL)
	tree, _, err := c.FetchTree()
	if err != nil {
		t.Fatal(err)
	}
	leaf := tree.LevelNodes(0)[0]
	good := ReportRequest{
		Region: "ra",
		Cell:   [2]int{leaf.Coord.Q, leaf.Coord.R},
		Policy: policy.Policy{PrivacyLevel: 1},
	}
	badRegion := good
	badRegion.Region = "nope"
	badPolicy := good
	badPolicy.Policy = policy.Policy{PrivacyLevel: 99}
	badCell := good
	badCell.Cell = [2]int{9999, 9999}

	resp, err := c.reportBatch(context.Background(), []ReportRequest{good, badRegion, badPolicy, badCell})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{http.StatusOK, http.StatusNotFound,
		http.StatusUnprocessableEntity, http.StatusUnprocessableEntity}
	for i, item := range resp.Items {
		if item.Status != want[i] {
			t.Fatalf("item %d status %d (%s), want %d", i, item.Status, item.Msg, want[i])
		}
		if (item.Report != nil) != (item.Status == http.StatusOK) {
			t.Fatalf("item %d payload/status mismatch: %+v", i, item)
		}
	}
}

func TestReportLimitsAndMethods(t *testing.T) {
	srv, reg := reportServer(t, "ra")
	c := NewClient(srv.URL)
	tree, _, err := c.FetchTree()
	if err != nil {
		t.Fatal(err)
	}
	leaf := tree.LevelNodes(0)[0]

	// Count beyond the handler cap is a per-request rejection.
	_, err = c.Report(ReportRequest{
		Region: "ra",
		Cell:   [2]int{leaf.Coord.Q, leaf.Coord.R},
		Policy: policy.Policy{PrivacyLevel: 1},
		Count:  registry.DefaultMaxReportCount + 1,
	})
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized count: %v", err)
	}

	// GET is rejected on every POST route.
	for _, path := range []string{"/v1/report", "/v1/reports", "/v1/lease"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET %s -> %d", path, resp.StatusCode)
		}
	}

	// Oversized batches are rejected whole.
	items := make([]ReportRequest, registry.DefaultMaxBatch+1)
	for i := range items {
		items[i] = ReportRequest{Region: "ra", Cell: [2]int{leaf.Coord.Q, leaf.Coord.R},
			Policy: policy.Policy{PrivacyLevel: 1}}
	}
	if _, err := c.reportBatch(context.Background(), items); err == nil {
		t.Fatal("oversized batch accepted")
	}

	// Sessions show up in /v1/stats.
	if st := reg.AggregateSessionStats(); st.Created != 0 {
		t.Fatalf("limit probes created sessions: %+v", st)
	}
	if _, err := c.Report(ReportRequest{Region: "ra",
		Cell: [2]int{leaf.Coord.Q, leaf.Coord.R}, Policy: policy.Policy{PrivacyLevel: 1}}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()
	if !strings.Contains(body, "sessions_total") || !strings.Contains(body, "alias_builds") {
		t.Fatalf("stats missing report-pipeline counters: %s", body)
	}
}

// TestReportTrajectoryRemoteEqualsLocalAcrossReanchor extends the
// remote/local equivalence guarantee to moving users: a seeded session
// replaying the same move sequence — including a subtree crossing that
// re-anchors the server-side session — yields identical draws locally
// (session.New + Rebind) and via /v1/report.
func TestReportTrajectoryRemoteEqualsLocalAcrossReanchor(t *testing.T) {
	srv, _ := reportServer(t, "ra")
	const (
		seed  = int64(1337)
		count = 4
	)
	pol := policy.Policy{PrivacyLevel: 1}

	c := NewRegionClient(srv.URL, "ra")
	c.ForceV1 = true // quantization-free so both sides see identical rows
	tree, _, err := c.FetchTree()
	if err != nil {
		t.Fatal(err)
	}
	priors, err := c.FetchPriors(tree)
	if err != nil {
		t.Fatal(err)
	}
	rootA, rootB := tree.LevelNodes(1)[0], tree.LevelNodes(1)[1]
	leafA := tree.LeavesUnder(rootA)[0]
	leafB := tree.LeavesUnder(rootB)[0]
	moves := []struct {
		leaf      loctree.NodeID
		reanchors bool
	}{
		{leafA, false}, {leafA, false}, {leafB, true}, {leafA, true},
	}

	// Remote: one (uid, seed, policy) stream across the whole trajectory.
	var remote []ReportedLocation
	for i, mv := range moves {
		resp, err := c.Report(ReportRequest{
			Cell:   [2]int{mv.leaf.Coord.Q, mv.leaf.Coord.R},
			UID:    3,
			Policy: pol,
			Seed:   seed,
			Count:  count,
		})
		if err != nil {
			t.Fatalf("move %d: %v", i, err)
		}
		if resp.Reanchored != mv.reanchors {
			t.Fatalf("move %d: reanchored = %v, want %v", i, resp.Reanchored, mv.reanchors)
		}
		remote = append(remote, resp.Reports...)
	}

	// Local: the same forest (delta 0 covers every level-1 subtree), one
	// session re-anchored along the same moves.
	forest, err := c.FetchForest(tree, pol.PrivacyLevel, 0)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := session.New(session.Config{
		Tree: tree, Entry: forest.Entries[rootA], Delta: forest.Delta,
		Policy: pol, Priors: priors, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	var local []loctree.NodeID
	current := rootA
	for i, mv := range moves {
		root, _ := tree.AncestorAt(mv.leaf, pol.PrivacyLevel)
		if root != current {
			if err := sess.Rebind(session.Rebind{Entry: forest.Entries[root], Delta: forest.Delta}); err != nil {
				t.Fatalf("move %d rebind: %v", i, err)
			}
			current = root
		}
		draws := make([]loctree.NodeID, count)
		if err := sess.DrawCellNInto(mv.leaf, draws); err != nil {
			t.Fatalf("move %d: %v", i, err)
		}
		local = append(local, draws...)
	}

	if len(remote) != len(local) {
		t.Fatalf("remote drew %d, local %d", len(remote), len(local))
	}
	for i := range local {
		if remote[i].Q != local[i].Coord.Q || remote[i].R != local[i].Coord.R {
			t.Fatalf("draw %d diverged across re-anchor: remote (%d,%d) vs local %v",
				i, remote[i].Q, remote[i].R, local[i])
		}
	}
}

// TestReportBudget429 drives a budget-capped server over the wire: the
// documented 429 must appear exactly when the sliding-window accountant
// says the user's epsilon window is spent, and the stats route must expose
// the budget counters.
func TestReportBudget429(t *testing.T) {
	specs := reportSpecs("ra")
	eps := 15.0 // registry default epsilon for specs that leave it zero
	reg, err := registry.New(specs, registry.Options{
		Budget: budget.Config{LimitEps: 2 * eps, Window: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewMultiHandler(reg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h.Mux())
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL)
	tree, _, err := c.FetchTree()
	if err != nil {
		t.Fatal(err)
	}
	leaf := tree.LevelNodes(0)[0]
	req := ReportRequest{
		Region: "ra",
		Cell:   [2]int{leaf.Coord.Q, leaf.Coord.R},
		UID:    21,
		Policy: policy.Policy{PrivacyLevel: 1},
		Seed:   9,
	}
	for i := 0; i < 2; i++ {
		resp, err := c.Report(req)
		if err != nil {
			t.Fatalf("in-budget report %d: %v", i+1, err)
		}
		if !resp.Budgeted || resp.EpsSpent != eps {
			t.Fatalf("budget echo: %+v", resp)
		}
	}
	// Third draw exceeds 2*eps: a 429 whose X-Corgi-Eps-Remaining header
	// carries the spent window's headroom, as /v1/lease and the stream
	// ERROR frame do.
	_, err = c.Report(req)
	var rej *registry.Rejection
	if !errors.As(err, &rej) || rej.Status != http.StatusTooManyRequests {
		t.Fatalf("over-budget report -> %v, want 429", err)
	}
	if rem, ok := rej.EpsRemaining, rej.HasEps; !ok || rem != 0 {
		t.Fatalf("429 headroom = %v, %v; want 0, true", rem, ok)
	}

	// The batch path classifies per item.
	batch, err := c.reportBatch(context.Background(), []ReportRequest{req, {Region: "ra",
		Cell: req.Cell, UID: 22, Policy: policy.Policy{PrivacyLevel: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Items[0].Status != http.StatusTooManyRequests {
		t.Fatalf("batch item 0 status %d, want 429", batch.Items[0].Status)
	}
	if batch.Items[1].Status != http.StatusOK {
		t.Fatalf("batch item 1 (different user) status %d, want 200", batch.Items[1].Status)
	}

	// budget_* counters surface in /v1/stats.
	statsResp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var stats MultiStatsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.BudgetTotal == nil {
		t.Fatal("budget_total missing from /v1/stats")
	}
	if stats.BudgetTotal.Rejections != 2 || stats.BudgetTotal.Charges != 3 {
		t.Fatalf("budget totals: %+v", *stats.BudgetTotal)
	}
	if _, ok := stats.Budget["ra"]; !ok {
		t.Fatal("per-region budget stats missing")
	}
}

// TestMalformedRefusalsOverJSON: a batch envelope whose item reads 200
// without a report, or refuses with a status outside 400-599, is a
// malformed answer, not a set of outcomes; and a 429 whose
// X-Corgi-Eps-Remaining is not a finite number reads as a 429 without
// headroom, as an unparsable one does.
func TestMalformedRefusalsOverJSON(t *testing.T) {
	var body, header string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/report" {
			w.Header().Set(epsRemainingHeader, header)
			http.Error(w, "spent", http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(body))
	}))
	defer srv.Close()
	c := NewClient(srv.URL)
	ctx := context.Background()
	items := []ReportRequest{{Region: "ra"}}
	for _, body = range []string{
		`{"items":[{"status":200}]}`,
		`{"items":[{"status":0,"error":"no status"}]}`,
		`{"items":[{"status":302,"error":"moved"}]}`,
		`{"items":[{"status":600,"error":"high"}]}`,
	} {
		if resp, err := c.reportBatch(ctx, items); err == nil {
			t.Errorf("envelope %s decoded as %+v, want a malformed-envelope error", body, resp.Items)
		}
	}
	want := registry.Rejection{Status: http.StatusTooManyRequests, Msg: "spent", HasEps: true}
	body = `{"items":[{"status":429,"error":"spent","eps_remaining":0,"has_eps_remaining":true}]}`
	if resp, err := c.reportBatch(ctx, items); err != nil || resp.Items[0].Rejection != want {
		t.Errorf("well-formed refused item: %+v, %v", resp, err)
	}

	for _, tc := range []struct {
		header string
		want   registry.Rejection
	}{
		{"0.5", registry.Rejection{Status: http.StatusTooManyRequests, Msg: "spent", EpsRemaining: 0.5, HasEps: true}},
		{"0", want},
		{"NaN", registry.Rejection{Status: http.StatusTooManyRequests, Msg: "spent"}},
		{"Inf", registry.Rejection{Status: http.StatusTooManyRequests, Msg: "spent"}},
		{"-Inf", registry.Rejection{Status: http.StatusTooManyRequests, Msg: "spent"}},
		{"1e999", registry.Rejection{Status: http.StatusTooManyRequests, Msg: "spent"}},
		{"x", registry.Rejection{Status: http.StatusTooManyRequests, Msg: "spent"}},
	} {
		header = tc.header
		_, err := c.Report(ReportRequest{Region: "ra"})
		var rej *registry.Rejection
		if !errors.As(err, &rej) || *rej != tc.want {
			t.Errorf("429 with headroom header %q: %v, want %+v", tc.header, err, tc.want)
		}
	}
}
