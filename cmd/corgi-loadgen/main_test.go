package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"corgi/internal/budget"
	"corgi/internal/loctree"
	"corgi/internal/proto"
	"corgi/internal/registry"
	"corgi/internal/stream"
)

func TestLoadTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.txt")
	content := "# multi-region replay\nsf 1 0\nnyc 2 1\n\nla 1 2\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	trace, err := loadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []request{
		{Region: "sf", Level: 1, Delta: 0},
		{Region: "nyc", Level: 2, Delta: 1},
		{Region: "la", Level: 1, Delta: 2},
	}
	if len(trace) != len(want) {
		t.Fatalf("trace %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Errorf("entry %d = %v, want %v", i, trace[i], want[i])
		}
	}

	bad := filepath.Join(t.TempDir(), "bad.txt")
	os.WriteFile(bad, []byte("sf one 0\n"), 0o644)
	if _, err := loadTrace(bad); err == nil {
		t.Error("non-integer trace line must fail")
	}
	empty := filepath.Join(t.TempDir(), "empty.txt")
	os.WriteFile(empty, []byte("# nothing\n"), 0o644)
	if _, err := loadTrace(empty); err == nil {
		t.Error("empty trace must fail")
	}
}

func TestBuildTraceSyntheticMix(t *testing.T) {
	regions := []string{"sf", "nyc", "la"}
	trace, source, err := buildTrace(regions, "", "", "1,2", "0,1", "zipf", 7)
	if err != nil {
		t.Fatal(err)
	}
	if source != "synthetic:zipf" {
		t.Errorf("source %q", source)
	}
	counts := map[string]int{}
	for _, r := range trace {
		counts[r.Region]++
		if r.Level != 1 && r.Level != 2 {
			t.Fatalf("level %d escaped -levels", r.Level)
		}
		if r.Delta != 0 && r.Delta != 1 {
			t.Fatalf("delta %d escaped -deltas", r.Delta)
		}
	}
	// Zipf: sf must dominate nyc, nyc must dominate la.
	if counts["sf"] <= counts["nyc"] || counts["nyc"] <= counts["la"] {
		t.Errorf("zipf mix not monotone: %v", counts)
	}

	if _, _, err := buildTrace(regions, "", "", "1", "0", "pareto", 7); err == nil {
		t.Error("unknown mix must fail")
	}
	if _, _, err := buildTrace(regions, "", "", "x", "0", "uniform", 7); err == nil {
		t.Error("bad levels list must fail")
	}
	if _, _, err := buildTrace(regions, "a", "b", "1", "0", "uniform", 7); err == nil {
		t.Error("-trace plus -checkins must fail")
	}
}

// reportTestServer runs an in-process multi-region server for the report
// workload tests.
func reportTestServer(t *testing.T, names ...string) *httptest.Server {
	t.Helper()
	srv, _ := reportTestServerOpts(t, registry.Options{}, names...)
	return srv
}

// reportTestServerOpts is reportTestServer with registry options, also
// returning the registry so a test can attach a stream listener to it.
func reportTestServerOpts(t *testing.T, opts registry.Options, names ...string) (*httptest.Server, *registry.Registry) {
	t.Helper()
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
	reg, err := registry.New(specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	h, err := proto.NewMultiHandler(reg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h.Mux())
	t.Cleanup(srv.Close)
	return srv, reg
}

func TestBuildReportTraceAndDraw(t *testing.T) {
	if testing.Short() {
		t.Skip("spins a real region")
	}
	srv := reportTestServer(t, "lg-a", "lg-b")
	regions := []string{"lg-a", "lg-b"}
	trace, source, err := buildReportTrace(srv.URL, regions, reportTraceConfig{
		Levels: "1", Mix: "zipf", CellMix: "zipf", Users: 10, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if source == "" || len(trace) == 0 {
		t.Fatalf("trace %d entries, source %q", len(trace), source)
	}
	counts := map[string]int{}
	for _, r := range trace {
		counts[r.Region]++
		if r.ColdKey == "" {
			t.Fatal("report entry without a cold key")
		}
		if r.Level != 1 {
			t.Fatalf("level %d escaped -levels", r.Level)
		}
	}
	if counts["lg-a"] <= counts["lg-b"] {
		t.Errorf("zipf region mix not monotone: %v", counts)
	}

	// One end-to-end draw through the real wire path.
	ctx := context.Background()
	h := proto.NewClient(srv.URL).Remote()
	var cold coldTracker
	s, ok, bad := doReports(ctx, h, trace[:1], 0, 3, &cold)
	if s.err || ok != 1 || bad != 0 {
		t.Fatalf("doReports: sample %+v ok %d bad %d", s, ok, bad)
	}
	if !s.cold {
		t.Error("first draw for a subtree must be cold")
	}
	s, _, _ = doReports(ctx, h, trace[:1], 0, 3, &cold)
	if s.cold {
		t.Error("repeat draw for the same subtree must be warm")
	}

	// Batch path with per-item accounting.
	s, ok, bad = doReports(ctx, h, entriesAt(trace, 1, 4), 0, 2, &cold)
	if s.err || ok != 4 || bad != 0 {
		t.Fatalf("doReports batch: sample %+v ok %d bad %d", s, ok, bad)
	}

	// Reports/s lands in the summary for the report workload.
	w := &worker{itemsOK: 6}
	w.samples = []sample{{latency: time.Millisecond, status: 200, region: "lg-a"}}
	rep := summarize([]*worker{w}, 2*time.Second, config{Workload: "report", ReportCount: 3})
	if rep.ReportsPerSec != 9 {
		t.Errorf("reports_per_sec = %v, want 9", rep.ReportsPerSec)
	}
}

func TestLoadReportTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("spins a real region")
	}
	srv := reportTestServer(t, "lg-a")
	// Grab two real cells via the proto client.
	tree, _, err := proto.NewRegionClient(srv.URL, "lg-a").FetchTree()
	if err != nil {
		t.Fatal(err)
	}
	leaves := tree.LevelNodes(0)
	path := filepath.Join(t.TempDir(), "trace.txt")
	content := "# report replay\n"
	for _, l := range leaves[:2] {
		content += "lg-a 1 " + itoa(l.Coord.Q) + " " + itoa(l.Coord.R) + "\n"
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	trace, source, err := buildReportTrace(srv.URL, []string{"lg-a"}, reportTraceConfig{
		TracePath: path, Users: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 2 || source != "replay:"+path {
		t.Fatalf("trace %v source %q", trace, source)
	}
	for _, r := range trace {
		if r.ColdKey == "" || r.Region != "lg-a" {
			t.Fatalf("bad entry %+v", r)
		}
	}
}

func itoa(v int) string { return strconv.Itoa(v) }

func TestQuantilesAndHistogram(t *testing.T) {
	var ms []float64
	for i := 1; i <= 100; i++ {
		ms = append(ms, float64(i))
	}
	q := quantiles(ms)
	if q.P50 != 50 || q.P99 != 99 || q.Max != 100 || q.Mean != 50.5 {
		t.Errorf("quantiles %+v", q)
	}
	if z := quantiles(nil); z.P50 != 0 || z.Max != 0 {
		t.Errorf("empty quantiles %+v", z)
	}

	h := histogram([]float64{0.5, 2, 20, 20000})
	var total int64
	for _, b := range h {
		total += b.Count
	}
	if total != 4 {
		t.Errorf("histogram dropped samples: %+v", h)
	}
	if h[len(h)-1].UpToMs != 30000 {
		t.Errorf("tail bucket %+v", h[len(h)-1])
	}
	if histogram(nil) != nil {
		t.Error("empty histogram must be nil")
	}
}

func TestWeightedPick(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	counts := [3]int{}
	for i := 0; i < 10000; i++ {
		counts[weightedPick(rng, []float64{8, 1, 1})]++
	}
	if counts[0] < 7000 || counts[1] == 0 || counts[2] == 0 {
		t.Errorf("weighted pick skew: %v", counts)
	}
}

func TestColdTracker(t *testing.T) {
	var ct coldTracker
	a := request{Region: "sf", Level: 1, Delta: 0}
	b := request{Region: "sf", Level: 1, Delta: 1}
	if !ct.first(a) {
		t.Error("first sighting of a key must be cold")
	}
	if ct.first(a) {
		t.Error("second sighting of a key must be warm")
	}
	if !ct.first(b) {
		t.Error("a distinct (region, level, delta) key must be cold")
	}
	// A failed first request releases its claim: the retry that actually
	// absorbs the bootstrap is the one labeled cold.
	ct.forget(a)
	if !ct.first(a) {
		t.Error("a forgotten key must be cold again")
	}
	if ct.first(a) {
		t.Error("re-claimed key must be warm")
	}
}

// TestSummarizeColdWarmSplit checks cold samples are sliced out of the
// warm quantiles: a multi-second bootstrap absorbed by a first request
// must not set the warm max.
func TestSummarizeColdWarmSplit(t *testing.T) {
	w := &worker{}
	w.samples = []sample{
		{latency: 2 * time.Second, status: 200, region: "sf", cold: true},
		{latency: 5 * time.Millisecond, status: 200, region: "sf"},
		{latency: 7 * time.Millisecond, status: 200, region: "sf"},
	}
	rep := summarize([]*worker{w}, time.Second, config{})
	if rep.ColdRequests != 1 {
		t.Fatalf("cold requests %d, want 1", rep.ColdRequests)
	}
	if rep.LatencyCold == nil || rep.LatencyCold.Max != 2000 {
		t.Fatalf("cold latency %+v", rep.LatencyCold)
	}
	if rep.LatencyWarm == nil || rep.LatencyWarm.Max != 7 {
		t.Fatalf("warm latency %+v, want max 7ms without the bootstrap", rep.LatencyWarm)
	}
	if rep.Latency.Max != 2000 {
		t.Fatalf("overall latency must still include cold samples: %+v", rep.Latency)
	}

	// All-warm runs omit the cold block rather than reporting zeros.
	rep = summarize([]*worker{{samples: []sample{{latency: time.Millisecond, status: 200}}}}, time.Second, config{})
	if rep.LatencyCold != nil || rep.LatencyWarm == nil {
		t.Fatalf("all-warm run: cold %+v warm %+v", rep.LatencyCold, rep.LatencyWarm)
	}
}

func TestSummarize(t *testing.T) {
	w := &worker{itemsOK: 3, itemsErr: 1}
	w.samples = []sample{
		{latency: 10 * time.Millisecond, status: 200, bytes: 100, region: "sf"},
		{latency: 20 * time.Millisecond, status: 200, bytes: 100, region: "nyc"},
		{latency: 30 * time.Millisecond, status: 422, region: "sf", err: true},
		{latency: 5 * time.Millisecond, err: true}, // transport error
	}
	rep := summarize([]*worker{w, {}}, 2*time.Second, config{Batch: 0})
	if rep.Requests != 4 || rep.Errors != 2 || rep.ItemsOK != 3 || rep.ItemsErr != 1 {
		t.Errorf("report counts %+v", rep)
	}
	if rep.ThroughputRPS != 2 {
		t.Errorf("throughput %v", rep.ThroughputRPS)
	}
	if rep.StatusCounts["200"] != 2 || rep.StatusCounts["422"] != 1 || rep.StatusCounts["transport_error"] != 1 {
		t.Errorf("status counts %v", rep.StatusCounts)
	}
	sf := rep.PerRegion["sf"]
	if sf.Requests != 2 || sf.Errors != 1 || sf.Latency == nil {
		t.Errorf("sf region report %+v", sf)
	}
	if rep.Latency.P50 == 0 || rep.Latency.Max != 30 {
		t.Errorf("latency %+v", rep.Latency)
	}
}

// TestQuantilesNearestRank pins the percentile bugfix: nearest-rank (ceil)
// quantiles against known values. The old int(q*(n-1)) truncation biased
// high quantiles low on small samples — with 10 samples it reported p99 as
// 9 instead of 10, and p90 as 9 instead of... it happened to agree there,
// but p95 came out 9 instead of 10.
func TestQuantilesNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	cases := []struct {
		name               string
		ms                 []float64
		p50, p90, p95, p99 float64
		max                float64
	}{
		// Nearest rank over 1..10: P(q) = value at index ceil(q*10).
		{"ten", seq(10), 5, 9, 10, 10, 10},
		// A single sample is every quantile.
		{"one", []float64{7}, 7, 7, 7, 7, 7},
		// Two samples: p50 is the lower, everything above the upper.
		{"two", []float64{1, 9}, 1, 9, 9, 9, 9},
		// 1..100: quantiles land exactly on their rank.
		{"hundred", seq(100), 50, 90, 95, 99, 100},
		// 1..20: p95 = ceil(19)th = 19, p99 = ceil(19.8)th = 20.
		{"twenty", seq(20), 10, 18, 19, 20, 20},
		// Unsorted input must not matter.
		{"unsorted", []float64{30, 10, 20}, 20, 30, 30, 30, 30},
	}
	for _, tc := range cases {
		q := quantiles(tc.ms)
		if q.P50 != tc.p50 || q.P90 != tc.p90 || q.P95 != tc.p95 || q.P99 != tc.p99 || q.Max != tc.max {
			t.Errorf("%s: got p50=%v p90=%v p95=%v p99=%v max=%v, want p50=%v p90=%v p95=%v p99=%v max=%v",
				tc.name, q.P50, q.P90, q.P95, q.P99, q.Max, tc.p50, tc.p90, tc.p95, tc.p99, tc.max)
		}
	}
}

// TestWaypointMobilityTrace checks the synthetic random-waypoint source:
// per-user order, lattice adjacency (steps move at most one cell except
// documented waypoint teleports), and actual movement.
func TestWaypointMobilityTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("spins a real region")
	}
	srv := reportTestServer(t, "lg-a")
	w, err := fetchRegionWorld(srv.URL, "lg-a")
	if err != nil {
		t.Fatal(err)
	}
	worlds := map[string]*regionWorld{"lg-a": w}
	rng := rand.New(rand.NewSource(2))
	trace, err := waypointMobilityTrace([]string{"lg-a"}, worlds, []int{1}, 3, 40, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 3*40 {
		t.Fatalf("trace has %d entries, want %d", len(trace), 3*40)
	}
	perUser := map[int64][]request{}
	for _, r := range trace {
		if r.Region != "lg-a" || r.Level != 1 || r.ColdKey == "" {
			t.Fatalf("bad entry %+v", r)
		}
		perUser[r.UID] = append(perUser[r.UID], r)
	}
	if len(perUser) != 3 {
		t.Fatalf("trace spans %d users, want 3", len(perUser))
	}
	moved := false
	for uid, reqs := range perUser {
		if len(reqs) != 40 {
			t.Fatalf("user %d has %d steps, want 40", uid, len(reqs))
		}
		for i := 1; i < len(reqs); i++ {
			if reqs[i].Cell != reqs[i-1].Cell {
				moved = true
			}
			if reqs[i].Seed != reqs[0].Seed {
				t.Fatalf("user %d changed seed mid-trajectory", uid)
			}
		}
	}
	if !moved {
		t.Fatal("no user ever moved")
	}
}

// TestGowallaMobilityTrace feeds a tiny synthetic check-in corpus through
// the trajectory source: global time order, per-user order preserved.
func TestGowallaMobilityTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("spins a real region")
	}
	// The builtin "sf" metro is required for -checkins region assignment.
	srv := reportTestServer(t, "sf")
	w, err := fetchRegionWorld(srv.URL, "sf")
	if err != nil {
		t.Fatal(err)
	}
	// Synthesize check-ins across the region's own leaves so every point
	// lands in the tree.
	leaves := w.leaves
	var lines []string
	ts := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 30; i++ {
		leaf := leaves[(i*7)%len(leaves)]
		c := w.tree.Center(leaf)
		lines = append(lines, fmt.Sprintf("%d\t%s\t%.6f\t%.6f\t%d",
			i%3, ts.Add(time.Duration(i)*time.Minute).Format(time.RFC3339), c.Lat, c.Lng, i))
	}
	path := filepath.Join(t.TempDir(), "checkins.txt")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	worlds := map[string]*regionWorld{"sf": w}
	rng := rand.New(rand.NewSource(1))
	trace, err := gowallaMobilityTrace(path, []string{"sf"}, worlds, []int{1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 30 {
		t.Fatalf("trace has %d entries, want 30", len(trace))
	}
	// The corpus timestamps are strictly increasing, so the trace must
	// replay the corpus order exactly (round-robin over users 0,1,2).
	for i, r := range trace {
		if r.UID != int64(i%3) {
			t.Fatalf("entry %d is user %d, want %d (global time order broken)", i, r.UID, i%3)
		}
	}
}

// TestMobilityEndToEnd drives doReports against a live in-process server:
// the subtree crossing must come back with the reanchored flag and land in
// the re-anchor latency slice.
func TestMobilityEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spins a real region")
	}
	srv := reportTestServer(t, "lg-a")
	w, err := fetchRegionWorld(srv.URL, "lg-a")
	if err != nil {
		t.Fatal(err)
	}
	roots := w.tree.LevelNodes(1)
	leafA := w.tree.LeavesUnder(roots[0])[0]
	leafB := w.tree.LeavesUnder(roots[1])[0]
	mk := func(leaf loctree.NodeID) request {
		return mobilityRequest(w, "lg-a", 1, leaf, 4)
	}
	ctx := context.Background()
	h := proto.NewClient(srv.URL).Remote()
	var cold coldTracker
	wk := &worker{}
	wk.record(doReports(ctx, h, []request{mk(leafA)}, 0, 1, &cold))
	wk.record(doReports(ctx, h, []request{mk(leafA)}, 0, 1, &cold))
	wk.record(doReports(ctx, h, []request{mk(leafB)}, 0, 1, &cold))
	// Crossing back: subtree A's forest is already warm, so this sample is
	// a pure re-anchor — the middle latency tier.
	wk.record(doReports(ctx, h, []request{mk(leafA)}, 0, 1, &cold))
	if wk.itemsOK != 4 || wk.itemsErr != 0 {
		t.Fatalf("items ok=%d err=%d", wk.itemsOK, wk.itemsErr)
	}
	if !wk.samples[0].cold || wk.samples[1].cold {
		t.Fatalf("cold split wrong: %+v", wk.samples[:2])
	}
	if wk.samples[1].reanchored {
		t.Fatal("warm same-subtree repeat flagged as re-anchor")
	}
	if !wk.samples[2].reanchored || !wk.samples[2].cold {
		t.Fatalf("first subtree crossing must be a cold re-anchor: %+v", wk.samples[2])
	}
	if !wk.samples[3].reanchored || wk.samples[3].cold {
		t.Fatalf("return crossing must be a warm-forest re-anchor: %+v", wk.samples[3])
	}
	rep := summarize([]*worker{wk}, time.Second, config{Workload: "mobility", ReportCount: 1})
	if rep.Reanchors != 2 {
		t.Fatalf("reanchors = %d, want 2", rep.Reanchors)
	}
	if rep.ReanchorRate == 0 {
		t.Fatal("reanchor rate missing")
	}
	if rep.LatencyReanchor == nil {
		t.Fatal("re-anchor latency slice missing")
	}
}

// fakeHandler answers every Report with one canned outcome.
type fakeHandler struct {
	res *registry.ReportResult
	err error
}

func (f fakeHandler) Report(context.Context, registry.ReportRequest) (*registry.ReportResult, error) {
	return f.res, f.err
}

func (f fakeHandler) Lease(context.Context, registry.LeaseRequest) (*registry.LeaseGrant, error) {
	return nil, errors.New("fakeHandler grants no leases")
}

// TestDoReportsClassification pins the one response classification every
// transport shares, over a fake handler: what each kind of answer does to
// the sample, the item counts, and the entry's cold claim, both when the
// request is the first to touch its subtree and when it is a later one.
func TestDoReportsClassification(t *testing.T) {
	rejected := func(status int) error { return &stream.StatusError{Status: status, Msg: "refused"} }
	cases := []struct {
		name string
		h    fakeHandler
		// want is the sample a first (cold-claiming) request must produce;
		// a later request differs only in cold=false.
		want sample
		ok   int64
		// keepsClaim: the request absorbed the subtree's first solve, so
		// the next request for the key is warm.
		keepsClaim bool
	}{
		{"200", fakeHandler{res: &registry.ReportResult{}},
			sample{status: 200, cold: true}, 1, true},
		{"200 reanchored", fakeHandler{res: &registry.ReportResult{Reanchored: true}},
			sample{status: 200, cold: true, reanchored: true}, 1, true},
		{"200 degraded", fakeHandler{res: &registry.ReportResult{Degraded: true}},
			sample{status: 200, cold: true, degraded: true}, 1, true},
		{"429", fakeHandler{err: rejected(http.StatusTooManyRequests)},
			sample{status: 429, budgetRejected: true}, 0, false},
		{"422", fakeHandler{err: rejected(http.StatusUnprocessableEntity)},
			sample{status: 422, cold: true, err: true}, 0, false},
		{"transport error", fakeHandler{err: errors.New("connection refused")},
			sample{cold: true, err: true}, 0, false},
	}
	entry := request{Region: "sf", Level: 1, ColdKey: "sf|1|root"}
	for _, tc := range cases {
		for _, first := range []bool{true, false} {
			var cold coldTracker
			if !first {
				cold.first(entry)
			}
			got, ok, bad := doReports(context.Background(), tc.h, []request{entry}, 0, 1, &cold)
			want := tc.want
			want.region = entry.Region
			want.cold = want.cold && first
			got.latency = 0
			if got != want || ok != tc.ok || bad != 1-tc.ok {
				t.Errorf("%s (first=%v): sample %+v ok %d bad %d, want %+v ok %d bad %d",
					tc.name, first, got, ok, bad, want, tc.ok, 1-tc.ok)
			}
			// A failed first request releases its claim; a later request
			// never touches one it did not make.
			if stillClaimed := !cold.first(entry); stillClaimed != (tc.keepsClaim || !first) {
				t.Errorf("%s (first=%v): cold claim held = %v", tc.name, first, stillClaimed)
			}
		}
	}

	// 429s are budget rejections in the summary, never errors.
	w := &worker{}
	w.record(doReports(context.Background(), cases[3].h, []request{entry}, 0, 1, &coldTracker{}))
	rep := summarize([]*worker{w}, time.Second, config{Workload: "report"})
	if rep.BudgetRejections != 1 || rep.Errors != 0 || rep.ColdRequests != 0 {
		t.Errorf("429 summary: rejections %d errors %d cold %d", rep.BudgetRejections, rep.Errors, rep.ColdRequests)
	}
}

// TestTransportsAccountAlike replays one user against a budget-capped
// server through each handler the -transport flag can pick — JSON, stream
// frames, and on-device lease draws — and checks the accounting the CI
// smoke asserts: spent budgets show up as rejections on every transport
// and nothing shows up as an error.
func TestTransportsAccountAlike(t *testing.T) {
	if testing.Short() {
		t.Skip("spins a real region")
	}
	const eps = 15 // registry.Spec default
	srv, reg := reportTestServerOpts(t, registry.Options{
		Budget: budget.Config{LimitEps: 6 * eps, Window: time.Hour},
	}, "lg-a")
	ssrv, err := stream.NewServer(reg, stream.Config{})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ssrv.Serve(lis)
	t.Cleanup(func() { ssrv.Close() })
	sc := stream.NewClient(lis.Addr().String(), stream.ClientConfig{Timeout: time.Minute})
	t.Cleanup(func() { sc.Close() })

	w, err := fetchRegionWorld(srv.URL, "lg-a")
	if err != nil {
		t.Fatal(err)
	}
	hc := proto.NewClient(srv.URL)
	handlers := map[string]registry.ReportHandler{
		"http":   hc.Remote(),
		"stream": sc.Remote(),
		"lease": &leaseManager{
			remote: hc.Remote(),
			trees:  map[string]*loctree.Tree{"lg-a": w.tree},
			draws:  4,
			states: map[string]*leaseState{},
		},
	}
	uid := int64(0)
	for name, h := range handlers {
		// A fresh user per transport: each starts with a full window.
		uid++
		entry := mobilityRequest(w, "lg-a", 1, w.leaves[0], uid)
		var cold coldTracker
		wk := &worker{}
		for i := 0; i < 12; i++ {
			wk.record(doReports(context.Background(), h, []request{entry}, 0, 1, &cold))
		}
		rep := summarize([]*worker{wk}, time.Second, config{Workload: "mobility", ReportCount: 1})
		if rep.Errors != 0 || rep.BudgetRejections == 0 || rep.ItemsOK == 0 {
			t.Errorf("%s: errors %d, budget rejections %d, items ok %d; want 0, >0, >0 (statuses %v)",
				name, rep.Errors, rep.BudgetRejections, rep.ItemsOK, rep.StatusCounts)
		}
		if rep.ItemsOK+rep.BudgetRejections != 12 {
			t.Errorf("%s: %d served + %d rejected of 12", name, rep.ItemsOK, rep.BudgetRejections)
		}
	}
}

// TestSummarizeBudgetRejections checks 429 accounting: rejections are
// counted and rated, and budget-rejected samples are not "ok" for the
// re-anchor rate denominator.
func TestSummarizeBudgetRejections(t *testing.T) {
	w := &worker{itemsOK: 2, itemsErr: 2}
	w.samples = []sample{
		{latency: time.Millisecond, status: 200},
		{latency: time.Millisecond, status: 200, reanchored: true},
		{latency: time.Millisecond, status: 429, budgetRejected: true},
		{latency: time.Millisecond, status: 429, budgetRejected: true},
	}
	rep := summarize([]*worker{w}, time.Second, config{Workload: "mobility"})
	if rep.BudgetRejections != 2 {
		t.Fatalf("budget rejections = %d, want 2", rep.BudgetRejections)
	}
	if rep.BudgetRejectionRate != 0.5 {
		t.Fatalf("budget rejection rate = %v, want 0.5", rep.BudgetRejectionRate)
	}
	if rep.Reanchors != 1 || rep.ReanchorRate != 0.5 {
		t.Fatalf("reanchor accounting: %d at rate %v, want 1 at 0.5", rep.Reanchors, rep.ReanchorRate)
	}
	// 429s draw nothing: their near-instant round trips must not dilute
	// the warm (or any other) latency temperature.
	if rep.LatencyWarm == nil || rep.LatencyWarm.Max != 1 {
		t.Fatalf("warm slice polluted by rejections: %+v", rep.LatencyWarm)
	}
}
