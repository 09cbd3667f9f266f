package loadgen

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestReportGolden pins the report: one hand-written sample set covering
// every slice (cold, warm, re-anchor, degraded, 429, transport error,
// batch) must marshal byte for byte as it did when summarize lived in
// cmd/corgi-loadgen (testdata/golden_report.json, recorded at that parent
// commit).
func TestReportGolden(t *testing.T) {
	ms := time.Millisecond
	workers := []*worker{
		{itemsOK: 11, itemsErr: 4, samples: []sample{
			{latency: 2 * time.Second, status: 200, bytes: 4096, region: "sf", cold: true},
			{latency: 5 * ms, status: 200, bytes: 512, region: "sf"},
			{latency: 7 * ms, status: 200, bytes: 640, region: "nyc"},
			{latency: 12 * ms, status: 200, region: "sf", reanchored: true},
			{latency: 900 * ms, status: 200, region: "nyc", cold: true, reanchored: true},
			{latency: 3 * ms, status: 200, region: "nyc", degraded: true},
			{latency: 1 * ms, status: 429, region: "sf", budgetRejected: true},
		}},
		{itemsOK: 6, itemsErr: 3, samples: []sample{
			{latency: 30 * ms, region: "nyc", err: true},
			{latency: 4 * ms, status: 422, region: "sf", err: true, cold: true},
			{latency: 40 * ms, status: 200, bytes: 9000, cold: true},
			{latency: 9 * ms, status: 200, bytes: 8000, degraded: true},
			{latency: 350 * time.Microsecond, status: 200},
			{latency: 15 * ms, status: 413, err: true},
		}},
		{},
	}
	rep := summarize(workers, 2*time.Second, RunConfig{
		Server: "http://127.0.0.1:8080", Workload: "report", Transport: "http",
		Regions: []string{"sf", "nyc"}, DurationS: 2, Concurrency: 3, RateRPS: 50, Batch: 4,
		Mix: "zipf", CellMix: "uniform", ReportCount: 2, TraceSource: "synthetic:zipf/cells:uniform",
	})
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/golden_report.json")
	if err != nil {
		t.Fatal(err)
	}
	if got = append(got, '\n'); !bytes.Equal(got, want) {
		t.Errorf("report moved; got:\n%s", got)
	}
}

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
	rep := summarize([]*worker{w}, time.Second, RunConfig{})
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
	rep = summarize([]*worker{{samples: []sample{{latency: time.Millisecond, status: 200}}}}, time.Second, RunConfig{})
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
		{latency: 5 * time.Millisecond, err: true}, // transport error inside a batch
	}
	rep := summarize([]*worker{w, {}}, 2*time.Second, RunConfig{Batch: 0})
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
	if len(rep.PerRegion) != 2 {
		t.Errorf("per_region %v: a sample that names no region belongs to none", rep.PerRegion)
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
	rep := summarize([]*worker{w}, time.Second, RunConfig{Workload: "mobility"})
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
