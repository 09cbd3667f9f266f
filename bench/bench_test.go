package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
)

func TestPercentileIsNearestRankCeil(t *testing.T) {
	sorted := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct{ p, want float64 }{
		{0, 10}, {0.05, 10}, {0.1, 10}, {0.11, 20}, {0.5, 50}, {0.51, 60}, {0.9, 90}, {0.99, 100}, {1, 100},
	} {
		if got := percentile(sorted, tc.p); got != tc.want {
			t.Errorf("percentile(p=%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestHistQuantileMatchesExactSamples(t *testing.T) {
	// Below 256 ns every value has its own bucket, so the histogram must
	// agree with the exact nearest-rank percentile.
	h := newHist()
	var sorted []float64
	for v := 1; v <= 200; v++ {
		h.record(int64(v))
		sorted = append(sorted, float64(v))
	}
	for _, p := range []float64{0.01, 0.5, 0.505, 0.99, 1} {
		if got, want := h.quantile(p), percentile(sorted, p); got != want {
			t.Errorf("quantile(%v) = %v, want %v", p, got, want)
		}
	}
	// Above it a bucket is at most 0.8% wide and the answer lies inside it.
	big := newHist()
	for _, v := range []int64{1_000_000, 2_000_000, 3_000_000} {
		big.record(v)
	}
	if got := big.quantile(0.5); got < 2_000_000*0.992 || got > 2_000_000*1.008 {
		t.Errorf("quantile(0.5) of 1,2,3 ms = %v ns", got)
	}
	// Bucket bounds must tile the axis without gaps or overlaps.
	for _, v := range []uint64{0, 1, 255, 256, 257, 511, 512, 1 << 20, 1<<40 + 12345} {
		low, width := histBounds(histBucket(v))
		if float64(v) < low || float64(v) >= low+width {
			t.Errorf("value %d filed in bucket [%v, %v)", v, low, low+width)
		}
	}
}

func TestTrimmedMeanCutsBothTails(t *testing.T) {
	h := newHist()
	for v := 1; v <= 100; v++ {
		h.record(int64(v))
	}
	h.record(250) // one outlier that a plain mean would feel
	// Ranks ceil(0.1*101)=11 .. ceil(0.9*101)=91 hold the values 11..91.
	if got, want := h.trimmedMean(0.1, 0.9), 51.0; got != want {
		t.Errorf("trimmedMean = %v, want %v", got, want)
	}
	// Two populations split 50/50: the middle 80% averages them steadily
	// where the median would sit on the boundary.
	two := newHist()
	for i := 0; i < 500; i++ {
		two.record(100)
		two.record(200)
	}
	if got := two.trimmedMean(0.1, 0.9); math.Abs(got-150) > 0.1 {
		t.Errorf("trimmedMean of two equal populations = %v, want 150", got)
	}
}

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    uint64
		want float64
	}{
		{5, 0.5}, {20, 0.5}, {40, 0.75}, {100, 0.9}, {1000, 0.99}, {5_000_000, 0.99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	for n := uint64(21); n < 2000; n += 7 {
		p := tailPercentile(n)
		if beyond := int(n) - nearestRank(p, int(n)); beyond < 10 {
			t.Fatalf("n=%d: p%v leaves only %d samples beyond it", n, p*100, beyond)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	// statistics.quantiles([3, 5], n=4) extrapolates: [2.5, 4.0, 5.5]
	q1, q2, q3 = quartiles([]float64{3, 5})
	if q1 != 2.5 || q2 != 4 || q3 != 5.5 {
		t.Errorf("quartiles of two = %v %v %v, want 2.5 4 5.5", q1, q2, q3)
	}
}

func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	spans := []span{
		{name: "op", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 40, parent: 0},
		{name: "b", start: 30, end: 60, parent: 0},  // overlaps a by 10
		{name: "c", start: 90, end: 120, parent: 0}, // runs past its parent
		{name: "a.inner", start: 15, end: 20, parent: 1},
		{name: "other", start: 200, end: 250, parent: -1},
	}
	want := []int64{100 - (50 + 10), 30 - 5, 30, 30, 5, 50}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	lowerBetter := metricSpec{Name: "m", Unit: "us", Better: lower, Bound: 0.10}
	higherBetter := metricSpec{Name: "m", Unit: "1/s", Better: higher, Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		name string
		spec metricSpec
		a, b []float64
		want string
	}{
		{"same", lowerBetter, steady, steady, unchanged},
		{"slower", lowerBetter, steady, []float64{120, 121, 119, 120, 120}, regressed},
		{"faster", lowerBetter, steady, []float64{80, 81, 79, 80, 80}, improved},
		{"rate up", higherBetter, steady, []float64{120, 121, 119, 120, 120}, improved},
		{"rate down", higherBetter, steady, []float64{85, 86, 84, 85, 85}, regressed},
		{"within bound", lowerBetter, steady, []float64{105, 106, 104, 105, 105}, unchanged},
		{"noisy", lowerBetter, []float64{80, 120, 100, 90, 115}, steady, unresolved},
	} {
		if got := judge(tc.spec, tc.a, tc.b).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the harness's
// metric tables one declaration: regenerate the file with `go run ./bench
// -spec > BENCHMARK.json` after changing a table.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk benchmarkSpec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	if want := currentSpec(); !reflect.DeepEqual(onDisk, want) {
		t.Errorf("BENCHMARK.json differs from the harness's tables; regenerate it with `go run ./bench -spec`")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	sawSetup := false
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q (unit %q) breaks the naming rules or repeats", m.Name, m.Unit)
		}
		seen[m.Name] = true
		sawSetup = sawSetup || m == metricSpec{Name: "setup_s", Unit: "s", Better: lower, Bound: m.Bound}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s has bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !sawSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, w := range workloadSpecs {
		if !name.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q breaks the naming rules", w.Name)
		}
	}
}

func TestTraceIsDeterministicPerSeed(t *testing.T) {
	spec := replaySpec()
	sys, err := hexgrid.NewSystem(spec.Center(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := loctree.NewAt(sys, spec.Center(), spec.Height)
	if err != nil {
		t.Fatal(err)
	}
	build := func(seed int64) []replayOp {
		w := &replayWorld{tree: tree}
		if err := w.buildTrace(seed, smokeSizes); err != nil {
			t.Fatal(err)
		}
		return w.ops
	}
	a, b, other := build(5), build(5), build(6)
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("seed 5 built two different traces (%d and %d ops)", len(a), len(b))
	}
	if reflect.DeepEqual(a, other) {
		t.Error("seeds 5 and 6 built the same trace")
	}
	classes := map[policyClass]bool{}
	for _, o := range a {
		classes[o.class] = true
		if o.class != classOf(o.req.UID) || o.req.Seed != o.req.UID*1000003+7 || o.req.Count != 1 {
			t.Fatalf("op for user %d: class %d, seed %d, count %d", o.req.UID, o.class, o.req.Seed, o.req.Count)
		}
	}
	if len(classes) != 4 {
		t.Errorf("trace exercises policy classes %v, want all four", classes)
	}
}

// TestSmokeAllWorkloads runs every workload at tiny size, untraced: every
// output check must pass and every end-to-end metric must be reported.
func TestSmokeAllWorkloads(t *testing.T) {
	t.Parallel()
	tmp := t.TempDir()
	digests := map[string]string{}
	for _, w := range workloadSpecs {
		cfg := config{seed: 3, seconds: 0.3, smoke: true, tmpRoot: tmp}
		res, err := runWorkload(context.Background(), w.Name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d errors=%v", w.Name, res.Correct, res.Attempted, res.Failed, res.Errors)
		}
		for _, m := range endToEnd {
			if v, ok := res.Metrics[m.Name]; !ok || v.Value <= 0 || v.Unit != m.Unit {
				t.Errorf("%s: metric %s = %+v", w.Name, m.Name, v)
			}
		}
		digests[w.Name] = res.Digest
	}
	if digests[replayInproc] == "" || digests[replayInproc] != digests[replayStream] {
		t.Errorf("in-process and stream replays drew different digests: %v", digests)
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Errorf("cold_forest left %d entries in its temp directory", len(left))
	}
}

// TestSmokeTracedRun runs one traced invocation at tiny size: the layer
// suite must pass its own checks, report every per-layer metric, and write
// a span file whose records parse.
func TestSmokeTracedRun(t *testing.T) {
	t.Parallel()
	tmp := t.TempDir()
	out := filepath.Join(t.TempDir(), "spans.jsonl")
	cfg := config{seed: 3, seconds: 0.4, smoke: true, trace: true, tmpRoot: tmp, spanOut: out}
	res, err := runWorkload(context.Background(), replayLease, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("traced run failed its checks: %v", res.Errors)
	}
	for _, m := range perLayer {
		if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit {
			t.Errorf("per-layer metric %s = %+v", m.Name, v)
		}
	}
	if got := res.Metrics["budget.overspend_users"].Value; got != 0 {
		t.Errorf("budget.overspend_users = %v, want 0", got)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var rec spanRecord
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil || rec.Name == "" || rec.EndNs < rec.StartNs {
		t.Errorf("span file's last record %q: %v", lines[len(lines)-1], err)
	}
}
