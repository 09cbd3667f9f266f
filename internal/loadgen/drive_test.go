package loadgen

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"corgi/internal/loctree"
	"corgi/internal/proto"
	"corgi/internal/registry"
	"corgi/internal/stream"
)

func TestColdTracker(t *testing.T) {
	var ct coldTracker
	a := forestRequest("sf", 1, 0)
	b := forestRequest("sf", 1, 1)
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

// fakeBatcher answers every ReportBatch with canned item outcomes.
type fakeBatcher struct {
	fakeHandler
	items []stream.BatchResult
}

func (f fakeBatcher) ReportBatch(context.Context, []registry.ReportRequest) ([]stream.BatchResult, error) {
	return f.items, nil
}

// fakeForests answers GET /v1/forest with status.
func fakeForests(t *testing.T, status int) target {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet || r.URL.Path != "/v1/forest" {
			t.Errorf("forest target sent %s %s", r.Method, r.URL.Path)
		}
		w.WriteHeader(status)
		w.Write([]byte("forest bytes"))
	}))
	t.Cleanup(srv.Close)
	return forestTarget(srv.URL, 1)
}

// TestDriveClassification pins the one round-trip accounting every target
// shares, over fake report handlers and a fake forest server: what each
// kind of answer does to the sample, the item counts and the entries' cold
// claims, both when the request is the first to touch its keys and when it
// is a later one.
func TestDriveClassification(t *testing.T) {
	rejected := func(status int) error { return &stream.StatusError{Status: status, Msg: "refused"} }
	report := func(res *registry.ReportResult, err error) target {
		return reportTarget(fakeHandler{res, err}, 0, 1)
	}
	batch := func(items ...error) target {
		f := fakeBatcher{}
		for _, err := range items {
			f.items = append(f.items, stream.BatchResult{Result: &registry.ReportResult{}, Err: err})
		}
		return reportTarget(f, 0, 1)
	}
	refused := errors.New("refused")
	unreachable := forestTarget("http://127.0.0.1:1", 1)
	one := []request{{Region: "sf", Level: 1, ColdKey: "sf|1|root"}}
	four := []request{forestRequest("sf", 1, 0), forestRequest("sf", 1, 1), forestRequest("la", 1, 0), forestRequest("la", 2, 0)}
	cases := []struct {
		name    string
		tgt     target
		entries []request
		// want is the sample a first (cold-claiming) request must produce; a
		// later request differs only in cold=false.
		want sample
		ok   int64
		// keeps[i]: entry i was served, so the next request for its key is
		// warm. A failed entry's claim is released.
		keeps []bool
	}{
		{"report 200", report(&registry.ReportResult{}, nil), one,
			sample{status: 200, cold: true}, 1, []bool{true}},
		{"report 200 reanchored", report(&registry.ReportResult{Reanchored: true}, nil), one,
			sample{status: 200, cold: true, reanchored: true}, 1, []bool{true}},
		{"report 200 degraded", report(&registry.ReportResult{Degraded: true}, nil), one,
			sample{status: 200, cold: true, degraded: true}, 1, []bool{true}},
		{"report 429", report(nil, rejected(http.StatusTooManyRequests)), one,
			sample{status: 429, budgetRejected: true}, 0, []bool{false}},
		{"report 422", report(nil, rejected(http.StatusUnprocessableEntity)), one,
			sample{status: 422, cold: true, err: true}, 0, []bool{false}},
		{"report transport error", report(nil, errors.New("connection refused")), one,
			sample{cold: true, err: true}, 0, []bool{false}},
		{"report batch over a handler that cannot batch", report(&registry.ReportResult{}, nil), four,
			sample{cold: true, err: true}, 0, make([]bool, 4)},
		{"report batch, items fail independently", batch(nil, refused, nil, refused), four,
			sample{status: 200, cold: true}, 2, []bool{true, false, true, false}},
		// Three items answered for four sent: nobody can say which entry
		// went unanswered, so the whole round trip failed.
		{"report batch, mismatched answer", batch(nil, nil, nil), four,
			sample{status: 200, cold: true, err: true}, 0, make([]bool, 4)},

		{"forest 200", fakeForests(t, 200), four[:1],
			sample{status: 200, bytes: 12, cold: true}, 1, []bool{true}},
		{"forest 422", fakeForests(t, 422), four[:1],
			sample{status: 422, bytes: 12, cold: true, err: true}, 0, []bool{false}},
		{"forest 429", fakeForests(t, 429), four[:1],
			sample{status: 429, bytes: 12, budgetRejected: true}, 0, []bool{false}},
		{"forest transport error", unreachable, four[:1],
			sample{cold: true, err: true}, 0, []bool{false}},
	}
	for _, tc := range cases {
		for _, first := range []bool{true, false} {
			var cold coldTracker
			if !first {
				for _, e := range tc.entries {
					cold.first(e)
				}
			}
			got, ok, bad := drive(context.Background(), tc.tgt, tc.entries, &cold, time.Now())
			want := tc.want
			if len(tc.entries) == 1 {
				want.region = tc.entries[0].Region
			}
			want.cold = want.cold && first
			got.latency = 0
			if n := int64(len(tc.entries)); got != want || ok != tc.ok || bad != n-tc.ok {
				t.Errorf("%s (first=%v): sample %+v ok %d bad %d, want %+v ok %d bad %d",
					tc.name, first, got, ok, bad, want, tc.ok, n-tc.ok)
			}
			// A failed first request releases its claims; a later request
			// never touches one it did not make.
			for i, e := range tc.entries {
				if stillClaimed := !cold.first(e); stillClaimed != (tc.keeps[i] || !first) {
					t.Errorf("%s (first=%v): entry %d cold claim held = %v", tc.name, first, i, stillClaimed)
				}
			}
		}
	}

	// 429s are budget rejections in the summary, never errors.
	w := &worker{}
	w.record(drive(context.Background(), cases[3].tgt, one, &coldTracker{}, time.Now()))
	rep := summarize([]*worker{w}, time.Second, RunConfig{Workload: "report"})
	if rep.BudgetRejections != 1 || rep.Errors != 0 || rep.ColdRequests != 0 {
		t.Errorf("429 summary: rejections %d errors %d cold %d", rep.BudgetRejections, rep.Errors, rep.ColdRequests)
	}
}

// TestMobilityEndToEnd drives the report target against a live in-process
// server: the subtree crossing must come back with the reanchored flag and
// land in the re-anchor latency slice.
func TestMobilityEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spins a real region")
	}
	srv := reportTestServer(t, "lg-a")
	w := testWorld(t, srv, "lg-a")
	roots := w.tree.LevelNodes(1)
	leafA := w.tree.LeavesUnder(roots[0])[0]
	leafB := w.tree.LeavesUnder(roots[1])[0]
	tgt := reportTarget(proto.NewClient(srv.URL).Remote(), 0, 1)
	var cold coldTracker
	wk := &worker{}
	// The last crossing goes back: subtree A's forest is already warm, so
	// that sample is a pure re-anchor — the middle latency tier.
	for _, leaf := range []loctree.NodeID{leafA, leafA, leafB, leafA} {
		entry := mobilityRequest(w, "lg-a", 1, leaf, 4)
		wk.record(drive(context.Background(), tgt, []request{entry}, &cold, time.Now()))
	}
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
	rep := summarize([]*worker{wk}, time.Second, RunConfig{Workload: "mobility", ReportCount: 1})
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
