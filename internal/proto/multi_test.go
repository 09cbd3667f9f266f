package proto

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"corgi/internal/core"
	"corgi/internal/policy"
	"corgi/internal/registry"
)

// newMultiTestServer serves two cheap uniform-prior regions.
func newMultiTestServer(t *testing.T) (*httptest.Server, *registry.Registry) {
	t.Helper()
	reg, err := registry.New([]registry.Spec{
		{Name: "sf", CenterLat: 37.765, CenterLng: -122.435, Height: 2,
			Iterations: 1, Targets: 3, UniformPriors: true},
		{Name: "nyc", CenterLat: 40.7128, CenterLng: -74.0060, Height: 2,
			Iterations: 1, Targets: 3, UniformPriors: true},
	}, registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewMultiHandler(reg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h.Mux())
	t.Cleanup(ts.Close)
	return ts, reg
}

func TestNewMultiHandlerValidation(t *testing.T) {
	if _, err := NewMultiHandler(nil); err == nil {
		t.Error("nil registry must fail")
	}
}

func TestRegionsEndpointDoesNotBootstrap(t *testing.T) {
	ts, reg := newMultiTestServer(t)
	c := NewClient(ts.URL)
	rr, err := c.FetchRegions()
	if err != nil {
		t.Fatal(err)
	}
	if rr.Default != "sf" || len(rr.Regions) != 2 {
		t.Fatalf("regions response: %+v", rr)
	}
	for _, info := range rr.Regions {
		if info.Ready {
			t.Errorf("region %q ready before any request", info.Name)
		}
	}
	if reg.Bootstraps() != 0 {
		t.Error("listing regions must not bootstrap shards")
	}
}

func TestRegionAddressedRoundTrip(t *testing.T) {
	ts, reg := newMultiTestServer(t)

	// A region-pinned client sees its own tree and forest.
	c := NewRegionClient(ts.URL, "nyc")
	tree, info, err := c.FetchTree()
	if err != nil {
		t.Fatal(err)
	}
	if info.OriginLat < 40 || info.OriginLat > 41 {
		t.Errorf("nyc tree origin lat %v", info.OriginLat)
	}
	if _, err := c.FetchPriors(tree); err != nil {
		t.Fatal(err)
	}
	forest, err := c.FetchForest(tree, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(forest.Entries) != 7 {
		t.Fatalf("forest has %d entries", len(forest.Entries))
	}
	if reg.Ready("sf") {
		t.Error("sf must stay cold while only nyc is queried")
	}

	// A legacy client (no region) lands on the default region.
	legacy := NewClient(ts.URL)
	ltree, linfo, err := legacy.FetchTree()
	if err != nil {
		t.Fatal(err)
	}
	if linfo.OriginLat > 40 {
		t.Errorf("default region resolved to lat %v, want sf", linfo.OriginLat)
	}
	if _, err := legacy.FetchForest(ltree, 1, 0); err != nil {
		t.Fatal(err)
	}
	if !reg.Ready("sf") {
		t.Error("default-region request must bootstrap sf")
	}
}

func TestUnknownRegion404ListsAvailable(t *testing.T) {
	ts, _ := newMultiTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/tree?region=atlantis")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown region -> %d, want 404", resp.StatusCode)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	if !strings.Contains(body.String(), "sf") || !strings.Contains(body.String(), "nyc") {
		t.Errorf("404 body must list available regions, got %q", body.String())
	}

	// The same failure through the client API.
	c := NewRegionClient(ts.URL, "atlantis")
	_, _, err = c.FetchTree()
	if err == nil || !strings.Contains(err.Error(), "nyc") {
		t.Errorf("client error must carry the region list, got %v", err)
	}
}

func TestForestGETQueryParams(t *testing.T) {
	ts, _ := newMultiTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/forest?region=sf&privacy_l=1&delta=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET forest -> %d", resp.StatusCode)
	}
	var fr ForestResponse
	if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
		t.Fatal(err)
	}
	if fr.PrivacyLevel != 1 || fr.Delta != 1 || len(fr.Entries) != 7 {
		t.Errorf("GET forest: level %d delta %d entries %d", fr.PrivacyLevel, fr.Delta, len(fr.Entries))
	}

	resp, err = http.Get(ts.URL + "/v1/forest?privacy_l=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad privacy_l -> %d, want 400", resp.StatusCode)
	}

	// A forest has one route and one method: POST is refused, and the
	// v1-era alias and the batch route are gone.
	for _, tc := range []struct {
		method, path string
		want         int
	}{
		{http.MethodPost, "/v1/forest?region=sf&privacy_l=1", http.StatusMethodNotAllowed},
		{http.MethodPost, "/v1/matrices?region=sf", http.StatusNotFound},
		{http.MethodGet, "/v1/matrices?region=sf&privacy_l=1", http.StatusNotFound},
		{http.MethodPost, "/v1/forests", http.StatusNotFound},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(`{"privacy_l":1,"delta":0}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s -> %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
}

func TestMultiStats(t *testing.T) {
	ts, _ := newMultiTestServer(t)
	c := NewRegionClient(ts.URL, "nyc")
	tree, _, err := c.FetchTree()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.FetchForest(tree, 1, 0); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ms MultiStatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&ms); err != nil {
		t.Fatal(err)
	}
	if ms.Bootstraps != 1 {
		t.Errorf("bootstraps %d, want 1", ms.Bootstraps)
	}
	if _, ok := ms.Regions["nyc"]; !ok {
		t.Errorf("stats missing nyc shard: %+v", ms.Regions)
	}
	if _, ok := ms.Regions["sf"]; ok {
		t.Error("cold sf shard must not appear in stats")
	}
	if ms.Total.Solves != ms.Regions["nyc"].Solves || ms.Total.Solves == 0 {
		t.Errorf("aggregate solves %d vs nyc %d", ms.Total.Solves, ms.Regions["nyc"].Solves)
	}
}

// TestForestDeltaBound: a height-2 region's level-1 subtrees have 7
// leaves and its root 49, so GET /v1/forest refuses delta >= 7 at
// privacy_l=1 and delta >= 49 at privacy_l=2 with 422, and so does a
// report whose preferences prune every leaf of its subtree. None of them
// runs a solve.
func TestForestDeltaBound(t *testing.T) {
	ts, reg := newMultiTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/forest?region=sf&privacy_l=1&delta=6")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta 6 at privacy_l=1 -> %d, want 200", resp.StatusCode)
	}
	solves := reg.AggregateStats().Solves

	for _, q := range []string{
		"privacy_l=1&delta=7", "privacy_l=1&delta=48", "privacy_l=1&delta=49",
		"privacy_l=1&delta=1000", "privacy_l=1&delta=1073741824",
		"privacy_l=2&delta=49", "privacy_l=2&delta=1000", "privacy_l=2&delta=1073741824",
	} {
		resp, err := http.Get(ts.URL + "/v1/forest?region=sf&" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("GET /v1/forest?%s -> %d, want 422", q, resp.StatusCode)
		}
	}

	// No leaf is less than 0 km away, so this policy prunes all seven.
	pred, err := policy.ParsePredicate("distance < 0")
	if err != nil {
		t.Fatal(err)
	}
	sh, err := reg.Shard(context.Background(), "sf")
	if err != nil {
		t.Fatal(err)
	}
	leaf := sh.Server.Tree().LevelNodes(0)[0]
	body, err := json.Marshal(ReportRequest{Region: "sf", Cell: [2]int{leaf.Coord.Q, leaf.Coord.R},
		Policy: policy.Policy{PrivacyLevel: 1, Preferences: []policy.Predicate{pred}}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/report", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("report pruning every leaf -> %d, want 422", resp.StatusCode)
	}

	if got := reg.AggregateStats().Solves; got != solves {
		t.Fatalf("refused requests ran %d solves", got-solves)
	}
}

// TestForestRefusals pins GET /v1/forest's classifier: only an
// out-of-range privacy level or delta is the caller's (422), interrupted
// work is 504 or 503, and any other failure, a solver's or a recovered
// panic's, is the server's 500, as the report routes answer it. The two
// 422s are checked over HTTP as well, so the sentinels are the ones the
// engine returns.
func TestForestRefusals(t *testing.T) {
	for _, tc := range []struct {
		err    error
		status int
	}{
		{fmt.Errorf("core: %w: 9 outside [1,2]", core.ErrPrivacyLevel), http.StatusUnprocessableEntity},
		{fmt.Errorf("core: %w: delta 7, want [0,7)", core.ErrDeltaRange), http.StatusUnprocessableEntity},
		{fmt.Errorf("solving: %w", context.DeadlineExceeded), http.StatusGatewayTimeout},
		{context.Canceled, http.StatusServiceUnavailable},
		{errors.New("core: DW numerical failure"), http.StatusInternalServerError},
		{errors.New("flight: the call for this key panicked"), http.StatusInternalServerError},
	} {
		if rej := generateErrStatus(tc.err); rej.Status != tc.status || rej.Msg == "" {
			t.Errorf("%v -> %+v, want %d", tc.err, rej, tc.status)
		}
	}

	ts, _ := newMultiTestServer(t)
	for _, q := range []string{"privacy_l=0", "privacy_l=9", "privacy_l=1&delta=-1"} {
		resp, err := http.Get(ts.URL + "/v1/forest?region=sf&" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("GET /v1/forest?%s -> %d, want 422", q, resp.StatusCode)
		}
	}
}

// TestClientsShareOnePool: two goroutines each hold one region client per
// region of a six-region server and take turns through them. Every client
// rides the process's one keep-alive pool, so the server sees one
// connection per goroutine, not one per client. The first two requests are
// held until both have arrived, so each dials its own connection: net/http
// hands a connection freed while a request waits on its dial to that
// request, and the dial then lands in the pool as one connection more.
func TestClientsShareOnePool(t *testing.T) {
	names := []string{"r0", "r1", "r2", "r3", "r4", "r5"}
	reg, err := registry.New(reportSpecs(names...), registry.Options{WarmupDelta: -1})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewMultiHandler(reg)
	if err != nil {
		t.Fatal(err)
	}
	mux := h.Mux()
	var served, dialed atomic.Int32
	var firstTwo sync.WaitGroup
	firstTwo.Add(2)
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) <= 2 {
			firstTwo.Done()
			firstTwo.Wait()
		}
		mux.ServeHTTP(w, r)
	}))
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dialed.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			clients := make([]*Client, len(names))
			for i, name := range names {
				clients[i] = NewRegionClient(ts.URL, name)
			}
			for round := 0; round < 3; round++ {
				for _, c := range clients {
					if _, _, err := c.FetchTree(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if n := dialed.Load(); n > 2 {
		t.Errorf("12 clients on 2 goroutines opened %d connections, want at most 2", n)
	}
}
