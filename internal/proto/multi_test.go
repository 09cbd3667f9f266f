package proto

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"corgi/internal/core"
	"corgi/internal/loctree"
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

	// The legacy route keeps its POST-only contract.
	resp, err = http.Get(ts.URL + "/v1/matrices?region=sf&privacy_l=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/matrices -> %d, want 405", resp.StatusCode)
	}
}

// postBatch posts items to /v1/forests as the client posts every JSON
// route, advertising the compact v2 encoding.
func postBatch(c *Client, items []BatchItem) (*BatchForestResponse, error) {
	var br BatchForestResponse
	if err := c.postJSON(context.Background(), "/v1/forests", c.accept(), BatchForestRequest{Items: items}, &br); err != nil {
		return nil, err
	}
	return &br, nil
}

func TestBatchPerItemErrorsAndV2(t *testing.T) {
	ts, _ := newMultiTestServer(t)
	c := NewClient(ts.URL)

	items := []BatchItem{
		{Region: "sf", PrivacyLevel: 1, Delta: 0},
		{Region: "nyc", PrivacyLevel: 1, Delta: 1},
		{Region: "atlantis", PrivacyLevel: 1, Delta: 0}, // unknown region
		{Region: "sf", PrivacyLevel: 9, Delta: 0},       // bad level
		{PrivacyLevel: 2, Delta: 0},                     // default region
	}
	br, err := postBatch(c, items)
	if err != nil {
		t.Fatal(err)
	}
	if len(br.Items) != len(items) {
		t.Fatalf("batch returned %d items for %d requests", len(br.Items), len(items))
	}

	// Successful items carry v2 payloads (the client advertises v2).
	trees := map[string]*loctree.Tree{}
	for _, name := range []string{"sf", "nyc"} {
		tree, _, err := NewRegionClient(ts.URL, name).FetchTree()
		if err != nil {
			t.Fatal(err)
		}
		trees[name] = tree
	}
	for _, i := range []int{0, 1, 4} {
		item := br.Items[i]
		if item.Status != http.StatusOK || item.Error != "" {
			t.Fatalf("item %d failed: %+v", i, item)
		}
		if item.ForestV2 == nil || item.Forest != nil {
			t.Fatalf("item %d must carry a v2 payload, got %+v", i, item)
		}
		forest, err := core.DecodeForest(trees[item.Region], item.ForestV2.PrivacyLevel, item.ForestV2.Delta, item.ForestV2.Entries)
		if err != nil {
			t.Fatalf("item %d decode: %v", i, err)
		}
		if len(forest.Entries) == 0 {
			t.Fatalf("item %d decoded empty forest", i)
		}
	}
	// Item 4 named no region; the server must resolve and report "sf".
	if br.Items[4].Region != "sf" {
		t.Errorf("defaulted item region %q, want sf", br.Items[4].Region)
	}

	// Failed items report independently and precisely.
	if br.Items[2].Status != http.StatusNotFound ||
		!strings.Contains(br.Items[2].Error, "nyc") {
		t.Errorf("unknown-region item: %+v", br.Items[2])
	}
	if br.Items[3].Status != http.StatusUnprocessableEntity {
		t.Errorf("bad-level item: %+v", br.Items[3])
	}
	for _, i := range []int{2, 3} {
		if br.Items[i].Forest != nil || br.Items[i].ForestV2 != nil {
			t.Errorf("failed item %d carries a payload", i)
		}
	}
}

func TestBatchContentNegotiationAndGzip(t *testing.T) {
	ts, _ := newMultiTestServer(t)
	body := `{"items": [{"region": "sf", "privacy_l": 1, "delta": 0}]}`

	// Plain JSON Accept: dense v1 payloads, identity encoding.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/forests", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Encoding"); got != "" {
		t.Errorf("unsolicited Content-Encoding %q", got)
	}
	var v1 BatchForestResponse
	if err := json.NewDecoder(resp.Body).Decode(&v1); err != nil {
		t.Fatal(err)
	}
	if v1.Items[0].Forest == nil || v1.Items[0].ForestV2 != nil {
		t.Fatalf("v1 negotiation returned %+v", v1.Items[0])
	}

	// V2 Accept + gzip Accept-Encoding: compact payloads, gzip framing.
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/forests", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", ContentTypeForestV2)
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err = http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Encoding"); got != "gzip" {
		t.Fatalf("Content-Encoding %q, want gzip", got)
	}
	gz, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var v2 BatchForestResponse
	if err := json.NewDecoder(gz).Decode(&v2); err != nil {
		t.Fatal(err)
	}
	if v2.Items[0].ForestV2 == nil || v2.Items[0].Forest != nil {
		t.Fatalf("v2 negotiation returned %+v", v2.Items[0])
	}
}

func TestBatchLimits(t *testing.T) {
	ts, _ := newMultiTestServer(t)
	c := NewClient(ts.URL)

	if _, err := postBatch(c, nil); err == nil ||
		!strings.Contains(err.Error(), "400") {
		t.Errorf("empty batch: %v", err)
	}
	big := make([]BatchItem, registry.DefaultMaxBatch+1)
	for i := range big {
		big[i] = BatchItem{Region: "sf", PrivacyLevel: 1}
	}
	if _, err := postBatch(c, big); err == nil ||
		!strings.Contains(err.Error(), "413") {
		t.Errorf("oversized batch: %v", err)
	}

	resp, err := http.Post(ts.URL+"/v1/forests", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed batch body -> %d", resp.StatusCode)
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
