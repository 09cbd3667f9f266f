package proto

import (
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"corgi/internal/core"
	"corgi/internal/registry"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata goldens")

// TestStatsBodyGolden pins the bytes of GET /v1/stats after one region has
// bootstrapped and served one forest: the engine sections are
// core.EngineStats marshalled as it stands, so a renamed key, a reordered
// field or a lost one shows here before a dashboard notices.
func TestStatsBodyGolden(t *testing.T) {
	reg, err := registry.New([]registry.Spec{
		{Name: "sf", CenterLat: 37.765, CenterLng: -122.435, Height: 2, Iterations: 1, Targets: 3, UniformPriors: true},
		{Name: "nyc", CenterLat: 40.7128, CenterLng: -74.0060, Height: 2, Iterations: 1, Targets: 3, UniformPriors: true},
	}, registry.Options{Engine: core.EngineOptions{Workers: 2, CacheBytes: 8 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewMultiHandler(reg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h.Mux())
	defer ts.Close()
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
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	const path = "testdata/stats.golden"
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("/v1/stats body moved:\n got %s\nwant %s", got, want)
	}
}
