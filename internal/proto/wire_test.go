package proto

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"corgi/internal/core"
	"corgi/internal/geo"
	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
)

func generateTestForest(t *testing.T) (*loctree.Tree, *core.Forest) {
	t.Helper()
	sys, err := hexgrid.NewSystem(geo.SanFrancisco.Center(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := loctree.NewAt(sys, geo.SanFrancisco.Center(), 2)
	if err != nil {
		t.Fatal(err)
	}
	priors := loctree.UniformPriors(tree)
	leaves := tree.LevelNodes(0)
	targets := []geo.LatLng{tree.Center(leaves[0]), tree.Center(leaves[24])}
	srv, err := core.NewServerWithOptions(tree, priors, targets, []float64{1, 1}, core.Params{
		Epsilon: 15, Iterations: 1, UseGraphApprox: true,
	}, core.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Privacy level 2 yields the 49x49 root matrix — the matrix-dominated
	// payload the compact encoding targets (the paper's height-3 setup is
	// 343x343, where the gain is larger still).
	forest, err := srv.GenerateForest(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tree, forest
}

// TestWireV2RoundTripAndSize encodes a real forest both ways and checks the
// v2 payload decodes back to the dense matrices within 1e-9 while being at
// least 3x smaller on the wire.
func TestWireV2RoundTripAndSize(t *testing.T) {
	tree, forest := generateTestForest(t)

	v1, err := EncodeForestV1(tree, forest)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := EncodeForestV2(tree, forest)
	if err != nil {
		t.Fatal(err)
	}
	v1Bytes, err := json.Marshal(v1)
	if err != nil {
		t.Fatal(err)
	}
	v2Bytes, err := json.Marshal(v2)
	if err != nil {
		t.Fatal(err)
	}
	if len(v1Bytes) < 3*len(v2Bytes) {
		t.Fatalf("v2 payload %d bytes vs v1 %d bytes: reduction %.2fx < 3x",
			len(v2Bytes), len(v1Bytes), float64(len(v1Bytes))/float64(len(v2Bytes)))
	}
	t.Logf("v1 %d bytes, v2 %d bytes (%.1fx smaller)",
		len(v1Bytes), len(v2Bytes), float64(len(v1Bytes))/float64(len(v2Bytes)))

	got, err := DecodeForestBody(tree, ContentTypeForestV2, v2Bytes)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != len(forest.Entries) {
		t.Fatalf("decoded %d entries, want %d", len(got.Entries), len(forest.Entries))
	}
	for node, want := range forest.Entries {
		g, ok := got.Entries[node]
		if !ok {
			t.Fatalf("decoded forest missing %v", node)
		}
		for i := 0; i < want.Matrix.Dim(); i++ {
			for j := 0; j < want.Matrix.Dim(); j++ {
				if d := math.Abs(g.Matrix.At(i, j) - want.Matrix.At(i, j)); d > 1e-9 {
					t.Fatalf("entry %v (%d,%d): decode error %g > 1e-9", node, i, j, d)
				}
			}
		}
	}
}

// TestWireV2DecodeErrors exercises the malformed-blob paths of a v2 body
// carrying a real LP-solved forest.
func TestWireV2DecodeErrors(t *testing.T) {
	tree, forest := generateTestForest(t)
	good, err := EncodeForestV2(tree, forest)
	if err != nil {
		t.Fatal(err)
	}
	clone := func() *ForestResponseV2 {
		b, _ := json.Marshal(good)
		var c ForestResponseV2
		_ = json.Unmarshal(b, &c)
		return &c
	}
	decode := func(c *ForestResponseV2) error {
		body, _ := json.Marshal(c)
		_, err := DecodeForestBody(tree, ContentTypeForestV2, body)
		return err
	}

	if err := decode(clone()); err != nil {
		t.Fatalf("pristine response must decode: %v", err)
	}
	c := clone()
	c.Entries[0].RootQ = 999
	if decode(c) == nil {
		t.Error("foreign root must fail")
	}
	c = clone()
	c.Entries[0].Dim++
	if decode(c) == nil {
		t.Error("dim/leaves mismatch must fail")
	}
	c = clone()
	c.Entries[0].Data = c.Entries[0].Data[:len(c.Entries[0].Data)-1]
	if decode(c) == nil {
		t.Error("truncated blob must fail")
	}
	c = clone()
	c.Entries[0].Data = append(c.Entries[0].Data, 0)
	if decode(c) == nil {
		t.Error("trailing bytes must fail")
	}
	c = clone()
	// Zero the first row's payload: the row no longer sums to 1.
	for i := 2; i < 8 && i < len(c.Entries[0].Data); i++ {
		c.Entries[0].Data[i] = 0
	}
	if decode(c) == nil {
		t.Error("non-stochastic row must fail")
	}
}

// TestDecodeForestV1Errors exercises the validation paths of a v1 body
// carrying a real LP-solved forest.
func TestDecodeForestV1Errors(t *testing.T) {
	tree, forest := generateTestForest(t)
	good, err := EncodeForestV1(tree, forest)
	if err != nil {
		t.Fatal(err)
	}
	clone := func() *ForestResponse {
		b, _ := json.Marshal(good)
		var c ForestResponse
		_ = json.Unmarshal(b, &c)
		return &c
	}
	decode := func(c *ForestResponse) error {
		body, _ := json.Marshal(c)
		_, err := DecodeForestBody(tree, "application/json", body)
		return err
	}

	if err := decode(clone()); err != nil {
		t.Fatalf("pristine response must decode: %v", err)
	}
	c := clone()
	c.Entries[0].RootQ = 999
	if decode(c) == nil {
		t.Error("foreign root must fail")
	}
	c = clone()
	c.Entries[0].Rows = c.Entries[0].Rows[:len(c.Entries[0].Rows)-1]
	if decode(c) == nil {
		t.Error("rows/leaves mismatch must fail")
	}
	c = clone()
	c.Entries[0].Rows[0][0] += 0.5
	if decode(c) == nil {
		t.Error("non-stochastic row must fail")
	}
	c = clone()
	c.Entries[0].Leaves[0] = [2]int{999, 999}
	if decode(c) == nil {
		t.Error("foreign leaf must fail")
	}
}

// TestEncodeForestErrorsOnMissingEntry checks both encoders reject a forest
// that does not cover every privacy-level node.
func TestEncodeForestErrorsOnMissingEntry(t *testing.T) {
	tree, forest := generateTestForest(t)
	for node := range forest.Entries {
		delete(forest.Entries, node)
		break
	}
	if _, err := EncodeForestV1(tree, forest); err == nil {
		t.Error("v1 encoder must reject a partial forest")
	}
	if _, err := EncodeForestV2(tree, forest); err == nil {
		t.Error("v2 encoder must reject a partial forest")
	}
}

// TestHandlerWireV2Negotiation checks Accept-driven selection of the
// compact encoding and that the default client transparently consumes it.
func TestHandlerWireV2Negotiation(t *testing.T) {
	ts, _, _ := newTestServer(t)
	defer ts.Close()

	const route = "/v1/forest?privacy_l=1&delta=0"
	req, _ := http.NewRequest(http.MethodGet, ts.URL+route, nil)
	req.Header.Set("Accept", ContentTypeForestV2)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, ContentTypeForestV2) {
		t.Fatalf("Accept v2 answered with Content-Type %q", ct)
	}
	var fr ForestResponseV2
	if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
		t.Fatal(err)
	}
	if len(fr.Entries) != 7 {
		t.Fatalf("v2 response has %d entries, want 7", len(fr.Entries))
	}

	// No Accept header keeps the v1 dense format.
	resp2, err := http.Get(ts.URL + route)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") || strings.Contains(ct, ContentTypeForestV2) {
		t.Fatalf("default request answered with Content-Type %q", ct)
	}

	// The high-level client negotiates v2 end-to-end.
	c := NewClient(ts.URL)
	tree, _, err := c.FetchTree()
	if err != nil {
		t.Fatal(err)
	}
	forest, err := c.FetchForest(tree, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(forest.Entries) != 7 {
		t.Fatalf("client decoded %d entries, want 7", len(forest.Entries))
	}
}

// TestHandlerGzip checks explicit gzip negotiation on the forest route.
func TestHandlerGzip(t *testing.T) {
	ts, _, _ := newTestServer(t)
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/forest?privacy_l=1&delta=0", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	// DisableCompression keeps net/http from transparently gunzipping so the
	// encoding is observable.
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if enc := resp.Header.Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("Content-Encoding %q, want gzip", enc)
	}
	gz, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	var fr ForestResponse
	if err := json.Unmarshal(raw, &fr); err != nil {
		t.Fatal(err)
	}
	if len(fr.Entries) != 7 {
		t.Fatalf("gzipped response has %d entries, want 7", len(fr.Entries))
	}
}

// TestHealthzAndStats covers the operational endpoints.
func TestHealthzAndStats(t *testing.T) {
	ts, _, _ := newTestServer(t)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("ok")) {
		t.Fatalf("healthz -> %d %q", resp.StatusCode, body)
	}

	// Generate something, then confirm the stats reflect it.
	if _, err := http.Get(ts.URL + "/v1/forest?privacy_l=1&delta=0"); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ms MultiStatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&ms); err != nil {
		t.Fatal(err)
	}
	st := ms.Total
	if st.Solves == 0 || st.Misses == 0 {
		t.Fatalf("stats after generation: %+v", st)
	}
	if st.Workers < 1 || st.CacheCapacity < 1 {
		t.Fatalf("stats missing engine config: %+v", st)
	}
}

// TestConcurrentMatricesSingleflight fires identical concurrent HTTP
// requests and checks exactly one LP solve ran per privacy-level node.
func TestConcurrentMatricesSingleflight(t *testing.T) {
	ts, _, srv := newTestServer(t)
	defer ts.Close()

	const callers = 6
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/forest?privacy_l=1&delta=1")
			if err != nil {
				errs[c] = err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", c, err)
		}
	}
	// Height-2 tree, level 1 -> 7 subtree nodes; singleflight + cache must
	// collapse 6 identical forest requests onto one solve each.
	if st := srv.Stats(); st.Solves != 7 {
		t.Fatalf("%d concurrent identical forest requests ran %d solves, want 7", callers, st.Solves)
	}
}

// TestHandlerTimeout checks an impossible deadline surfaces as 504.
func TestHandlerTimeout(t *testing.T) {
	ts, h, _ := newTestServer(t)
	defer ts.Close()
	h.Timeout = 1 // 1ns: expired before generation starts
	req := httptest.NewRequest(http.MethodGet, "/v1/forest?privacy_l=1&delta=2", nil)
	rec := httptest.NewRecorder()
	h.Mux().ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out generation -> %d, want 504", rec.Code)
	}
}
