package proto

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"corgi/internal/core"
	"corgi/internal/geo"
	"corgi/internal/loctree"
	"corgi/internal/policy"
	"corgi/internal/registry"
	"corgi/internal/session"
)

// newTestServer serves one SF region — a registry of one, addressed as the
// default region — and returns its engine for solve-count assertions.
func newTestServer(t *testing.T) (*httptest.Server, *MultiHandler, *core.Server) {
	t.Helper()
	center := geo.SanFrancisco.Center()
	reg, err := registry.New([]registry.Spec{{
		Name:      "sf",
		CenterLat: center.Lat, CenterLng: center.Lng,
		LeafSpacingKm: 0.1, Height: 2,
		Epsilon: 15, Iterations: 2, Targets: 3,
		UniformPriors: true,
	}}, registry.Options{WarmupDelta: -1})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := reg.Shard(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewMultiHandler(reg)
	if err != nil {
		t.Fatal(err)
	}
	return httptest.NewServer(h.Mux()), h, sh.Server
}

func TestFullClientServerRoundTrip(t *testing.T) {
	ts, _, _ := newTestServer(t)
	defer ts.Close()
	c := NewClient(ts.URL)

	tree, tr, err := c.FetchTree()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Epsilon != 15 || tr.Height != 2 {
		t.Errorf("tree response: %+v", tr)
	}
	if tree.NumLeaves() != 49 {
		t.Fatalf("rebuilt tree has %d leaves", tree.NumLeaves())
	}
	priors, err := c.FetchPriors(tree)
	if err != nil {
		t.Fatal(err)
	}
	forest, err := c.FetchForest(tree, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(forest.Entries) != 7 {
		t.Fatalf("forest has %d entries", len(forest.Entries))
	}
	// Algorithm 4 over the wire-rebuilt forest.
	real := geo.SanFrancisco.Center()
	leaf, _ := tree.Locate(real, 0)
	root, _ := tree.AncestorAt(leaf, 1)
	sess, err := session.New(session.Config{
		Tree: tree, Entry: forest.Entries[root], Delta: forest.Delta,
		Policy: policy.Policy{PrivacyLevel: 1}, Priors: priors, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	reported, err := sess.Draw(real)
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Contains(reported) {
		t.Fatalf("reported %v not in tree", reported)
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	ts, _, _ := newTestServer(t)
	defer ts.Close()

	// Wrong methods.
	resp, err := http.Post(ts.URL+"/v1/tree", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/tree -> %d", resp.StatusCode)
	}
	// Invalid privacy level surfaces as unprocessable.
	resp, err = http.Get(ts.URL + "/v1/forest?privacy_l=9&delta=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("bad level -> %d", resp.StatusCode)
	}
	// Client error paths.
	c := NewClient(ts.URL)
	tree, _, err := c.FetchTree()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.FetchForest(tree, 9, 1); err == nil {
		t.Error("client must surface server rejection")
	}
}

// TestFetchPriorsRejectsMalformed: a priors response must name each tree
// leaf once with one probability each. A short probs list used to panic the
// client, and a leaf listed twice silently zeroed another.
func TestFetchPriorsRejectsMalformed(t *testing.T) {
	tree := entryTree(t)
	fetch := func(mutate func(*PriorsResponse)) error {
		resp := priorsResponse(tree, loctree.UniformPriors(tree))
		mutate(&resp)
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { writeJSON(w, resp) }))
		defer ts.Close()
		_, err := NewClient(ts.URL).FetchPriors(tree)
		return err
	}
	if err := fetch(func(*PriorsResponse) {}); err != nil {
		t.Fatalf("well-formed priors refused: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*PriorsResponse)
	}{
		{"short probs", func(p *PriorsResponse) { p.Probs = p.Probs[:len(p.Probs)-1] }},
		{"duplicate leaf", func(p *PriorsResponse) { p.Leaves[1] = p.Leaves[0] }},
		{"foreign leaf", func(p *PriorsResponse) { p.Leaves[0] = [2]int{999, 999} }},
	} {
		if err := fetch(tc.mutate); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestUnsolicited304IsAnError: a 304 answers a conditional request only.
// To a fetch that named no cached copy it is an error, never a nil forest.
func TestUnsolicited304IsAnError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("ETag", `"cached"`)
		w.WriteHeader(http.StatusNotModified)
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	if forest, err := c.FetchForest(nil, 1, 0); err == nil {
		t.Fatalf("unsolicited 304: forest %v and no error", forest)
	}
	res, err := c.FetchForestTagged(nil, 1, 0, `"cached"`)
	if err != nil || !res.NotModified || res.ETag != `"cached"` {
		t.Fatalf("conditional 304: %+v, %v", res, err)
	}
}

// TestResponseBodiesAreBounded: every Client read stops at
// MaxResponseBytes. Each body is a valid answer padded with whitespace
// past the bound, so a client that read without one would accept it; a
// declared (Content-Length) and a chunked oversize body are refused alike.
func TestResponseBodiesAreBounded(t *testing.T) {
	real, _, _ := newTestServer(t)
	defer real.Close()
	tree, _, err := NewClient(real.URL).FetchTree()
	if err != nil {
		t.Fatal(err)
	}
	forest, err := NewClient(real.URL).FetchForestTagged(tree, 1, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	bodies := map[string]string{
		"/v1/forest":  string(forest.Body),
		"/v1/regions": `{"default":"sf","regions":[]}`,
		"/v1/report":  `{"reports":[]}`,
	}
	pad := bytes.Repeat([]byte(" "), 64<<10)
	serve := func(declared bool) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body := bodies[r.URL.Path]
			if r.URL.Path == "/v1/forest" {
				w.Header().Set("Content-Type", forest.ContentType)
			}
			total := MaxResponseBytes + 1
			if declared {
				w.Header().Set("Content-Length", strconv.Itoa(total))
			}
			if _, err := io.WriteString(w, body); err != nil {
				return
			}
			for n := len(body); n < total; n += len(pad) {
				if _, err := w.Write(pad[:min(len(pad), total-n)]); err != nil {
					return
				}
			}
		}))
	}
	for _, declared := range []bool{true, false} {
		ts := serve(declared)
		defer ts.Close()
		c := NewClient(ts.URL)
		if _, err := c.FetchForestTagged(tree, 1, 0, ""); err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Errorf("forest body over the bound (declared %v): %v", declared, err)
		}
		if !declared {
			// The other reads share the one bounded path; another 64 MiB
			// buffer apiece would prove nothing more.
			continue
		}
		if _, err := c.FetchRegions(); err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Errorf("regions body over the bound: %v", err)
		}
		if _, err := c.Report(ReportRequest{}); err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Errorf("report body over the bound: %v", err)
		}
	}
}

// TestReadBodyRefusesOverLimit holds ReadBody to its bound at a small
// limit: a body of exactly limit bytes comes back whole, one byte more is
// an error whether Content-Length declares it or the body only runs on,
// and so is a declared length over the limit that the body never sends.
func TestReadBodyRefusesOverLimit(t *testing.T) {
	const limit = 8
	read := func(body string, declared int64) ([]byte, error) {
		return ReadBody(&http.Response{Body: io.NopCloser(strings.NewReader(body)), ContentLength: declared}, limit)
	}
	for _, declared := range []int64{-1, limit} {
		if raw, err := read("12345678", declared); err != nil || string(raw) != "12345678" {
			t.Errorf("body at the limit (declared %d): %q, %v", declared, raw, err)
		}
	}
	for _, tc := range []struct {
		body     string
		declared int64
	}{{"123456789", -1}, {"123456789", limit + 1}, {"1234", limit + 1}} {
		if raw, err := read(tc.body, tc.declared); err == nil || !strings.Contains(err.Error(), "exceeds 8") {
			t.Errorf("%d-byte body declared %d: %q, %v, want an error", len(tc.body), tc.declared, raw, err)
		}
	}
}
