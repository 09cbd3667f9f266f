package proto

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// getForest issues one forest request, optionally conditional, and
// returns the response with its body drained.
func getForest(t *testing.T, url string, level, delta int, accept, ifNoneMatch string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/v1/forest?privacy_l=%d&delta=%d", url, level, delta), nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestForestETagAnd304 drives the conditional-fetch protocol: a forest
// response carries a strong ETag, revalidating with it yields an empty
// 304, and a stale tag yields a full 200.
func TestForestETagAnd304(t *testing.T) {
	ts, _, _ := newTestServer(t)
	defer ts.Close()

	resp, body := getForest(t, ts.URL, 1, 0, ContentTypeForestV2, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	if len(etag) < 4 || etag[0] != '"' {
		t.Fatalf("ETag %q is not a quoted strong tag", etag)
	}
	if len(body) == 0 {
		t.Fatal("empty forest body")
	}

	// Same representation, matching tag: 304 with no body.
	resp, body = getForest(t, ts.URL, 1, 0, ContentTypeForestV2, etag)
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional refetch: status %d, want 304", resp.StatusCode)
	}
	if len(body) != 0 {
		t.Fatalf("304 carried %d body bytes", len(body))
	}
	if got := resp.Header.Get("ETag"); got != etag {
		t.Errorf("304 ETag %q, want %q", got, etag)
	}

	// A tag list containing the current tag also matches; a stale tag
	// does not.
	resp, _ = getForest(t, ts.URL, 1, 0, ContentTypeForestV2, `"stale", `+etag)
	if resp.StatusCode != http.StatusNotModified {
		t.Errorf("tag list: status %d, want 304", resp.StatusCode)
	}
	resp, body = getForest(t, ts.URL, 1, 0, ContentTypeForestV2, `"stale"`)
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Errorf("stale tag: status %d, %d bytes; want full 200", resp.StatusCode, len(body))
	}

	// Different (level, delta) or a different representation: different tag.
	resp, _ = getForest(t, ts.URL, 1, 1, ContentTypeForestV2, "")
	if other := resp.Header.Get("ETag"); other == etag {
		t.Error("distinct forests share an ETag")
	}
	resp, _ = getForest(t, ts.URL, 1, 0, "application/json", "")
	if v1tag := resp.Header.Get("ETag"); v1tag == etag {
		t.Error("v1 and v2 representations share an ETag")
	}

	// Tags are deterministic: refetching yields the same tag.
	resp, _ = getForest(t, ts.URL, 1, 0, ContentTypeForestV2, "")
	if again := resp.Header.Get("ETag"); again != etag {
		t.Errorf("ETag unstable across fetches: %q then %q", etag, again)
	}

	// The response must declare what it varies on, and the strong tag must
	// name the content coding: a gzipped body (Go's transport advertises
	// gzip by default, so etag above is the gzip variant) tags differently
	// from the identity one a no-gzip client receives.
	if vary := resp.Header.Get("Vary"); !strings.Contains(vary, "Accept-Encoding") || !strings.Contains(vary, "Accept") {
		t.Errorf("Vary %q must list Accept and Accept-Encoding", vary)
	}
	if !strings.Contains(etag, "-gzip") {
		t.Errorf("gzip-negotiated response tag %q lacks the coding suffix", etag)
	}
	plain := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/forest?privacy_l=1&delta=0", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", ContentTypeForestV2)
	presp, err := plain.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	identityTag := presp.Header.Get("ETag")
	if identityTag == etag || strings.Contains(identityTag, "-gzip") {
		t.Errorf("identity tag %q must differ from gzip tag %q without the suffix", identityTag, etag)
	}
}

func TestEtagMatches(t *testing.T) {
	cases := []struct {
		header, etag string
		want         bool
	}{
		{`"abc"`, `"abc"`, true},
		{`"abc", "def"`, `"def"`, true},
		{` "abc" ,"def"`, `"abc"`, true},
		{`*`, `"anything"`, true},
		{`"abc"`, `"def"`, false},
		{`W/"abc"`, `"abc"`, false}, // weak tags never strongly match
		{``, `"abc"`, false},
	}
	for _, c := range cases {
		if got := etagMatches(c.header, c.etag); got != c.want {
			t.Errorf("etagMatches(%q, %q) = %v, want %v", c.header, c.etag, got, c.want)
		}
	}
}

// TestAcceptsGzip: an offer is gzip with a non-zero quality; gzip;q=0 is an
// explicit refusal and identity alone no offer. Body and ETag both ask this
// one function, so the refusal is checked on a whole response as well.
func TestAcceptsGzip(t *testing.T) {
	cases := []struct {
		header string
		want   bool
	}{
		{"gzip", true},
		{"gzip, deflate, br", true},
		{"deflate, GZIP ; q=0.5", true},
		{"gzip;q=1.0", true},
		{"gzip;q=0", false},
		{"gzip; q=0.000, identity", false},
		{"br;q=1, gzip;Q=0", false},
		{"identity", false},
		{"identity;q=1, *;q=0", false},
		{"deflate", false},
		{"gzip;q=high", false},
		{"gzip;level=9", false},
		{"", false},
	}
	for _, c := range cases {
		r := httptest.NewRequest(http.MethodGet, "/", nil)
		r.Header.Set("Accept-Encoding", c.header)
		if got := acceptsGzip(r); got != c.want {
			t.Errorf("acceptsGzip(%q) = %v, want %v", c.header, got, c.want)
		}
	}
	if acceptsGzip(nil) {
		t.Error("no request, no negotiation: must not accept gzip")
	}

	ts, _, _ := newTestServer(t)
	defer ts.Close()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/forest?privacy_l=1&delta=0", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept-Encoding", "gzip;q=0")
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if enc := resp.Header.Get("Content-Encoding"); enc != "" {
		t.Errorf("gzip;q=0 answered with Content-Encoding %q", enc)
	}
	if tag := resp.Header.Get("ETag"); tag == "" || strings.Contains(tag, "-gzip") {
		t.Errorf("gzip;q=0 answered with ETag %q, want the identity tag", tag)
	}
	var fr ForestResponse
	if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
		t.Errorf("identity body does not decode as JSON: %v", err)
	}
}

// TestClientConditionalFetch exercises FetchForestTagged end to end: first
// fetch returns a tagged body, revalidation returns NotModified, and the
// cached body decodes to the same forest.
func TestClientConditionalFetch(t *testing.T) {
	ts, _, _ := newTestServer(t)
	defer ts.Close()
	c := NewClient(ts.URL)
	tree, _, err := c.FetchTree()
	if err != nil {
		t.Fatal(err)
	}

	res, err := c.FetchForestTagged(tree, 1, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.NotModified || res.Forest == nil || res.ETag == "" || len(res.Body) == 0 {
		t.Fatalf("first fetch: %+v", res)
	}
	if !bytes.Contains([]byte(res.ContentType), []byte(ContentTypeForestV2)) {
		t.Fatalf("client did not negotiate v2: %q", res.ContentType)
	}

	again, err := c.FetchForestTagged(tree, 1, 0, res.ETag)
	if err != nil {
		t.Fatal(err)
	}
	if !again.NotModified || again.Forest != nil {
		t.Fatalf("revalidation: %+v", again)
	}
	if again.ETag != res.ETag {
		t.Errorf("revalidation tag %q, want %q", again.ETag, res.ETag)
	}

	// The cached body is decodable on its own — what cmd/corgi-client
	// does after a 304.
	forest, err := DecodeForestBody(tree, res.ContentType, res.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(forest.Entries) != len(res.Forest.Entries) {
		t.Fatalf("cached body decoded to %d entries, fetch had %d",
			len(forest.Entries), len(res.Forest.Entries))
	}
}

// TestClientForceV1 checks the escape hatch really downgrades the Accept
// negotiation.
func TestClientForceV1(t *testing.T) {
	ts, _, _ := newTestServer(t)
	defer ts.Close()
	c := NewClient(ts.URL)
	c.ForceV1 = true
	tree, _, err := c.FetchTree()
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.FetchForestTagged(tree, 1, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains([]byte(res.ContentType), []byte(ContentTypeForestV2)) {
		t.Fatalf("ForceV1 client still negotiated v2: %q", res.ContentType)
	}
	if res.Forest == nil || len(res.Forest.Entries) == 0 {
		t.Fatal("v1 fetch returned no forest")
	}
}

// TestMultiForestETag checks the region-addressed /v1/forest route tags
// responses too, and that distinct regions tag differently.
func TestMultiForestETag(t *testing.T) {
	ts, _ := newMultiTestServer(t)
	defer ts.Close()

	get := func(query string, inm string) (*http.Response, []byte) {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/forest?"+query, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Accept", ContentTypeForestV2)
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, raw
	}
	resp, _ := get("privacy_l=1&delta=0", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("multi route sent no ETag")
	}
	resp, body := get("privacy_l=1&delta=0", etag)
	if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("multi conditional: status %d, %d bytes", resp.StatusCode, len(body))
	}
}
