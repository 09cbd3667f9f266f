// Package proto implements the client/server interaction of Sec. 5
// (Fig. 1/8) as JSON over HTTP. The server (cloud side) owns the location
// tree and solves the expensive optimization; clients send only
// non-sensitive parameters — the privacy level and the *number* of
// locations they intend to prune (|S|), never locations or preference
// contents — and receive the privacy forest of robust matrices to customize
// locally. A forest is one public, deterministic resource with one route,
// GET /v1/forest?region=R&privacy_l=L&delta=D, built by NewForestRequest.
//
// Two wire formats coexist. v1 is dense row-major JSON ([][]float64),
// served as plain application/json for compatibility. v2 (see wire.go) is a
// quantized row-sparse binary encoding negotiated via the Accept header
// (ContentTypeForestV2) that cuts forest payloads by >3x before
// compression; responses are additionally gzipped when the client offers
// Accept-Encoding: gzip. Forest responses carry strong ETags (a SHA-256
// over the encoded body, suffixed per content coding — stable across
// restarts because generation is deterministic and the v2 quantization
// idempotent) plus Vary: Accept, Accept-Encoding, and requests with a
// matching If-None-Match get 304 Not Modified with no body, so clients can
// keep their own on-disk forest caches and revalidate for free. Requests
// carry the caller's context through the handler into the generation
// engine, bounded by MultiHandler.Timeout. Client reads every response
// body through one bound, MaxResponseBytes.
//
// Multi-region servers additionally expose the report pipeline (POST
// /v1/report, batch /v1/reports; see report.go): the server evaluates the
// inline policy, prunes, and draws obfuscated reports from per-user
// sessions — a trusted-serving mode that trades Sec. 5's trust model for
// per-report draws instead of matrix shipping.
package proto

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"corgi/internal/core"
	"corgi/internal/geo"
	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
	"corgi/internal/obf"
	"corgi/internal/stream"
)

// TreeResponse describes the server's location tree so a client can rebuild
// it locally (trees are deterministic given these parameters).
type TreeResponse struct {
	OriginLat     float64 `json:"origin_lat"`
	OriginLng     float64 `json:"origin_lng"`
	LeafSpacingKm float64 `json:"leaf_spacing_km"`
	Height        int     `json:"height"`
	RootQ         int     `json:"root_q"`
	RootR         int     `json:"root_r"`
	Epsilon       float64 `json:"epsilon"`
}

// ForestEntryWire is one subtree's matrix on the wire.
type ForestEntryWire struct {
	RootQ  int         `json:"root_q"`
	RootR  int         `json:"root_r"`
	Leaves [][2]int    `json:"leaves"` // axial coords in matrix order
	Rows   [][]float64 `json:"rows"`
}

// Claim implements core.EncodedEntry: a dense entry's dimension is its row
// count.
func (e ForestEntryWire) Claim() (rootQ, rootR int, leaves [][2]int, dim int) {
	return e.RootQ, e.RootR, e.Leaves, len(e.Rows)
}

// Matrix implements core.EncodedEntry.
func (e ForestEntryWire) Matrix() (*obf.Matrix, error) { return obf.FromRows(e.Rows) }

// ForestResponse carries the whole privacy forest.
type ForestResponse struct {
	PrivacyLevel int               `json:"privacy_l"`
	Delta        int               `json:"delta"`
	Entries      []ForestEntryWire `json:"entries"`
}

// PriorsResponse carries the public leaf priors (footnote 5 of the paper).
type PriorsResponse struct {
	Leaves [][2]int  `json:"leaves"`
	Probs  []float64 `json:"probs"`
}

// writeJSONAs encodes v with the given content type, gzipping when the
// client offered Accept-Encoding: gzip (r may be nil to skip negotiation).
// Encoding happens into a buffer first so a marshal failure becomes a clean
// 500 instead of a half-written body under already-flushed headers.
func writeJSONAs(w http.ResponseWriter, r *http.Request, contentType string, v interface{}) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeRaw(w, r, contentType, body)
}

// writeRaw sends a pre-marshaled body, gzipping when the client offered
// Accept-Encoding: gzip (r may be nil to skip negotiation).
func writeRaw(w http.ResponseWriter, r *http.Request, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	if acceptsGzip(r) {
		w.Header().Set("Content-Encoding", "gzip")
		gz := gzip.NewWriter(w)
		defer gz.Close()
		gz.Write(body)
		return
	}
	w.Write(body)
}

// acceptsGzip reports whether the request's Accept-Encoding lists gzip with
// a non-zero quality: "gzip;q=0" is a refusal, not an offer, and a malformed
// quality is answered with the identity coding every client can read. It is
// the one place the content coding is decided, so a body and its ETag cannot
// disagree. A nil request (no negotiation) accepts nothing.
func acceptsGzip(r *http.Request) bool {
	if r == nil {
		return false
	}
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		coding, params, _ := strings.Cut(part, ";")
		if !strings.EqualFold(strings.TrimSpace(coding), "gzip") {
			continue
		}
		q, found := strings.CutPrefix(strings.ToLower(strings.TrimSpace(params)), "q=")
		if !found {
			return strings.TrimSpace(params) == ""
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(q), 64)
		return err == nil && v > 0
	}
	return false
}

// forestETag derives the strong ETag for an encoded forest body. Forest
// generation is deterministic and the v2 codec's quantization idempotent,
// so the tag is stable across processes and store round-trips for v2
// responses; it covers the exact representation — v1 and v2 bodies tag
// differently, and (strong ETags name the representation including its
// content coding, RFC 9110 §8.8.3) a gzipped response tags differently
// from the identity one.
func forestETag(body []byte, gzipped bool) string {
	sum := sha256.Sum256(body)
	tag := hex.EncodeToString(sum[:16])
	if gzipped {
		tag += "-gzip"
	}
	return `"` + tag + `"`
}

// etagMatches implements the If-None-Match strong comparison: any listed
// tag equal to etag (weak W/ tags never strongly match), or "*".
func etagMatches(header, etag string) bool {
	for _, tok := range strings.Split(header, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "*" || tok == etag {
			return tok != ""
		}
	}
	return false
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	writeJSONAs(w, nil, "application/json", v)
}

// jsonBufPool recycles encode buffers for the report hot paths: at a few
// kilobytes per response, per-request buffers are the dominant handler
// allocation once the pipeline itself stops allocating.
var jsonBufPool = sync.Pool{
	New: func() interface{} { return new(bytes.Buffer) },
}

// writeJSONPooled is writeJSONAs with a pooled encode buffer, for hot
// JSON routes (the report paths). Marshal failures still become a clean
// 500 before any body byte is written.
func writeJSONPooled(w http.ResponseWriter, r *http.Request, v interface{}) {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		jsonBufPool.Put(buf)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeRaw(w, r, "application/json", buf.Bytes())
	// A rare huge batch response should not pin its buffer in the pool.
	if buf.Cap() <= 1<<20 {
		jsonBufPool.Put(buf)
	}
}

// drainBody consumes what remains of a response body (bounded, so a
// misbehaving server cannot hold the client) before the caller closes it.
// An HTTP/1.1 connection only returns to the keep-alive pool when its
// body has been read to EOF; closing early tears the connection down and
// the next request pays a fresh TCP (and possibly TLS) setup.
func drainBody(body io.Reader) {
	io.Copy(io.Discard, io.LimitReader(body, 64<<10))
}

// statusError turns a non-200 response into the *stream.StatusError every
// Client method returns for one: the status, the (bounded) body as the
// message, and — on budget rejections — the user's live epsilon headroom
// from the X-Corgi-Eps-Remaining header.
func statusError(resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	se := &stream.StatusError{Status: resp.StatusCode, Msg: string(bytes.TrimSpace(msg))}
	if v := resp.Header.Get(epsRemainingHeader); v != "" {
		if rem, err := strconv.ParseFloat(v, 64); err == nil {
			se.EpsRemaining, se.HasEpsRemaining = rem, true
		}
	}
	return se
}

// MaxResponseBytes bounds every Client response body, as it bounds a
// cluster peer's store snapshot: a larger body is an error, never a
// truncated decode, so a misbehaving server cannot make a client buffer
// without limit.
const MaxResponseBytes = 64 << 20

// readBody reads a whole response body of at most MaxResponseBytes.
func readBody(resp *http.Response) ([]byte, error) {
	if resp.ContentLength > MaxResponseBytes {
		return nil, fmt.Errorf("proto: response body of %d bytes exceeds %d", resp.ContentLength, MaxResponseBytes)
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, MaxResponseBytes+1))
	if err != nil {
		return nil, err
	}
	if len(raw) > MaxResponseBytes {
		return nil, fmt.Errorf("proto: response body exceeds %d bytes", MaxResponseBytes)
	}
	return raw, nil
}

// decodeBody decodes a whole JSON response body, read by readBody, into v.
func decodeBody(resp *http.Response, v any) error {
	raw, err := readBody(resp)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}

// countingBody adds what is read from a response body to a client's
// received-bytes counter.
type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// treeResponse describes a tree so a client can rebuild it locally.
func treeResponse(tree *loctree.Tree, spacing, epsilon float64) TreeResponse {
	origin := tree.System().Origin()
	root := tree.Root()
	return TreeResponse{
		OriginLat:     origin.Lat,
		OriginLng:     origin.Lng,
		LeafSpacingKm: spacing,
		Height:        tree.Height(),
		RootQ:         root.Coord.Q,
		RootR:         root.Coord.R,
		Epsilon:       epsilon,
	}
}

// priorsResponse flattens the public leaf priors for the wire.
func priorsResponse(tree *loctree.Tree, priors *loctree.Priors) PriorsResponse {
	leaves := tree.LevelNodes(0)
	resp := PriorsResponse{Leaves: make([][2]int, len(leaves)), Probs: make([]float64, len(leaves))}
	for i, l := range leaves {
		resp.Leaves[i] = [2]int{l.Coord.Q, l.Coord.R}
		resp.Probs[i] = priors.Of(tree, l)
	}
	return resp
}

// generateErrStatus maps a forest-generation error to GET /v1/forest's
// HTTP status and message.
func generateErrStatus(err error) (int, string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "generation timed out: " + err.Error()
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, "request canceled"
	default:
		return http.StatusUnprocessableEntity, err.Error()
	}
}

// wantsForestV2 reports whether the request negotiated the compact v2
// forest encoding via Accept.
func wantsForestV2(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), ContentTypeForestV2)
}

// encodeForest is the one place a forest's encoding is picked: the compact
// v2 form (a *ForestResponseV2) when the request negotiated it, dense v1
// (a *ForestResponse) otherwise, with the content type that names it.
func encodeForest(tree *loctree.Tree, forest *core.Forest, v2 bool) (v any, contentType string, err error) {
	if v2 {
		v, err = EncodeForestV2(tree, forest)
		return v, ContentTypeForestV2, err
	}
	v, err = EncodeForestV1(tree, forest)
	return v, "application/json", err
}

// writeForestNegotiated serves a generated forest in whichever encoding
// the request's Accept header negotiated (v2 compact or v1 dense), with a
// strong ETag over the encoded body. A request whose If-None-Match lists
// the current tag gets 304 Not Modified with no body — clients keep a
// small forest cache and revalidate for free (generation itself is served
// by the engine's own caches; the 304 saves the payload bytes).
func writeForestNegotiated(w http.ResponseWriter, r *http.Request, tree *loctree.Tree, forest *core.Forest) {
	v, ctype, err := encodeForest(tree, forest, wantsForestV2(r))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	// The response varies by negotiated encoding (Accept) and content
	// coding (Accept-Encoding), and the strong ETag must name that exact
	// representation — without both, a shared cache could satisfy a
	// v1/identity client with v2/gzip bytes.
	etag := forestETag(body, acceptsGzip(r))
	w.Header().Set("Vary", "Accept, Accept-Encoding")
	w.Header().Set("ETag", etag)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	writeRaw(w, r, ctype, body)
}

// EncodeForestV1 converts a generated forest into the dense v1 wire form,
// emitting entries in the tree's level-node order.
func EncodeForestV1(tree *loctree.Tree, forest *core.Forest) (*ForestResponse, error) {
	entries, err := forest.Ordered(tree)
	if err != nil {
		return nil, err
	}
	resp := &ForestResponse{PrivacyLevel: forest.PrivacyLevel, Delta: forest.Delta}
	for _, e := range entries {
		wire := ForestEntryWire{RootQ: e.Root.Coord.Q, RootR: e.Root.Coord.R}
		for _, l := range e.Leaves {
			wire.Leaves = append(wire.Leaves, [2]int{l.Coord.Q, l.Coord.R})
		}
		for i := 0; i < e.Matrix.Dim(); i++ {
			row := make([]float64, e.Matrix.Dim())
			copy(row, e.Matrix.Row(i))
			wire.Rows = append(wire.Rows, row)
		}
		resp.Entries = append(resp.Entries, wire)
	}
	return resp, nil
}

// Client is the user-side API consumer. The zero Region addresses the
// server's default region; setting Region (or using NewRegionClient)
// routes every call to that named shard of a multi-region server.
//
// Forest requests advertise the compact v2 encoding and (via the
// transport's default negotiation) gzip; ForceV1 is the escape hatch back
// to dense v1 JSON for debugging or very old servers.
type Client struct {
	base   string
	region string
	http   *http.Client

	// ForceV1 stops advertising the compact v2 forest encoding, so
	// responses come back as dense v1 JSON.
	ForceV1 bool

	bytesIn atomic.Int64
}

// BytesIn is how many response body bytes the client's JSON POSTs (the
// report, batch report and lease routes) have read: corgi-loadgen's
// bytes_received.
func (c *Client) BytesIn() int64 { return c.bytesIn.Load() }

// NewClient targets a server base URL (e.g. "http://127.0.0.1:8080"). The
// client gets its own transport with an idle-connection pool sized for
// concurrent callers: the shared DefaultTransport keeps only 2 idle
// connections per host, which under a concurrent workload (the loadgen,
// batch fan-outs) tears down and re-dials keep-alive connections
// constantly.
func NewClient(base string) *Client {
	tr := &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     90 * time.Second,
	}
	return &Client{base: base, http: &http.Client{Transport: tr, Timeout: 10 * time.Minute}}
}

// NewRegionClient targets one named region of a multi-region server.
// Unknown regions fail with the server's 404, whose message lists the
// available region names.
func NewRegionClient(base, region string) *Client {
	c := NewClient(base)
	c.region = region
	return c
}

// path appends the client's region parameter to an API path.
func (c *Client) path(p string) string {
	if c.region == "" {
		return p
	}
	return p + "?region=" + url.QueryEscape(c.region)
}

// FetchRegions lists the server's regions. Pre-sharding servers have no
// /v1/regions route; callers get their 404 as an error.
func (c *Client) FetchRegions() (*RegionsResponse, error) {
	var rr RegionsResponse
	if err := c.getJSON("/v1/regions", &rr); err != nil {
		return nil, err
	}
	return &rr, nil
}

// FetchTree retrieves the tree parameters and rebuilds the location tree.
func (c *Client) FetchTree() (*loctree.Tree, *TreeResponse, error) {
	var tr TreeResponse
	if err := c.getJSON(c.path("/v1/tree"), &tr); err != nil {
		return nil, nil, err
	}
	sys, err := hexgrid.NewSystem(geo.LatLng{Lat: tr.OriginLat, Lng: tr.OriginLng}, tr.LeafSpacingKm)
	if err != nil {
		return nil, nil, err
	}
	tree, err := loctree.New(sys, hexgrid.Coord{Q: tr.RootQ, R: tr.RootR}, tr.Height)
	if err != nil {
		return nil, nil, err
	}
	return tree, &tr, nil
}

// FetchPriors retrieves the public leaf priors for a rebuilt tree.
func (c *Client) FetchPriors(tree *loctree.Tree) (*loctree.Priors, error) {
	var pr PriorsResponse
	if err := c.getJSON(c.path("/v1/priors"), &pr); err != nil {
		return nil, err
	}
	if len(pr.Leaves) != tree.NumLeaves() || len(pr.Probs) != len(pr.Leaves) {
		return nil, fmt.Errorf("proto: server sent %d leaves and %d priors, tree has %d leaves",
			len(pr.Leaves), len(pr.Probs), tree.NumLeaves())
	}
	leaf := make([]float64, tree.NumLeaves())
	seen := make([]bool, tree.NumLeaves())
	for i, qr := range pr.Leaves {
		n := loctree.NodeID{Level: 0, Coord: hexgrid.Coord{Q: qr[0], R: qr[1]}}
		idx, ok := tree.IndexOf(n)
		switch {
		case !ok:
			return nil, fmt.Errorf("proto: prior for foreign leaf %v", n)
		case seen[idx]:
			return nil, fmt.Errorf("proto: leaf %v has two priors", n)
		}
		seen[idx] = true
		leaf[idx] = pr.Probs[i]
	}
	return loctree.NewPriors(tree, leaf)
}

// NewForestRequest builds the one forest request every consumer sends:
// GET /v1/forest?region=R&privacy_l=L&delta=D. Only the privacy level and
// the prune allowance delta = |S| cross the trust boundary (Sec. 5.2 step
// 4), and a GET of a public, deterministic resource is what a shared cache
// may store. The request advertises the compact v2 encoding unless forceV1;
// an empty region addresses the server's default region.
func NewForestRequest(ctx context.Context, base, region string, privacyLevel, delta int, forceV1 bool) (*http.Request, error) {
	u := base + "/v1/forest?region=" + url.QueryEscape(region) +
		"&privacy_l=" + strconv.Itoa(privacyLevel) + "&delta=" + strconv.Itoa(delta)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	accept := ContentTypeForestV2 + ", application/json"
	if forceV1 {
		accept = "application/json"
	}
	req.Header.Set("Accept", accept)
	return req, nil
}

// ForestResult is one forest fetch outcome, carrying enough for a caller
// to maintain its own conditional-fetch cache: the decoded forest, the
// response's strong ETag, and the raw body + content type to store and
// re-decode after a later 304.
type ForestResult struct {
	// Forest is the decoded forest; nil when NotModified.
	Forest *core.Forest
	// ETag is the response's entity tag ("" if the server sent none).
	ETag string
	// NotModified reports a 304: the caller's cached copy (whose tag was
	// sent as ifNoneMatch) is still current.
	NotModified bool
	// ContentType and Body are the raw representation, for caching. Empty
	// when NotModified.
	ContentType string
	Body        []byte
}

// FetchForest requests the privacy forest for (privacyLevel, delta) and
// reassembles it against the local tree. The request advertises the compact
// v2 encoding (unless ForceV1); the response Content-Type decides which
// decoder runs, so a v1-only server keeps working unchanged.
func (c *Client) FetchForest(tree *loctree.Tree, privacyLevel, delta int) (*core.Forest, error) {
	res, err := c.FetchForestTagged(tree, privacyLevel, delta, "")
	if err != nil {
		return nil, err
	}
	return res.Forest, nil
}

// FetchForestTagged is FetchForest with conditional-fetch support: a
// non-empty ifNoneMatch is sent as If-None-Match, and a 304 comes back as
// NotModified=true with no body re-downloaded or decoded. A 304 to a
// request that sent no tag is an error: there is no cached copy it could
// mean. Decode a cached body with DecodeForestBody.
func (c *Client) FetchForestTagged(tree *loctree.Tree, privacyLevel, delta int, ifNoneMatch string) (*ForestResult, error) {
	req, err := NewForestRequest(context.Background(), c.base, c.region, privacyLevel, delta, c.ForceV1)
	if err != nil {
		return nil, err
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	defer drainBody(resp.Body)
	if resp.StatusCode == http.StatusNotModified {
		if ifNoneMatch == "" {
			return nil, errors.New("proto: 304 Not Modified to a forest request that named no cached copy")
		}
		etag := resp.Header.Get("ETag")
		if etag == "" {
			etag = ifNoneMatch
		}
		return &ForestResult{ETag: etag, NotModified: true}, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, statusError(resp)
	}
	raw, err := readBody(resp)
	if err != nil {
		return nil, err
	}
	ctype := resp.Header.Get("Content-Type")
	forest, err := DecodeForestBody(tree, ctype, raw)
	if err != nil {
		return nil, err
	}
	return &ForestResult{
		Forest:      forest,
		ETag:        resp.Header.Get("ETag"),
		ContentType: ctype,
		Body:        raw,
	}, nil
}

// DecodeForestBody reassembles a raw forest response body against the
// local tree, dispatching on the response's Content-Type (v2 compact or v1
// dense); core.DecodeForest validates either. It is the decoding half of
// FetchForestTagged, exported so callers can re-decode bodies they cached
// across a 304.
func DecodeForestBody(tree *loctree.Tree, contentType string, body []byte) (*core.Forest, error) {
	if strings.Contains(contentType, ContentTypeForestV2) {
		var fr ForestResponseV2
		if err := json.Unmarshal(body, &fr); err != nil {
			return nil, err
		}
		return core.DecodeForest(tree, fr.PrivacyLevel, fr.Delta, fr.Entries)
	}
	var fr ForestResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		return nil, err
	}
	return core.DecodeForest(tree, fr.PrivacyLevel, fr.Delta, fr.Entries)
}

func (c *Client) getJSON(path string, v interface{}) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	defer drainBody(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return statusError(resp)
	}
	return decodeBody(resp, v)
}
