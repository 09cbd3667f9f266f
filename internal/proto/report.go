package proto

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"corgi/internal/hexgrid"
	"corgi/internal/registry"
	"corgi/internal/stream"
)

// DefaultMaxReportCount bounds how many draws one report request may ask
// for; a client wanting more batches requests. It aliases the
// registry-level constant so the HTTP, stream, and lease transports all
// enforce the same limit.
const DefaultMaxReportCount = registry.DefaultMaxReportCount

// The report wire shapes are declared once, in internal/stream (which
// this package imports, not the other way round): the JSON routes and the
// binary frames carry the same request, response and batch-item fields, so
// both transports' clients hand callers the same types.
type (
	// ReportRequest asks the server to draw obfuscated reports directly.
	ReportRequest = stream.Request
	// ReportedLocation is one drawn report.
	ReportedLocation = stream.ReportedLocation
	// ReportResponse carries the drawn reports plus the customization facts.
	ReportResponse = stream.Response
	// ReportItemResult is one batch item's outcome; items fail
	// independently with per-item HTTP-equivalent statuses.
	ReportItemResult = stream.ItemResult
)

// BatchReportRequest draws for many users/cells in one round trip.
type BatchReportRequest struct {
	Items []ReportRequest `json:"items"`
}

// BatchReportResponse is the batch envelope; HTTP 200 as long as the
// batch itself was well-formed.
type BatchReportResponse struct {
	Items []ReportItemResult `json:"items"`
}

// resolveReport translates one wire request into the registry pipeline.
func (h *MultiHandler) resolveReport(ctx context.Context, req ReportRequest) (*ReportResponse, int, string) {
	maxCount := h.MaxReportCount
	if maxCount <= 0 {
		maxCount = DefaultMaxReportCount
	}
	if req.Count > maxCount {
		return nil, http.StatusUnprocessableEntity,
			fmt.Sprintf("count %d exceeds limit %d", req.Count, maxCount)
	}
	res, err := h.handler().Report(ctx, registry.ReportRequest{
		Region:    req.Region,
		Cell:      hexgrid.Coord{Q: req.Cell[0], R: req.Cell[1]},
		UID:       req.UID,
		Policy:    req.Policy,
		Seed:      req.Seed,
		Count:     req.Count,
		Forwarded: req.Forwarded,
		Handoff:   req.Handoff,
	})
	if err != nil {
		status, msg := registry.ReportErrStatus(err)
		return nil, status, msg
	}
	defer res.Release()
	resp := &ReportResponse{
		Region:         res.Region,
		PrecisionLevel: res.PrecisionLevel,
		SubtreeRoot:    [2]int{res.SubtreeRoot.Coord.Q, res.SubtreeRoot.Coord.R},
		Pruned:         res.Pruned,
		Reports:        make([]ReportedLocation, len(res.Reports)),
		Reanchored:     res.Reanchored,
		Budgeted:       res.Budgeted,
		EpsSpent:       res.EpsSpent,
		EpsRemaining:   res.EpsRemaining,
		Degraded:       res.Degraded,
	}
	for i, n := range res.Reports {
		c := res.Centers[i]
		resp.Reports[i] = ReportedLocation{Q: n.Coord.Q, R: n.Coord.R, Lat: c.Lat, Lng: c.Lng}
	}
	return resp, http.StatusOK, ""
}

// handleReport serves POST /v1/report: one user's draws. The region rides
// in the body (or ?region= as a fallback, matching the other routes).
func (h *MultiHandler) handleReport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req ReportRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.Region == "" {
		req.Region = r.URL.Query().Get("region")
	}
	ctx, cancel := h.requestCtx(r)
	defer cancel()
	resp, status, msg := h.resolveReport(ctx, req)
	if status != http.StatusOK {
		http.Error(w, msg, status)
		return
	}
	writeJSONPooled(w, r, resp)
}

// handleReports serves POST /v1/reports: a batch of report draws with
// per-item statuses, fanned out concurrently like /v1/forests — each
// shard's engine still bounds its own solve concurrency and the session
// managers serialize per-session draws.
func (h *MultiHandler) handleReports(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req BatchReportRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 4<<20)).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	maxBatch := h.MaxBatch
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	if len(req.Items) == 0 {
		http.Error(w, "batch has no items", http.StatusBadRequest)
		return
	}
	if len(req.Items) > maxBatch {
		http.Error(w, fmt.Sprintf("batch of %d items exceeds limit %d", len(req.Items), maxBatch),
			http.StatusRequestEntityTooLarge)
		return
	}
	ctx, cancel := h.requestCtx(r)
	defer cancel()

	resp := BatchReportResponse{Items: make([]ReportItemResult, len(req.Items))}
	var wg sync.WaitGroup
	for i, item := range req.Items {
		wg.Add(1)
		go func(i int, item ReportRequest) {
			defer wg.Done()
			rep, status, msg := h.resolveReport(ctx, item)
			resp.Items[i] = ReportItemResult{Status: status, Error: msg, Report: rep}
		}(i, item)
	}
	wg.Wait()
	writeJSONPooled(w, r, resp)
}

// Report draws obfuscated reports from the server-side pipeline. A client
// with a bound region (NewRegionClient) fills an empty request Region.
// Non-200 answers return a *stream.StatusError.
func (c *Client) Report(req ReportRequest) (*ReportResponse, error) {
	return c.report(context.Background(), req)
}

func (c *Client) report(ctx context.Context, req ReportRequest) (*ReportResponse, error) {
	if req.Region == "" {
		req.Region = c.region
	}
	var resp ReportResponse
	if err := c.postJSON(ctx, "/v1/report", "", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// ReportBatch draws for many requests in one POST /v1/reports round trip;
// per-item outcomes come back in request order with their own statuses.
// The caller's slice is not modified: a bound region fills empty item
// regions on a copy (matching FetchForestBatch's no-mutation contract).
func (c *Client) ReportBatch(items []ReportRequest) (*BatchReportResponse, error) {
	return c.reportBatch(context.Background(), items)
}

func (c *Client) reportBatch(ctx context.Context, items []ReportRequest) (*BatchReportResponse, error) {
	sent := items
	if c.region != "" {
		sent = append([]ReportRequest(nil), items...)
		for i := range sent {
			if sent[i].Region == "" {
				sent[i].Region = c.region
			}
		}
	}
	var resp BatchReportResponse
	if err := c.postJSON(ctx, "/v1/reports", "", BatchReportRequest{Items: sent}, &resp); err != nil {
		return nil, err
	}
	if len(resp.Items) != len(items) {
		return nil, fmt.Errorf("proto: batch answered %d items for %d requests", len(resp.Items), len(items))
	}
	return &resp, nil
}

// Remote is a Client seen as a registry.ReportHandler, the JSON twin of
// stream.Remote: registry request types in, registry result types out,
// rejections as *stream.StatusError, anything else a transport fault. The
// context bounds each round trip.
type Remote struct{ c *Client }

// Remote returns the client's registry.ReportHandler view.
func (c *Client) Remote() Remote { return Remote{c} }

// Report implements registry.ReportHandler over POST /v1/report.
func (r Remote) Report(ctx context.Context, req registry.ReportRequest) (*registry.ReportResult, error) {
	resp, err := r.c.report(ctx, stream.WireRequest(req))
	if err != nil {
		return nil, err
	}
	return resp.Result(req.Policy.PrivacyLevel), nil
}

// ReportBatch draws for many requests in one POST /v1/reports round trip;
// per-item outcomes come back in request order.
func (r Remote) ReportBatch(ctx context.Context, reqs []registry.ReportRequest) ([]stream.BatchResult, error) {
	resp, err := r.c.reportBatch(ctx, stream.WireRequests(reqs))
	if err != nil {
		return nil, err
	}
	return stream.BatchResults(reqs, resp.Items), nil
}

// postJSON posts a JSON body (advertising accept, when non-empty) and
// decodes a JSON response; a non-200 answer returns a
// *stream.StatusError. Every return path fully drains the
// response body first, so the keep-alive connection goes back to the
// transport's pool instead of being torn down — without the drain, error
// responses and decoder-trailing bytes force a fresh TCP connection per
// affected request.
func (c *Client) postJSON(ctx context.Context, path, accept string, body, v interface{}) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	resp.Body = countingBody{resp.Body, &c.bytesIn}
	defer resp.Body.Close()
	defer drainBody(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return statusError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
