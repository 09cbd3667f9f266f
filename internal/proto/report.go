package proto

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"corgi/internal/registry"
	"corgi/internal/stream"
)

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

// decodePost reads a POST route's JSON body (at most limit bytes) into v,
// answering 405 or 400 itself when it cannot.
func decodePost(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, limit)).Decode(v); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// epsRemainingHeader carries the user's live epsilon headroom on
// 429-rejected lease and report requests.
const epsRemainingHeader = "X-Corgi-Eps-Remaining"

// reject answers a refused ask: the classification's status and message,
// with a budget rejection's live headroom in X-Corgi-Eps-Remaining (the
// JSON-free analogue of the ERROR frame's eps_remaining field).
func reject(w http.ResponseWriter, rej registry.Rejection) {
	if rej.HasEps {
		w.Header().Set(epsRemainingHeader, strconv.FormatFloat(rej.EpsRemaining, 'g', -1, 64))
	}
	http.Error(w, rej.Msg, rej.Status)
}

// handleReport serves POST /v1/report: one user's draws. The region rides
// in the body (or ?region= as a fallback, matching the other routes).
func (h *MultiHandler) handleReport(w http.ResponseWriter, r *http.Request) {
	var req ReportRequest
	if !decodePost(w, r, 1<<20, &req) {
		return
	}
	if req.Region == "" {
		req.Region = r.URL.Query().Get("region")
	}
	ctx, cancel := h.requestCtx(r)
	defer cancel()
	res, err := h.Handler.Report(ctx, req.Ask())
	if err != nil {
		reject(w, registry.Classify(err))
		return
	}
	defer res.Release()
	writeJSONPooled(w, r, stream.WireResponse(res))
}

// handleReports serves POST /v1/reports: a batch of report draws with
// per-item statuses, from the same registry.ReportBatch as a REPORTS frame.
func (h *MultiHandler) handleReports(w http.ResponseWriter, r *http.Request) {
	var req BatchReportRequest
	if !decodePost(w, r, 4<<20, &req) {
		return
	}
	asks := make([]registry.ReportRequest, len(req.Items))
	for i := range req.Items {
		asks[i] = req.Items[i].Ask()
	}
	ctx, cancel := h.requestCtx(r)
	defer cancel()
	outs, rej := h.reg.ReportBatch(ctx, h.Handler, asks)
	if rej != nil {
		reject(w, *rej)
		return
	}
	resp := BatchReportResponse{Items: make([]ReportItemResult, len(outs))}
	for i, out := range outs {
		resp.Items[i] = ReportItemResult{Status: out.Status, Error: out.Msg,
			EpsRemaining: out.EpsRemaining, HasEpsRemaining: out.HasEps}
		if out.Result != nil {
			resp.Items[i].Report = stream.WireResponse(out.Result)
			out.Result.Release()
		}
	}
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
	if err := c.postJSON(ctx, "/v1/report", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// reportBatch draws for many requests in one POST /v1/reports round trip;
// per-item outcomes come back in request order with their own statuses.
// The caller's slice is not modified: a bound region fills empty item
// regions on a copy.
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
	if err := c.postJSON(ctx, "/v1/reports", BatchReportRequest{Items: sent}, &resp); err != nil {
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

// postJSON posts a JSON body and decodes a JSON response; a non-200 answer returns a
// *stream.StatusError. Every return path fully drains the
// response body first, so the keep-alive connection goes back to the
// transport's pool instead of being torn down — without the drain, error
// responses and decoder-trailing bytes force a fresh TCP connection per
// affected request.
func (c *Client) postJSON(ctx context.Context, path string, body, v interface{}) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
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
	return decodeBody(resp, v)
}
