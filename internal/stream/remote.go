package stream

import (
	"context"

	"corgi/internal/geo"
	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
	"corgi/internal/registry"
)

// Remote is a Client seen as a registry.ReportHandler: it takes the
// registry's own request types and answers with its result types, so a
// caller holding a handler (the cluster router, corgi-loadgen) drives a
// remote node exactly as it would an in-process *registry.Registry.
// Rejections come back as *StatusError; any other error is a transport
// fault. The context is not observed — ClientConfig.Timeout bounds each
// exchange.
type Remote struct{ c *Client }

// Remote returns the client's registry.ReportHandler view.
func (c *Client) Remote() Remote { return Remote{c} }

// Report implements registry.ReportHandler over one REPORT exchange.
func (r Remote) Report(_ context.Context, req registry.ReportRequest) (*registry.ReportResult, error) {
	resp, err := r.c.Report(WireRequest(req))
	if err != nil {
		return nil, err
	}
	return resp.Result(req.Policy.PrivacyLevel), nil
}

// Lease implements registry.ReportHandler over one LEASE exchange.
func (r Remote) Lease(_ context.Context, req registry.LeaseRequest) (*registry.LeaseGrant, error) {
	return r.c.Lease(WireLease(req), req.Draws, req.Token)
}

// BatchResult is one batch item's outcome in handler terms: Result on
// success, otherwise the *StatusError the item was refused with.
type BatchResult struct {
	Result *registry.ReportResult
	Err    error
}

// ReportBatch draws for many requests in one REPORTS round trip; per-item
// outcomes come back in request order.
func (r Remote) ReportBatch(_ context.Context, reqs []registry.ReportRequest) ([]BatchResult, error) {
	items, err := r.c.ReportBatch(WireRequests(reqs))
	if err != nil {
		return nil, err
	}
	return BatchResults(reqs, items), nil
}

// The four functions below are every copy between the wire's request shape
// and the registry's asks, one per direction for reports and for leases;
// WireResponse and Response.Result are the pair for report answers. Both
// transports' servers and Remote views convert through them and nowhere
// else.

// WireRequest spells a registry report ask in the wire shape.
func WireRequest(req registry.ReportRequest) Request {
	return Request{
		Region:    req.Region,
		Cell:      [2]int{req.Cell.Q, req.Cell.R},
		UID:       req.UID,
		Policy:    req.Policy,
		Seed:      req.Seed,
		Count:     req.Count,
		Forwarded: req.Forwarded,
		Handoff:   req.Handoff,
	}
}

// Ask is WireRequest's inverse: the registry report ask a wire request
// stands for.
func (r *Request) Ask() registry.ReportRequest {
	return registry.ReportRequest{
		Region:    r.Region,
		Cell:      hexgrid.Coord{Q: r.Cell[0], R: r.Cell[1]},
		UID:       r.UID,
		Policy:    r.Policy,
		Seed:      r.Seed,
		Count:     r.Count,
		Forwarded: r.Forwarded,
		Handoff:   r.Handoff,
	}
}

// WireLease spells a registry lease ask's request part in the wire shape;
// the draw cap and renewal token travel beside it (req.Draws, req.Token),
// never in Count.
func WireLease(req registry.LeaseRequest) Request {
	return Request{
		Region:    req.Region,
		Cell:      [2]int{req.Cell.Q, req.Cell.R},
		UID:       req.UID,
		Policy:    req.Policy,
		Seed:      req.Seed,
		Forwarded: req.Forwarded,
		Handoff:   req.Handoff,
	}
}

// LeaseAsk is WireLease's inverse: the registry lease ask for a wire
// request (its Count ignored) with the draw cap and renewal token that
// came beside it.
func (r *Request) LeaseAsk(draws int, token []byte) registry.LeaseRequest {
	return registry.LeaseRequest{
		Region:    r.Region,
		Cell:      hexgrid.Coord{Q: r.Cell[0], R: r.Cell[1]},
		UID:       r.UID,
		Policy:    r.Policy,
		Seed:      r.Seed,
		Draws:     draws,
		Token:     token,
		Forwarded: r.Forwarded,
		Handoff:   r.Handoff,
	}
}

// WireRequests is WireRequest over a batch.
func WireRequests(reqs []registry.ReportRequest) []Request {
	out := make([]Request, len(reqs))
	for i, req := range reqs {
		out[i] = WireRequest(req)
	}
	return out
}

// WireResponse spells a registry result in the wire shape, for the JSON
// routes; REPORT_OK frames encode the result directly (appendResult).
func WireResponse(res *registry.ReportResult) *Response {
	resp := &Response{
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
	return resp
}

// Result is WireResponse's inverse: a decoded response as the registry's
// result type. The wire sends node coordinates only, so the subtree root's level
// comes from the request policy's privacy level and the reports' from the
// response's precision level.
func (resp *Response) Result(privacyLevel int) *registry.ReportResult {
	res := &registry.ReportResult{
		Region: resp.Region,
		SubtreeRoot: loctree.NodeID{
			Level: privacyLevel,
			Coord: hexgrid.Coord{Q: resp.SubtreeRoot[0], R: resp.SubtreeRoot[1]},
		},
		PrecisionLevel: resp.PrecisionLevel,
		Pruned:         resp.Pruned,
		Reanchored:     resp.Reanchored,
		Budgeted:       resp.Budgeted,
		EpsSpent:       resp.EpsSpent,
		EpsRemaining:   resp.EpsRemaining,
		Degraded:       resp.Degraded,
		Reports:        make([]loctree.NodeID, len(resp.Reports)),
		Centers:        make([]geo.LatLng, len(resp.Reports)),
	}
	for i, rep := range resp.Reports {
		res.Reports[i] = loctree.NodeID{
			Level: resp.PrecisionLevel,
			Coord: hexgrid.Coord{Q: rep.Q, R: rep.R},
		}
		res.Centers[i] = geo.LatLng{Lat: rep.Lat, Lng: rep.Lng}
	}
	return res
}

// BatchResults converts a batch envelope's items; reqs is index-aligned
// with items (the callers check the server answered every request).
func BatchResults(reqs []registry.ReportRequest, items []ItemResult) []BatchResult {
	out := make([]BatchResult, len(items))
	for i, it := range items {
		if it.Status == statusOK && it.Report != nil {
			out[i].Result = it.Report.Result(reqs[i].Policy.PrivacyLevel)
			continue
		}
		out[i].Err = &StatusError{
			Status:          it.Status,
			Msg:             it.Error,
			EpsRemaining:    it.EpsRemaining,
			HasEpsRemaining: it.HasEpsRemaining,
		}
	}
	return out
}
