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
// Rejections come back as *registry.Rejection; any other error is a
// transport fault. The context is not observed — ClientConfig.Timeout
// bounds each exchange.
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

// Lease implements registry.ReportHandler over one LEASE exchange. The
// handler interface answers with a pointer, so the grant Client.Lease
// decoded moves to the heap: one object for the grant, its bytes cut from
// the connection's chunk as Client.Lease says, and no pool behind either.
func (r Remote) Lease(_ context.Context, req registry.LeaseRequest) (*registry.LeaseGrant, error) {
	grant, err := r.c.Lease(WireLease(req), req.Draws, req.Token)
	if err != nil {
		return nil, err
	}
	return &grant, nil
}

// ReportBatch draws for many requests in one REPORTS round trip; per-item
// outcomes come back in request order.
func (r Remote) ReportBatch(_ context.Context, reqs []registry.ReportRequest) ([]registry.BatchOutcome, error) {
	items, err := r.c.ReportBatch(WireRequests(reqs))
	if err != nil {
		return nil, err
	}
	return Outcomes(reqs, items), nil
}

// The four functions below are every copy between the wire's request shape
// and the registry's asks, one per direction for reports and for leases;
// WireFacts and Facts.Registry are the pair for the answers' facts. Both
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

// WireFacts spells a registry answer's customization facts in the wire
// shape; with Facts.Registry it is the one copy between the two, for
// report and lease answers alike.
func WireFacts(f registry.Facts) Facts {
	return Facts{
		Region:         f.Region,
		PrecisionLevel: f.PrecisionLevel,
		SubtreeRoot:    [2]int{f.SubtreeRoot.Coord.Q, f.SubtreeRoot.Coord.R},
		Pruned:         f.Pruned,
		Reanchored:     f.Reanchored,
		Budgeted:       f.Budgeted,
		EpsSpent:       f.EpsSpent,
		EpsRemaining:   f.EpsRemaining,
		Degraded:       f.Degraded,
	}
}

// Registry is WireFacts' inverse. The wire sends the subtree root's
// coordinate only, so its level is the ask's privacy level.
func (f Facts) Registry(privacyLevel int) registry.Facts {
	return registry.Facts{
		Region:         f.Region,
		SubtreeRoot:    loctree.NodeID{Level: privacyLevel, Coord: hexgrid.Coord{Q: f.SubtreeRoot[0], R: f.SubtreeRoot[1]}},
		PrecisionLevel: f.PrecisionLevel,
		Pruned:         f.Pruned,
		Reanchored:     f.Reanchored,
		Budgeted:       f.Budgeted,
		EpsSpent:       f.EpsSpent,
		EpsRemaining:   f.EpsRemaining,
		Degraded:       f.Degraded,
	}
}

// WireResponse spells a registry result in the wire shape, for the JSON
// routes; REPORT_OK frames encode the result directly (appendResult).
func WireResponse(res *registry.ReportResult) *Response {
	resp := &Response{Facts: WireFacts(res.Facts), Reports: make([]ReportedLocation, len(res.Reports))}
	for i, n := range res.Reports {
		c := res.Centers[i]
		resp.Reports[i] = ReportedLocation{Q: n.Coord.Q, R: n.Coord.R, Lat: c.Lat, Lng: c.Lng}
	}
	return resp
}

// Result is WireResponse's inverse: a decoded response as the registry's
// result type, the subtree root at the ask's privacy level and the reports
// at the response's precision level.
func (resp *Response) Result(privacyLevel int) *registry.ReportResult {
	res := &registry.ReportResult{
		Facts:   resp.Registry(privacyLevel),
		Reports: make([]loctree.NodeID, len(resp.Reports)),
		Centers: make([]geo.LatLng, len(resp.Reports)),
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

// Outcomes is the batch answer in the registry's terms: each item's
// refusal as it came, and a served item's report as a result. reqs is
// index-aligned with items (the callers check the server answered every
// request, and that an item reading 200 carries its report).
func Outcomes(reqs []registry.ReportRequest, items []ItemResult) []registry.BatchOutcome {
	out := make([]registry.BatchOutcome, len(items))
	for i, it := range items {
		out[i].Rejection = it.Rejection
		if it.Report != nil {
			out[i].Result = it.Report.Result(reqs[i].Policy.PrivacyLevel)
		}
	}
	return out
}
