package proto

// This file is the HTTP face of the draw-lease pipeline (POST /v1/lease):
// the JSON mirror of registry.Lease. Token and bundle travel as base64
// (encoding/json's native []byte form); the bundle's weights stay exact —
// base64 wraps the binary codec, it never re-encodes floats. Budget
// rejections answer 429 with the user's live headroom in the
// X-Corgi-Eps-Remaining header, as every 429 does (see reject); bad tokens
// answer 403.

import (
	"context"
	"net/http"

	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
	"corgi/internal/registry"
	"corgi/internal/stream"
)

// LeaseRequest asks for a client-side draw lease: the report request's
// fields (its Count unused) plus the draw cap to pre-pay and an optional
// renewal token.
type LeaseRequest struct {
	stream.Request
	// Draws is the draw cap to pre-pay (default 1, bounded by the
	// registry's Options.MaxReportCount — the same limit as /v1/report).
	Draws int `json:"draws,omitempty"`
	// Token renews a previous lease (base64 on the wire).
	Token []byte `json:"token,omitempty"`
}

// LeaseResponse is an issued lease: the signed token, the encoded bundle,
// and the customization facts a report response would carry.
type LeaseResponse struct {
	Region         string `json:"region"`
	PrecisionLevel int    `json:"precision_l"`
	SubtreeRoot    [2]int `json:"subtree_root"`
	Pruned         int    `json:"pruned"`
	Reanchored     bool   `json:"reanchored,omitempty"`
	// Budgeted / EpsSpent / EpsRemaining mirror ReportResponse, except the
	// spend covers the whole pre-paid draw cap in one charge.
	Budgeted     bool    `json:"budgeted,omitempty"`
	EpsSpent     float64 `json:"eps_spent,omitempty"`
	EpsRemaining float64 `json:"eps_remaining,omitempty"`
	Degraded     bool    `json:"degraded,omitempty"`
	// DrawCap is the granted cap; RNGPos the stream position the leased
	// window starts at; ExpiresUnixMs the token expiry.
	DrawCap       int    `json:"draw_cap"`
	RNGPos        uint64 `json:"rng_pos"`
	ExpiresUnixMs int64  `json:"expires_unix_ms"`
	Renewed       bool   `json:"renewed,omitempty"`
	// Token is the signed lease token; Bundle the encoded lease bundle
	// (clientdraw.Open consumes both). Base64 on the wire.
	Token  []byte `json:"token"`
	Bundle []byte `json:"bundle"`
}

// leaseResponse converts a registry grant to its wire form.
func leaseResponse(g *registry.LeaseGrant) *LeaseResponse {
	return &LeaseResponse{
		Region:         g.Region,
		PrecisionLevel: g.PrecisionLevel,
		SubtreeRoot:    [2]int{g.SubtreeRoot.Coord.Q, g.SubtreeRoot.Coord.R},
		Pruned:         g.Pruned,
		Reanchored:     g.Reanchored,
		Budgeted:       g.Budgeted,
		EpsSpent:       g.EpsSpent,
		EpsRemaining:   g.EpsRemaining,
		Degraded:       g.Degraded,
		DrawCap:        g.DrawCap,
		RNGPos:         g.RNGPos,
		ExpiresUnixMs:  g.ExpiresAt,
		Renewed:        g.Renewed,
		Token:          g.Token,
		Bundle:         g.Bundle,
	}
}

// handleLease serves POST /v1/lease: issue (or renew) a client-side draw
// lease, releasing the grant once the response is written.
func (h *MultiHandler) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodePost(w, r, 1<<20, &req) {
		return
	}
	if req.Region == "" {
		req.Region = r.URL.Query().Get("region")
	}
	ctx, cancel := h.requestCtx(r)
	defer cancel()
	grant, err := h.Handler.Lease(ctx, req.LeaseAsk(req.Draws, req.Token))
	if err != nil {
		reject(w, registry.Classify(err))
		return
	}
	writeJSONPooled(w, r, leaseResponse(grant))
	grant.Release()
}

// lease requests (or renews) a client-side draw lease. Non-200 responses
// return a *stream.StatusError carrying the status and, for budget
// rejections, the eps_remaining headroom.
func (c *Client) lease(ctx context.Context, req LeaseRequest) (*LeaseResponse, error) {
	if req.Region == "" {
		req.Region = c.region
	}
	var lr LeaseResponse
	if err := c.postJSON(ctx, "/v1/lease", req, &lr); err != nil {
		return nil, err
	}
	return &lr, nil
}

// Lease implements registry.ReportHandler over POST /v1/lease.
func (r Remote) Lease(ctx context.Context, req registry.LeaseRequest) (*registry.LeaseGrant, error) {
	lr, err := r.c.lease(ctx, LeaseRequest{Request: stream.WireLease(req), Draws: req.Draws, Token: req.Token})
	if err != nil {
		return nil, err
	}
	return &registry.LeaseGrant{
		Region: lr.Region,
		SubtreeRoot: loctree.NodeID{
			Level: req.Policy.PrivacyLevel,
			Coord: hexgrid.Coord{Q: lr.SubtreeRoot[0], R: lr.SubtreeRoot[1]},
		},
		PrecisionLevel: lr.PrecisionLevel,
		Pruned:         lr.Pruned,
		Reanchored:     lr.Reanchored,
		Budgeted:       lr.Budgeted,
		EpsSpent:       lr.EpsSpent,
		EpsRemaining:   lr.EpsRemaining,
		Degraded:       lr.Degraded,
		DrawCap:        lr.DrawCap,
		RNGPos:         lr.RNGPos,
		ExpiresAt:      lr.ExpiresUnixMs,
		Renewed:        lr.Renewed,
		Token:          lr.Token,
		Bundle:         lr.Bundle,
	}, nil
}
