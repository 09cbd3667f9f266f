// Package stream implements the corgi-stream binary report transport: the
// report pipeline of internal/registry served over one long-lived TCP
// connection per client instead of an HTTP round trip per draw.
//
// HTTP+JSON serving tops out three orders of magnitude below the in-proc
// sampling rate — virtually all cost is connection setup, header parsing,
// and JSON, not the paper's mechanism. The stream transport removes that
// overhead: length-prefixed binary frames over a persistent connection,
// negotiated once with HELLO/WELCOME, then pipelined REPORT / REPORTS
// exchanges answered in FIFO order (per-connection ordering is what keeps a
// moving user's draw sequence session-sticky). Failures come back as ERROR
// frames carrying the same HTTP-equivalent status classification the JSON
// routes use (registry.Classify), including 429 budget exhaustion with the
// user's live eps_remaining; a draining server says GOODBYE.
//
// The wire format (all integers little-endian, varints per encoding/binary):
//
//	frame   := uint32 length | uint8 type | payload     (length covers type+payload)
//	HELLO   := magic "CGS1" | uint8 minVer | uint8 maxVer
//	WELCOME := uint8 version | uvarint maxBatch | uvarint maxReportCount
//	REPORT  := uint32 reqID | request
//	REPORTS := uint32 reqID | uvarint n | n * request
//	REPORT_OK  := uint32 reqID | result
//	REPORTS_OK := uint32 reqID | uvarint n | n * item
//	ERROR   := uint32 reqID | uint16 status | uint8 flags | [float64 epsRemaining] | string msg
//	GOODBYE := string reason
//	LEASE   := uint32 reqID | request | uvarint draws | uvarint tokenLen | token
//	LEASE_GRANT := uint32 reqID | grant
//
// where request serializes Request's fields (region, cell, uid, seed,
// count, policy triple) with varints and length-prefixed strings, and
// result carries Response's except that report centers ride as internal/codec's 32-bit fixed point — the same quantized
// representation the forest blobs use, re-scaled to degrees — so each
// drawn location costs 16 bytes flat. reqID 0 in an ERROR frame marks a
// connection-level fault (handshake, framing, oversized frame); the
// connection closes after it.
//
// Bodies are read with internal/codec's Cursor and written with the
// appenders beside it, so a length, a count or a node is bounded exactly
// as in every other binary format of the module: a claimed count is
// refused unless the bytes after it can hold that many elements.
//
// LEASE asks for a client-side draw lease (the stream analogue of POST
// /v1/lease): the embedded request's count field is ignored, draws is the
// cap to pre-pay, and token (possibly empty) renews a previous lease. The
// grant body carries the customization facts plus the signed token and
// the opaque lease bundle — the bundle's float64 weights ride as exact
// bits inside internal/codec's lease encoding, never re-quantized, which
// is what keeps device-local draws byte-identical to server draws.
package stream

import (
	"encoding/binary"
	"fmt"

	"corgi/internal/budget"
	"corgi/internal/codec"
	"corgi/internal/policy"
	"corgi/internal/registry"
)

// Protocol identity and limits.
const (
	// Magic opens every HELLO frame: "CGS1" (corgi-stream, format family 1).
	Magic = "CGS1"
	// Version is the one protocol version this implementation speaks; HELLO
	// carries a [min, max] range so future versions can negotiate down.
	// Version 2 added the request trailer: a flags byte after the
	// predicates (forwarded marker) and an optional piggybacked budget
	// handoff for cluster forwarding.
	Version = 2

	// DefaultMaxFrameBytes bounds one frame's type+payload. A maximal
	// batch (64 items x 1000 draws x 16 bytes/draw) fits with headroom.
	DefaultMaxFrameBytes = 4 << 20

	frameHeaderLen = 4 // uint32 length prefix
)

// Frame types.
const (
	frameHello      = 1
	frameWelcome    = 2
	frameReport     = 3
	frameReports    = 4
	frameReportOK   = 5
	frameReportsOK  = 6
	frameError      = 7
	frameGoodbye    = 8
	frameLease      = 9
	frameLeaseGrant = 10
)

// ERROR frame flag bits.
const errFlagEpsRemaining = 1 // float64 epsRemaining follows the flags byte

// result flag bits (REPORT_OK payloads).
const (
	resFlagReanchored = 1
	resFlagBudgeted   = 2
	resFlagDegraded   = 4
)

// Request is one report ask as a remote client sends it: the true leaf
// cell, the inline customization policy (its fields flatten into the JSON
// object: privacy_l, precision_l, user_preferences), a user id, a seed, and
// a draw count. It is the one wire-level request shape of both transports —
// the JSON routes decode it from the struct tags (internal/proto aliases it
// as ReportRequest; proto imports stream, so the declaration lives here)
// and the REPORT frame serializes the same fields with appendRequest.
//
// This is the trusted-serving mode of the report pipeline — the cell and
// the policy cross the wire, unlike the forest routes where only (privacy
// level, |S|) does. Clients that must keep the paper's Sec. 5 trust model
// keep using /v1/forest and sample locally; the wire format is shaped so
// the same (region, cell, policy, seed) replayed against a fresh server
// reproduces the local draw sequence exactly.
type Request struct {
	Region string `json:"region,omitempty"`
	// Cell is the axial (q, r) coordinate of the true leaf cell.
	Cell [2]int `json:"cell"`
	// UID partitions session state and metadata attributes between users.
	UID int64 `json:"uid,omitempty"`
	policy.Policy
	// Seed fixes the per-session RNG stream.
	Seed int64 `json:"seed,omitempty"`
	// Count is how many reports to draw (default 1, bounded by the
	// registry's Options.MaxReportCount).
	Count int `json:"count,omitempty"`
	// Forwarded marks a node-to-node forward inside a cluster: the
	// receiver serves locally instead of re-routing, which bounds every
	// request to at most one forwarding hop.
	Forwarded bool `json:"forwarded,omitempty"`
	// Handoff carries the user's live epsilon spend from the node that
	// owned them before a rebalance or failover; the receiver merges it
	// before charging so the window budget stays coherent across moves.
	// On the stream wire both ride the version-2 request trailer.
	Handoff *budget.Handoff `json:"budget_handoff,omitempty"`
}

// ReportedLocation is one drawn report: the node's axial coordinate and
// its center, ready for a location-based service. On the stream wire
// Lat/Lng travel as codec's 32-bit fixed point over [-90,90] x [-180,180],
// so decoded centers match the JSON transport's to ~4.7e-8 degrees (about
// 5 mm).
type ReportedLocation struct {
	Q   int     `json:"q"`
	R   int     `json:"r"`
	Lat float64 `json:"lat"`
	Lng float64 `json:"lng"`
}

// Response carries the drawn reports plus the customization facts, on
// either transport (internal/proto aliases it as ReportResponse).
type Response struct {
	Region string `json:"region"`
	// PrecisionLevel is the tree level of every reported node.
	PrecisionLevel int `json:"precision_l"`
	// SubtreeRoot names the privacy-forest entry that served the draws.
	SubtreeRoot [2]int `json:"subtree_root"`
	// Pruned is how many locations the policy's preferences removed.
	Pruned  int                `json:"pruned"`
	Reports []ReportedLocation `json:"reports"`
	// Reanchored is true when this request moved the user's session onto a
	// different subtree (or preference anchor) — mobility clients and the
	// loadgen use it to measure re-anchor rates.
	Reanchored bool `json:"reanchored,omitempty"`
	// Budgeted is true when the server runs epsilon-budget accounting;
	// EpsSpent is what this request charged and EpsRemaining the user's
	// window headroom after it.
	Budgeted     bool    `json:"budgeted,omitempty"`
	EpsSpent     float64 `json:"eps_spent,omitempty"`
	EpsRemaining float64 `json:"eps_remaining,omitempty"`
	// Degraded is true when the reports were drawn from a planar-Laplace
	// fallback entry (degraded serving): the epsilon guarantee holds in
	// full, but utility is below the LP optimum until the background solve
	// replaces the fallback.
	Degraded bool `json:"degraded,omitempty"`
}

// ItemResult is one batch item's outcome: items fail independently with
// per-item HTTP-equivalent statuses, on the REPORTS frame and on POST
// /v1/reports alike.
type ItemResult struct {
	Status int       `json:"status"`
	Error  string    `json:"error,omitempty"`
	Report *Response `json:"report,omitempty"`
	// EpsRemaining is the user's window headroom on a budget rejection
	// (valid when HasEpsRemaining; mirrors the single-request ERROR frame
	// and the 429's X-Corgi-Eps-Remaining header). Both batch wires carry
	// it, a headroom of exactly 0 included.
	EpsRemaining    float64 `json:"eps_remaining,omitempty"`
	HasEpsRemaining bool    `json:"has_eps_remaining,omitempty"`
}

// StatusError is an application-level rejection from a remote node: the
// HTTP-equivalent status the server classified the request with
// (registry.Classify), whichever transport carried it — an ERROR
// frame, or a non-200 answer to internal/proto's client. The connection
// stays healthy after one; only transport faults close it.
type StatusError struct {
	Status int
	Msg    string
	// EpsRemaining carries the user's live budget headroom on a 429
	// (valid when HasEpsRemaining).
	EpsRemaining    float64
	HasEpsRemaining bool
}

// Error formats the server's status and message.
func (e *StatusError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.Status, e.Msg)
}

// HTTPStatus exposes the owner node's classification to registry.Classify,
// so a forwarding router re-answers a peer's rejection with the peer's own
// status instead of a generic 500.
func (e *StatusError) HTTPStatus() int { return e.Status }

// BudgetRemaining exposes a 429's live headroom, to callers and — for a
// forwarded rejection — to registry.Classify.
func (e *StatusError) BudgetRemaining() (float64, bool) {
	return e.EpsRemaining, e.HasEpsRemaining
}

// quantLat/quantLng map degrees onto codec's [0,1] fixed-point domain and
// back. Shared with nothing else: the scale is part of the wire contract.
func quantLat(lat float64) uint32 { return codec.Quantize((lat + 90) / 180) }
func quantLng(lng float64) uint32 { return codec.Quantize((lng + 180) / 360) }
func dequantLat(q uint32) float64 { return codec.Dequantize(q)*180 - 90 }
func dequantLng(q uint32) float64 { return codec.Dequantize(q)*360 - 180 }

// Minimum encoded sizes of the elements of the frames' counted lists: the
// floor codec.Cursor.Count holds a claimed count to, so a frame's count
// never sizes an allocation its bytes do not pay for.
const (
	minRequestLen      = 10 // region length, seven varints, predicate count, flags
	minPredicateLen    = 4  // name length, op, kind, one value byte
	minHandoffEventLen = 9  // varint instant, float64 epsilon
	minReportLen       = 10 // two varints, two uint32 coordinates
	minItemLen         = 4  // status, flags, message length (a refused item)
)

// decodeWelcome checks a WELCOME body: the negotiated version, then the
// server's advertised limits, which the client reads past (the server
// enforces them on every frame it receives).
func decodeWelcome(payload []byte) error {
	d := codec.NewCursor(payload, "stream: WELCOME")
	if v := d.U8(); d.Err() == nil && v != Version {
		return fmt.Errorf("stream: server negotiated unsupported version %d", v)
	}
	d.Uvarint()
	d.Uvarint()
	return d.Done()
}

// appendRequest serializes one report request body.
func appendRequest(b []byte, req *Request) []byte {
	b = codec.AppendString(b, req.Region)
	b = binary.AppendVarint(b, int64(req.Cell[0]))
	b = binary.AppendVarint(b, int64(req.Cell[1]))
	b = binary.AppendVarint(b, req.UID)
	b = binary.AppendVarint(b, req.Seed)
	b = binary.AppendVarint(b, int64(req.Count))
	b = binary.AppendVarint(b, int64(req.PrivacyLevel))
	b = binary.AppendVarint(b, int64(req.PrecisionLevel))
	b = binary.AppendUvarint(b, uint64(len(req.Preferences)))
	for _, p := range req.Preferences {
		b = codec.AppendString(b, p.Var)
		b = append(b, byte(p.Op), byte(p.Val.Kind))
		switch p.Val.Kind {
		case policy.KindString:
			b = codec.AppendString(b, p.Val.S)
		case policy.KindNumber:
			b = codec.AppendF64(b, p.Val.F)
		default:
			if p.Val.B {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		}
	}
	// Version-2 trailer: cluster flags + optional budget handoff.
	var flags byte
	if req.Forwarded {
		flags |= reqFlagForwarded
	}
	if req.Handoff != nil && len(req.Handoff.Events) > 0 {
		flags |= reqFlagHandoff
	}
	b = append(b, flags)
	if flags&reqFlagHandoff != 0 {
		h := req.Handoff
		b = codec.AppendString(b, h.Source)
		b = binary.AppendUvarint(b, h.Seq)
		b = binary.AppendUvarint(b, uint64(len(h.Events)))
		for _, e := range h.Events {
			b = binary.AppendVarint(b, e.AtUnixNano)
			b = codec.AppendF64(b, e.Eps)
		}
	}
	return b
}

// Request trailer flag bits (version 2).
const (
	reqFlagForwarded = 1
	reqFlagHandoff   = 2
)

// maxHandoffEvents bounds a handoff's event count on decode. The
// accountant buckets spend at Config.Resolution, so a real handoff holds
// at most Window/Resolution events (3600 at the defaults); anything past
// the bound is a malformed frame.
const maxHandoffEvents = 1 << 14

// maxPreferences bounds one request's predicate count on decode; policies
// are small conjunctions, so anything huge is a malformed frame, not a
// real policy.
const maxPreferences = 1 << 10

// decodeRequest reads one request body. intern maps region-name bytes to a
// shared string (nil falls back to a fresh allocation per request). It
// accepts only what appendRequest writes, so a request that decodes
// encodes back to the same bytes.
func decodeRequest(d *codec.Cursor, intern func([]byte) string) (Request, error) {
	var req Request
	if rb := d.Bytes(); intern != nil {
		req.Region = intern(rb)
	} else {
		req.Region = string(rb)
	}
	req.Cell[0] = int(d.Varint())
	req.Cell[1] = int(d.Varint())
	req.UID = d.Varint()
	req.Seed = d.Varint()
	req.Count = int(d.Varint())
	req.PrivacyLevel = int(d.Varint())
	req.PrecisionLevel = int(d.Varint())
	nprefs := d.Count(minPredicateLen)
	if nprefs > maxPreferences {
		return req, fmt.Errorf("stream: request carries %d preferences (limit %d)", nprefs, maxPreferences)
	}
	if nprefs > 0 {
		req.Preferences = make([]policy.Predicate, nprefs)
	}
	for i := range req.Preferences {
		p := &req.Preferences[i]
		p.Var = d.Str()
		p.Op = policy.Op(d.U8())
		switch kind := policy.Kind(d.U8()); kind {
		case policy.KindString:
			p.Val = policy.String(d.Str())
		case policy.KindNumber:
			p.Val = policy.Number(d.F64())
		case policy.KindBool:
			v := d.U8()
			if v > 1 {
				return req, fmt.Errorf("stream: predicate %d has boolean byte %d", i, v)
			}
			p.Val = policy.Bool(v == 1)
		default:
			return req, fmt.Errorf("stream: predicate %d has unknown kind %d", i, kind)
		}
	}
	flags := d.U8()
	if flags&^(reqFlagForwarded|reqFlagHandoff) != 0 {
		return req, fmt.Errorf("stream: request flags %#x carry unknown bits", flags)
	}
	req.Forwarded = flags&reqFlagForwarded != 0
	if flags&reqFlagHandoff != 0 {
		h := &budget.Handoff{Source: d.Str(), Seq: d.Uvarint()}
		n := d.Count(minHandoffEventLen)
		if d.Err() == nil && (n < 1 || n > maxHandoffEvents) {
			return req, fmt.Errorf("stream: handoff carries %d events (want 1 to %d)", n, maxHandoffEvents)
		}
		h.Events = make([]budget.HandoffEvent, n)
		for i := range h.Events {
			h.Events[i] = budget.HandoffEvent{AtUnixNano: d.Varint(), Eps: d.F64()}
		}
		req.Handoff = h
	}
	return req, d.Err()
}

// appendResult serializes a registry report result straight from the
// pipeline's own types — the server never builds an intermediate response
// struct, it encodes ReportResult into the pooled frame buffer directly.
func appendResult(b []byte, res *registry.ReportResult) []byte {
	b = codec.AppendString(b, res.Region)
	b = binary.AppendVarint(b, int64(res.PrecisionLevel))
	b = binary.AppendVarint(b, int64(res.SubtreeRoot.Coord.Q))
	b = binary.AppendVarint(b, int64(res.SubtreeRoot.Coord.R))
	b = binary.AppendVarint(b, int64(res.Pruned))
	var flags byte
	if res.Reanchored {
		flags |= resFlagReanchored
	}
	if res.Budgeted {
		flags |= resFlagBudgeted
	}
	if res.Degraded {
		flags |= resFlagDegraded
	}
	b = append(b, flags)
	if res.Budgeted {
		b = codec.AppendF64(b, res.EpsSpent)
		b = codec.AppendF64(b, res.EpsRemaining)
	}
	b = binary.AppendUvarint(b, uint64(len(res.Reports)))
	for i, n := range res.Reports {
		c := res.Centers[i]
		b = binary.AppendVarint(b, int64(n.Coord.Q))
		b = binary.AppendVarint(b, int64(n.Coord.R))
		b = codec.AppendU32(b, quantLat(c.Lat))
		b = codec.AppendU32(b, quantLng(c.Lng))
	}
	return b
}

// decodedResponse is a Response as the client allocates it: the struct and
// room for the usual single report in one object, Response.Reports pointing
// into it.
type decodedResponse struct {
	Response
	one [1]ReportedLocation
}

// decodeResponse reads one result body into the client-side Response.
// region is the region the request named: the server answers with the
// region it served, nearly always those same bytes, and then the response
// shares the request's string instead of copying it. With one report, a
// decoded response is one allocation.
func decodeResponse(d *codec.Cursor, region string) (*Response, error) {
	dec := &decodedResponse{}
	resp := &dec.Response
	if served := d.Bytes(); string(served) == region {
		resp.Region = region
	} else {
		resp.Region = string(served)
	}
	resp.PrecisionLevel = int(d.Varint())
	resp.SubtreeRoot[0] = int(d.Varint())
	resp.SubtreeRoot[1] = int(d.Varint())
	resp.Pruned = int(d.Varint())
	flags := d.U8()
	resp.Reanchored = flags&resFlagReanchored != 0
	resp.Budgeted = flags&resFlagBudgeted != 0
	resp.Degraded = flags&resFlagDegraded != 0
	if resp.Budgeted {
		resp.EpsSpent = d.F64()
		resp.EpsRemaining = d.F64()
	}
	n := d.Count(minReportLen)
	if err := d.Err(); err != nil {
		return nil, err
	}
	resp.Reports = dec.one[:0]
	if n > len(dec.one) {
		resp.Reports = make([]ReportedLocation, 0, n)
	}
	for range n {
		resp.Reports = append(resp.Reports, ReportedLocation{
			Q:   int(d.Varint()),
			R:   int(d.Varint()),
			Lat: dequantLat(d.U32()),
			Lng: dequantLng(d.U32()),
		})
	}
	return resp, d.Err()
}

// appendRejection serializes a refused ask: status, flags, optional
// headroom, message. It is the body of an ERROR frame after its reqID and
// of a failed REPORTS_OK item alike.
func appendRejection(b []byte, rej registry.Rejection) []byte {
	b = codec.AppendU16(b, uint16(rej.Status))
	if rej.HasEps {
		b = append(b, errFlagEpsRemaining)
		b = codec.AppendF64(b, rej.EpsRemaining)
	} else {
		b = append(b, 0)
	}
	return codec.AppendString(b, rej.Msg)
}

// decodeItem reads one batch item result (status, then error or body);
// region is the region the item's request named.
func decodeItem(d *codec.Cursor, region string) (ItemResult, error) {
	var it ItemResult
	it.Status = int(d.U16())
	if err := d.Err(); err != nil {
		return it, err
	}
	if it.Status == statusOK {
		rep, err := decodeResponse(d, region)
		it.Report = rep
		return it, err
	}
	if d.U8()&errFlagEpsRemaining != 0 {
		it.EpsRemaining = d.F64()
		it.HasEpsRemaining = true
	}
	it.Error = d.Str()
	return it, d.Err()
}

// statusOK avoids importing net/http just for the constant in hot paths.
const statusOK = 200

// grantFlagRenewed extends the result flag bits for LEASE_GRANT payloads:
// the lease was issued against a valid renewal token.
const grantFlagRenewed = 8

// appendLeaseReq serializes one LEASE body after the reqID: the embedded
// report request (its count field unused), the draw cap to pre-pay, and
// the optional renewal token.
func appendLeaseReq(b []byte, req *Request, draws int, token []byte) []byte {
	b = appendRequest(b, req)
	b = binary.AppendUvarint(b, uint64(draws))
	return codec.AppendString(b, token)
}

// decodeLeaseReq reads one LEASE body. The returned token aliases the
// frame buffer (like every Cursor.Bytes read) and is only read
// synchronously by the handler before the next frame arrives.
func decodeLeaseReq(d *codec.Cursor, intern func([]byte) string) (Request, int, []byte, error) {
	req, err := decodeRequest(d, intern)
	if err != nil {
		return req, 0, nil, err
	}
	draws := int(d.Uvarint())
	token := d.Bytes()
	return req, draws, token, d.Err()
}

// appendLeaseGrant serializes a registry lease grant straight from the
// pipeline's own type, the same zero-intermediate pattern appendResult
// uses. The bundle bytes are already codec-encoded exact float64 weights;
// they ride opaque.
func appendLeaseGrant(b []byte, g *registry.LeaseGrant) []byte {
	b = codec.AppendString(b, g.Region)
	b = binary.AppendVarint(b, int64(g.PrecisionLevel))
	b = codec.AppendNode(b, g.SubtreeRoot)
	b = binary.AppendVarint(b, int64(g.Pruned))
	var flags byte
	if g.Reanchored {
		flags |= resFlagReanchored
	}
	if g.Budgeted {
		flags |= resFlagBudgeted
	}
	if g.Degraded {
		flags |= resFlagDegraded
	}
	if g.Renewed {
		flags |= grantFlagRenewed
	}
	b = append(b, flags)
	if g.Budgeted {
		b = codec.AppendF64(b, g.EpsSpent)
		b = codec.AppendF64(b, g.EpsRemaining)
	}
	b = binary.AppendUvarint(b, uint64(g.DrawCap))
	b = binary.AppendUvarint(b, g.RNGPos)
	b = binary.AppendVarint(b, g.ExpiresAt)
	b = codec.AppendString(b, g.Token)
	return codec.AppendString(b, g.Bundle)
}

// decodeLeaseGrant reads one LEASE_GRANT body into the registry's grant
// type. Token and bundle are copied out of the frame buffer — the caller
// keeps them for the lease's whole lifetime.
func decodeLeaseGrant(d *codec.Cursor) (*registry.LeaseGrant, error) {
	g := &registry.LeaseGrant{}
	g.Region = d.Str()
	g.PrecisionLevel = int(d.Varint())
	g.SubtreeRoot = d.Node()
	g.Pruned = int(d.Varint())
	flags := d.U8()
	g.Reanchored = flags&resFlagReanchored != 0
	g.Budgeted = flags&resFlagBudgeted != 0
	g.Degraded = flags&resFlagDegraded != 0
	g.Renewed = flags&grantFlagRenewed != 0
	if g.Budgeted {
		g.EpsSpent = d.F64()
		g.EpsRemaining = d.F64()
	}
	g.DrawCap = int(d.Uvarint())
	g.RNGPos = d.Uvarint()
	g.ExpiresAt = d.Varint()
	g.Token = append([]byte(nil), d.Bytes()...)
	g.Bundle = append([]byte(nil), d.Bytes()...)
	return g, d.Err()
}
