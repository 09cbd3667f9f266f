package cluster

// The Router is the scale-out decision point, embedded in every node (no
// separate proxy binary — a proxy would be a second hop for every request
// AND a single point of failure). It implements registry.ReportHandler,
// so both transports (internal/proto's JSON routes and internal/stream's
// frame server) route every report/lease ask through it:
//
//   - owner-served: the ring says this node owns the uid → serve from the
//     embedded registry. The warm path: after the client's first request
//     lands on (or is redirected to) the owner, every subsequent draw is
//     node-local — sessions, RNG streams, and budget windows never cross
//     a node boundary, which is what makes throughput scale linearly.
//   - forwarded: another node owns the uid → send the ask to the peer over
//     its corgi-stream client, attaching this node's budget handoff for the
//     user so spend follows the user to its owner
//     (internal/budget/handoff.go).
//   - failover: the owner (and any closer successor) is unreachable → the
//     ring's deterministic Sequence order names the stand-in every node
//     agrees on; when the walk reaches this node itself, serve locally.
//
// A request already marked Forwarded is always served locally: one
// forward maximum, so no routing loops and a bounded worst-case hop
// count (exactly one) even when two nodes were started with different
// member lists.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"corgi/internal/budget"
	"corgi/internal/proto"
	"corgi/internal/registry"
	"corgi/internal/store"
	"corgi/internal/stream"
)

// RouterConfig tunes a cluster router. The ring takes NewRing's defaults.
type RouterConfig struct {
	// Now is the clock every peer's reconnect breaker reads (nil:
	// time.Now).
	Now func() time.Time
}

const (
	// dialTimeout bounds one peer dial: forwards should fail over quickly.
	dialTimeout = 2 * time.Second
	// streamTimeout bounds one forwarded exchange.
	streamTimeout = 10 * time.Second
	// fetchTimeout bounds one peer store fetch (snapshot payloads can be
	// MBs).
	fetchTimeout = 30 * time.Second
)

// peerNode is one remote member: the corgi-stream client every forward to
// it rides, and the HTTP base URL its store snapshots are fetched from
// (empty: none).
type peerNode struct {
	client  *stream.Client
	httpURL string
}

// Router routes report and lease asks to their owner nodes. Its topology
// is the member list NewRouter was given, fixed for the router's life, so
// the request paths read the ring and the peer map without a lock.
type Router struct {
	self  string
	reg   *registry.Registry
	ring  *Ring
	peers map[string]peerNode
	httpc *http.Client

	ownerServed   atomic.Uint64
	forwardedIn   atomic.Uint64
	forwardedOut  atomic.Uint64
	failovers     atomic.Uint64
	failoverLocal atomic.Uint64
	handoffsSent  atomic.Uint64
	peerFetches   atomic.Uint64
	peerFetchMiss atomic.Uint64
}

// NewRouter builds the router for one node. self must be one of the
// members' names (every node lists the full cluster, itself included).
// Every node must be given the same list — the ring is deterministic, so
// agreement on the list is agreement on ownership; a node started with a
// different list is the only way a user's owner changes.
func NewRouter(reg *registry.Registry, self string, members []Peer, cfg RouterConfig) (*Router, error) {
	if reg == nil {
		return nil, fmt.Errorf("cluster: nil registry")
	}
	ring, err := RingOf(members)
	if err != nil {
		return nil, err
	}
	r := &Router{
		self:  self,
		reg:   reg,
		ring:  ring,
		peers: make(map[string]peerNode, len(members)),
		httpc: &http.Client{Timeout: fetchTimeout},
	}
	for _, p := range members {
		if p.Name != self { // a client dials on first use
			r.peers[p.Name] = peerNode{httpURL: p.HTTPURL, client: stream.NewClient(p.StreamAddr, stream.ClientConfig{
				DialTimeout: dialTimeout,
				Timeout:     streamTimeout,
				Now:         cfg.Now,
			})}
		}
	}
	if len(r.peers) == len(members) {
		r.Close()
		return nil, fmt.Errorf("cluster: self %q not in member list %v", self, ring.Members())
	}
	return r, nil
}

// Ring returns the router's ring (for stats and tests).
func (r *Router) Ring() *Ring { return r.ring }

// Owner returns the member owning a uid.
func (r *Router) Owner(uid int64) string { return r.ring.Owner(uid) }

// Close shuts down the peer clients. A forward still draining afterwards
// finds its peer's client closed and serves locally.
func (r *Router) Close() {
	for _, pn := range r.peers {
		pn.client.Close()
	}
}

// ahead lists the members an ask for uid is offered to before this node
// serves it itself, and the counter that local serve then bumps: nobody
// when the ask was already forwarded here (one hop maximum — the sender
// may have been started with another member list, and serving beats
// bouncing) or when this node owns the uid, otherwise the members
// preceding this node in the ring's failover sequence.
func (r *Router) ahead(forwarded bool, uid int64) ([]string, *atomic.Uint64) {
	if forwarded {
		return nil, &r.forwardedIn
	}
	seq := r.ring.Sequence(uid)
	for i, member := range seq {
		if member == r.self {
			if i == 0 {
				return nil, &r.ownerServed
			}
			return seq[:i], &r.failoverLocal
		}
	}
	return seq, &r.failoverLocal // unreachable: NewRouter checked self is a member
}

// exportHandoff moves the local accountant's live spend for (region, uid)
// into a handoff, returning the commit/rollback hooks bound to it. The
// handoff is nil and the hooks no-ops when there is nothing to hand off.
func (r *Router) exportHandoff(region string, uid int64) (h *budget.Handoff, commit, rollback func()) {
	nop := func() {}
	sh, ok := r.reg.ShardIfReady(region)
	if !ok || sh.Budget == nil {
		return nil, nop, nop
	}
	h = sh.Budget.ExportHandoff(uid, r.self)
	if h == nil {
		return nil, nop, nop
	}
	acct, seq := sh.Budget, h.Seq
	r.handoffsSent.Add(1)
	return h, func() { acct.CommitHandoff(uid, seq) }, func() { acct.RollbackHandoff(uid, seq) }
}

// forward is the one forwarding loop behind Report and Lease: offer the
// request to each member ahead in ring order, over its corgi-stream
// client, until one answers; ok=false means none did and the caller serves
// locally. ask issues the request against a peer with the budget handoff
// it is given (and the forwarded bit set). Each attempt is wrapped in its
// own export: a peer that answered — a result or a *stream.StatusError,
// whose classification (429, 422, ...) is the request's real outcome — has
// imported the handoff (import precedes validation), so the export
// commits; a transport failure means the peer never processed the
// request, so the spend is restored and the next ring member is tried. 404
// is final too: every node runs the same region set, so it is the
// client's error.
func forward[T any](r *Router, ahead []string, region string, uid int64,
	ask func(stream.Remote, *budget.Handoff) (T, error)) (res T, ok bool, err error) {
	for _, member := range ahead {
		export, commit, rollback := r.exportHandoff(region, uid)
		res, err = ask(r.peers[member].client.Remote(), export)
		var se *stream.StatusError
		if err != nil && !errors.As(err, &se) {
			rollback()
			r.failovers.Add(1)
			continue
		}
		commit()
		r.forwardedOut.Add(1)
		return res, true, err
	}
	return res, false, nil
}

// Report implements registry.ReportHandler: serve locally when this node
// owns (or is standing in for, or received a forward for) the uid,
// otherwise forward to the owner with the budget handoff attached.
func (r *Router) Report(ctx context.Context, req registry.ReportRequest) (*registry.ReportResult, error) {
	ahead, servedLocally := r.ahead(req.Forwarded, req.UID)
	res, ok, err := forward(r, ahead, req.Region, req.UID,
		func(h stream.Remote, handoff *budget.Handoff) (*registry.ReportResult, error) {
			fwd := req
			fwd.Forwarded, fwd.Handoff = true, handoff
			return h.Report(ctx, fwd)
		})
	if ok {
		return res, err
	}
	servedLocally.Add(1)
	return r.reg.Report(ctx, req)
}

// Lease implements registry.ReportHandler's lease arm with the same
// routing as Report.
func (r *Router) Lease(ctx context.Context, req registry.LeaseRequest) (*registry.LeaseGrant, error) {
	ahead, servedLocally := r.ahead(req.Forwarded, req.UID)
	grant, ok, err := forward(r, ahead, req.Region, req.UID,
		func(h stream.Remote, handoff *budget.Handoff) (*registry.LeaseGrant, error) {
			fwd := req
			fwd.Forwarded, fwd.Handoff = true, handoff
			return h.Lease(ctx, fwd)
		})
	if ok {
		return grant, err
	}
	servedLocally.Add(1)
	return r.reg.Lease(ctx, req)
}

// FetchSnapshot implements the store's PeerFetchFunc: ask every peer
// with an HTTP endpoint for the snapshot's raw file bytes, first hit
// wins. The store validates the bytes (checksum + key match), so this
// path only needs to move them.
func (r *Router) FetchSnapshot(k store.Key) ([]byte, error) {
	for _, pn := range r.peers {
		if pn.httpURL == "" {
			continue
		}
		u := pn.httpURL + "/v1/store/snapshot?spec=" + url.QueryEscape(k.SpecHash) +
			"&level=" + strconv.Itoa(k.Level) + "&delta=" + strconv.Itoa(k.Delta)
		resp, err := r.httpc.Get(u)
		if err != nil {
			continue
		}
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			continue
		}
		raw, err := io.ReadAll(io.LimitReader(resp.Body, proto.MaxResponseBytes))
		resp.Body.Close()
		if err != nil {
			continue
		}
		r.peerFetches.Add(1)
		return raw, nil
	}
	r.peerFetchMiss.Add(1)
	return nil, store.ErrNotFound
}

// NodeStats is one peer's stream-client health snapshot.
type NodeStats struct {
	Healthy bool               `json:"healthy"`
	Stream  stream.ClientStats `json:"stream"`
}

// Stats is the router's /v1/stats cluster section.
type Stats struct {
	Self    string   `json:"self"`
	Members []string `json:"members"`
	Vnodes  int      `json:"vnodes"`
	// OwnerServed counts requests this node served as ring owner;
	// ForwardedIn requests relayed here by peers; ForwardedOut requests
	// this node relayed away; Failovers forward attempts that moved on to
	// the next ring member; FailoverLocal requests served locally as a
	// stand-in (owner down).
	OwnerServed   uint64 `json:"owner_served"`
	ForwardedIn   uint64 `json:"forwarded_in"`
	ForwardedOut  uint64 `json:"forwarded_out"`
	Failovers     uint64 `json:"failovers"`
	FailoverLocal uint64 `json:"failover_local"`
	// HandoffsSent counts budget handoffs exported onto forwards;
	// PeerFetches / PeerFetchMisses count store snapshot fetch outcomes.
	HandoffsSent    uint64 `json:"handoffs_sent"`
	PeerFetches     uint64 `json:"peer_fetches"`
	PeerFetchMisses uint64 `json:"peer_fetch_misses"`
	// Nodes is each remote member's transport health.
	Nodes map[string]NodeStats `json:"nodes"`
}

// Stats snapshots the router's counters.
func (r *Router) Stats() Stats {
	nodes := make(map[string]NodeStats, len(r.peers))
	for name, pn := range r.peers {
		nodes[name] = NodeStats{Healthy: pn.client.Healthy(), Stream: pn.client.Stats()}
	}
	return Stats{
		Self:            r.self,
		Members:         r.ring.Members(),
		Vnodes:          r.ring.Vnodes(),
		OwnerServed:     r.ownerServed.Load(),
		ForwardedIn:     r.forwardedIn.Load(),
		ForwardedOut:    r.forwardedOut.Load(),
		Failovers:       r.failovers.Load(),
		FailoverLocal:   r.failoverLocal.Load(),
		HandoffsSent:    r.handoffsSent.Load(),
		PeerFetches:     r.peerFetches.Load(),
		PeerFetchMisses: r.peerFetchMiss.Load(),
		Nodes:           nodes,
	}
}
