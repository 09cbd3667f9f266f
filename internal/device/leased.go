package device

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"corgi/internal/clientdraw"
	"corgi/internal/loctree"
	"corgi/internal/registry"
	"corgi/internal/session"
)

// Leased is the lease path seen as a report handler: Report draws
// on-device from the user's clientdraw lease and only goes to the remote
// handler's Lease when that lease has to be opened or renewed. It holds
// one lease per (region, uid, seed, policy) session stream, keyed by the
// server-side sessions' own key, so one user maps onto one server RNG stream.
type Leased struct {
	// Remote grants the leases: either transport's client, or a registry.
	Remote registry.ReportHandler
	// Tree returns a region's location tree; on-device draws need it to
	// open a lease against.
	Tree func(region string) (*loctree.Tree, error)
	// Draws is the cap each lease pre-pays; it must cover one request's
	// count or no lease could ever serve it.
	Draws int

	mu     sync.Mutex
	states map[session.Key]*leaseState
}

// leaseState is one user stream's lease, the tree it was opened against
// and its grant's prune count; its mutex serializes that stream's draws and
// renewals (matching the per-connection FIFO ordering the stream transport
// gives a user), while distinct users proceed in parallel.
type leaseState struct {
	mu     sync.Mutex
	lease  *clientdraw.Lease
	tree   *loctree.Tree
	pruned int
}

func (l *Leased) state(key session.Key) *leaseState {
	l.mu.Lock()
	defer l.mu.Unlock()
	st, ok := l.states[key]
	if !ok {
		if l.states == nil {
			l.states = map[session.Key]*leaseState{}
		}
		st = &leaseState{}
		l.states[key] = st
	}
	return st
}

// Lease implements registry.ReportHandler by asking the remote.
func (l *Leased) Lease(ctx context.Context, req registry.LeaseRequest) (*registry.LeaseGrant, error) {
	return l.Remote.Lease(ctx, req)
}

// Report implements registry.ReportHandler with the lease state machine
// for one report: draw on-device from the user's open lease, acquiring or
// renewing it first when needed. The caller's measured latency covers
// whatever the report actually cost — near-zero for a leased draw, one
// round trip when a renewal was due — which is exactly the amortization
// the path sells. The result says what the lease was customized to
// (subtree, precision level, prune count) and, when this report had to be
// granted a lease, what the grant charged. A rejected renewal surfaces as
// the remote's own error (a 429 is a budget rejection like on the other
// paths); a 403 on an expired token falls back to one fresh (un-renewed)
// lease attempt.
func (l *Leased) Report(ctx context.Context, req registry.ReportRequest) (*registry.ReportResult, error) {
	st := l.state(session.Key{Region: req.Region, UID: req.UID, Seed: req.Seed, Policy: session.PolicyFingerprint(req.Policy)})
	st.mu.Lock()
	defer st.mu.Unlock()

	leaf := loctree.NodeID{Level: 0, Coord: req.Cell}
	res := &registry.ReportResult{Region: req.Region, Reports: make([]loctree.NodeID, registry.DrawCount(req.Count))}
	for attempt := 0; ; attempt++ {
		var token []byte
		if st.lease != nil {
			err := st.lease.DrawCellNInto(leaf, res.Reports)
			if err == nil {
				res.SubtreeRoot, res.PrecisionLevel = st.lease.Root(), req.Policy.PrecisionLevel
				res.Pruned, res.Degraded = st.pruned, st.lease.Degraded()
				res.Centers = centers(st.tree, res.Reports)
				return res, nil
			}
			if !errors.Is(err, clientdraw.ErrLeaseExhausted) && !errors.Is(err, clientdraw.ErrOutsideSubtree) {
				return nil, err
			}
			// Cap spent or the user moved off the leased subtree: renew.
			token = st.lease.Token()
		}
		if attempt >= 3 {
			return nil, fmt.Errorf("lease for uid %d still cannot serve cell %v after %d grants", req.UID, req.Cell, attempt)
		}
		grant, err := l.Remote.Lease(ctx, registry.LeaseRequest{
			Region: req.Region,
			Cell:   req.Cell,
			UID:    req.UID,
			Policy: req.Policy,
			Seed:   req.Seed,
			Draws:  l.Draws,
			Token:  token,
		})
		if err != nil {
			if token != nil && registry.Classify(err).Status == http.StatusForbidden {
				// The renewal token expired while the lease idled; one
				// fresh lease continues the stream (the server session
				// still holds the position).
				st.lease = nil
				continue
			}
			return nil, err
		}
		if st.lease != nil {
			// Renewal: hand the live RNG stream to the next window instead
			// of replaying O(position) variates from the seed.
			st.lease, err = st.lease.Renew(grant.Bundle, grant.Token)
		} else if st.tree, err = l.Tree(req.Region); err == nil {
			st.lease, err = clientdraw.Open(st.tree, grant.Bundle, grant.Token)
		}
		if err != nil {
			st.lease = nil
			return nil, err
		}
		st.pruned = grant.Pruned
		res.Reanchored = res.Reanchored || grant.Reanchored
		res.Budgeted, res.EpsRemaining = grant.Budgeted, grant.EpsRemaining
		res.EpsSpent += grant.EpsSpent
	}
}
