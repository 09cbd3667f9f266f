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
// and what its grant was bound to; its mutex serializes that stream's draws
// and renewals (matching the per-connection FIFO ordering the stream
// transport gives a user), while distinct users proceed in parallel.
type leaseState struct {
	mu    sync.Mutex
	lease *clientdraw.Lease
	tree  *loctree.Tree
	bound session.Bound
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

// Report implements registry.ReportHandler with the lease state machine for
// one report: draw on-device from the user's open lease, acquiring it first,
// or renewing it when its cap is spent or where a server session would
// re-anchor (session.Bound.Moved). The caller's measured latency covers
// whatever the report actually cost — near-zero for a leased draw, one round
// trip when a renewal was due — which is exactly the amortization the path
// sells. The result says what the lease was customized to (subtree,
// precision level, prune count) and, when this report had to be granted a
// lease, what the grant charged. A rejected renewal surfaces as the remote's
// own error (a 429 is a budget rejection like on the other paths); a 403 on
// an expired token falls back to one fresh (un-renewed) lease attempt.
func (l *Leased) Report(ctx context.Context, req registry.ReportRequest) (*registry.ReportResult, error) {
	st := l.state(session.Key{Region: req.Region, UID: req.UID, Seed: req.Seed, Policy: session.PolicyFingerprint(req.Policy)})
	st.mu.Lock()
	defer st.mu.Unlock()

	leaf := loctree.NodeID{Level: 0, Coord: req.Cell}
	res := newResult(req.Count)
	// What this report's grants, if it needed any, said and charged.
	var reanchored, budgeted bool
	var spent, remaining float64
	for attempt := 0; ; attempt++ {
		var token []byte
		if st.lease != nil {
			if root, _ := st.tree.AncestorAt(leaf, req.Policy.PrivacyLevel); !st.bound.Moved(root, leaf, req.Policy) {
				err := st.lease.DrawCellNInto(leaf, res.Reports)
				if err == nil {
					return res.done(st.tree, registry.Facts{Region: req.Region, SubtreeRoot: root,
						PrecisionLevel: req.Policy.PrecisionLevel, Pruned: st.bound.Pruned, Reanchored: reanchored,
						Budgeted: budgeted, EpsSpent: spent, EpsRemaining: remaining, Degraded: st.lease.Degraded()}), nil
				}
				if !errors.Is(err, clientdraw.ErrLeaseExhausted) {
					return nil, err
				}
			}
			// Cap spent, or a session would re-anchor here: renew.
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
			// Renewal: the lease moves to the next window in place,
			// decoding the grant and rebuilding its tables into its own
			// storage.
			st.lease, err = st.lease.Renew(grant.Bundle, grant.Token)
		} else if st.tree, err = l.Tree(req.Region); err == nil {
			st.lease, err = clientdraw.Open(st.tree, grant.Bundle, grant.Token)
		}
		if err != nil {
			st.lease = nil
			return nil, err
		}
		st.bound = session.Bound{Root: st.lease.Root(), Anchor: leaf, Pruned: grant.Pruned}
		reanchored = reanchored || grant.Reanchored
		budgeted, remaining = grant.Budgeted, grant.EpsRemaining
		spent += grant.EpsSpent
	}
}
