package loadgen

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"corgi/internal/clientdraw"
	"corgi/internal/loctree"
	"corgi/internal/registry"
)

// leaseManager is the lease transport seen as a report handler: Report
// draws on-device from the user's clientdraw lease and only goes to the
// remote handler's Lease when that lease has to be opened or renewed. It
// holds one lease per (region, uid, seed, policy) session stream, keyed
// exactly like server-side sessions, so one loadgen user maps onto one
// server RNG stream.
type leaseManager struct {
	remote registry.ReportHandler
	worlds *worlds
	draws  int

	mu     sync.Mutex
	states map[leaseKey]*leaseState
}

// leaseKey names one session stream.
type leaseKey struct {
	region           string
	uid, seed        int64
	level, precision int
}

// leaseState is one user stream's lease; its mutex serializes that
// stream's draws and renewals (matching the per-connection FIFO ordering
// the stream transport gives a user), while distinct users proceed in
// parallel.
type leaseState struct {
	mu    sync.Mutex
	lease *clientdraw.Lease
}

func (m *leaseManager) state(key leaseKey) *leaseState {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.states[key]
	if !ok {
		st = &leaseState{}
		m.states[key] = st
	}
	return st
}

// Lease implements registry.ReportHandler by asking the remote.
func (m *leaseManager) Lease(ctx context.Context, req registry.LeaseRequest) (*registry.LeaseGrant, error) {
	return m.remote.Lease(ctx, req)
}

// Report implements registry.ReportHandler with the lease state machine
// for one report: draw on-device from the user's open lease, acquiring or
// renewing it first when needed. The caller's measured latency covers
// whatever the report actually cost — near-zero for a leased draw, one
// round trip when a renewal was due — which is exactly the amortization
// the transport sells. A rejected renewal surfaces as the remote's
// *stream.StatusError (a 429 is a budget rejection like on the other
// transports); a 403 on an expired token falls back to one fresh
// (un-renewed) lease attempt.
func (m *leaseManager) Report(ctx context.Context, req registry.ReportRequest) (*registry.ReportResult, error) {
	st := m.state(leaseKey{req.Region, req.UID, req.Seed, req.Policy.PrivacyLevel, req.Policy.PrecisionLevel})
	st.mu.Lock()
	defer st.mu.Unlock()

	leaf := loctree.NodeID{Level: 0, Coord: req.Cell}
	res := &registry.ReportResult{Region: req.Region, Reports: make([]loctree.NodeID, req.Count)}
	for attempt := 0; ; attempt++ {
		var token []byte
		if st.lease != nil {
			err := st.lease.DrawCellNInto(leaf, res.Reports)
			if err == nil {
				res.Degraded = st.lease.Degraded()
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
		grant, err := m.remote.Lease(ctx, registry.LeaseRequest{
			Region: req.Region,
			Cell:   req.Cell,
			UID:    req.UID,
			Policy: req.Policy,
			Seed:   req.Seed,
			Draws:  m.draws,
			Token:  token,
		})
		if err != nil {
			if statusOf(err) == http.StatusForbidden && token != nil {
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
		} else {
			// On-device draws need the region's tree to open a lease
			// against.
			var w *regionWorld
			if w, err = m.worlds.get(req.Region); err == nil {
				st.lease, err = clientdraw.Open(w.tree, grant.Bundle, grant.Token)
			}
		}
		if err != nil {
			st.lease = nil
			return nil, err
		}
		res.Reanchored = res.Reanchored || grant.Reanchored
	}
}
