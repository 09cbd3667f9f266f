package budget

// This file is the cluster arm of the accountant: the windowed delta-sync
// protocol that keeps a user's sliding-window epsilon spend coherent when
// ownership of the user moves between nodes (rebalance, failover, or a
// client dialing the wrong node). Linear composition (Sec. 4.4 / the
// sequential-composition channel) is a per-user global property — the cap
// must hold over ALL of a user's reports, not per node — so when node A
// forwards a user's first report to the new owner B, A exports its live
// spend events for the user and piggybacks them on the request. B merges
// them into its own window before charging, so the user cannot mint a
// fresh budget by moving.
//
// The protocol is exactly-once in the direction that matters for privacy:
//
//   - Export MOVES the events out of the local window (the forwarder will
//     no longer double-report them) into a pending set keyed by a
//     per-user sequence number.
//   - A successful forward commits the export (pending entry dropped); a
//     transport failure rolls it back (events re-merged locally), so
//     spend is never lost to a failed forward.
//   - The importer deduplicates by (source, seq): a retried or duplicated
//     handoff applies once. The ambiguous case — the owner applied the
//     handoff but the ack was lost, and the forwarder rolled back — double
//     counts the spend, which over-restricts the user. Over-counting is
//     the privacy-conservative direction; under-counting (over-spend) is
//     impossible by construction because no path discards an uncommitted
//     export.
//
// Handoffs carry event timestamps, not totals, so the receiver's window
// keeps sliding correctly: imported spend expires exactly when it would
// have expired on the exporting node.

import (
	"sort"
	"time"
)

// HandoffEvent is one spend event in transit: when it was charged (the
// bucketed stamp, see resolution) and how much epsilon.
type HandoffEvent struct {
	AtUnixNano int64   `json:"at"`
	Eps        float64 `json:"eps"`
}

// Handoff is one user's exported window spend, sent by the node that held
// it to the user's (new) owner. Source names the exporting node and Seq is
// the exporter's per-user export sequence; together they deduplicate
// retries on the importing side.
type Handoff struct {
	Source string         `json:"source"`
	Seq    uint64         `json:"seq"`
	Events []HandoffEvent `json:"events"`
}

// Eps totals the handoff's event spend.
func (h *Handoff) Eps() float64 {
	var sum float64
	for _, e := range h.Events {
		sum += e.Eps
	}
	return sum
}

// ExportHandoff moves uid's live window spend out of this accountant into
// a Handoff addressed from source. It returns nil when the user has no
// live spend (nothing to hand off). The events leave the local window
// immediately — the exporter must call CommitHandoff after the handoff is
// acknowledged, or RollbackHandoff after a failed forward, to resolve the
// pending export. Crash-between-export-and-resolve loses at most one
// window of one user's local spend (the forward it was attached to also
// died, so the report it paid for was never served).
func (a *Accountant) ExportHandoff(uid int64, source string) *Handoff {
	now := a.cfg.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	el, ok := a.users[uid]
	if !ok {
		return nil
	}
	u := el.Value.(*userWindow)
	if u.expire(now, a.cfg.Window) <= 0 || len(u.events) == 0 {
		return nil
	}
	u.exportSeq++
	h := &Handoff{Source: source, Seq: u.exportSeq, Events: make([]HandoffEvent, len(u.events))}
	for i, e := range u.events {
		h.Events[i] = HandoffEvent{AtUnixNano: e.at.UnixNano(), Eps: e.eps}
	}
	if u.pending == nil {
		u.pending = make(map[uint64][]spend, 1)
	}
	u.pending[u.exportSeq] = append([]spend(nil), u.events...)
	u.events = u.events[:0]
	u.total = 0
	a.handoffsExported++
	a.epsExported += h.Eps()
	return h
}

// CommitHandoff resolves a pending export after the forward carrying it
// was acknowledged: the receiver owns the spend now, so the local copy is
// dropped for good.
func (a *Accountant) CommitHandoff(uid int64, seq uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if el, ok := a.users[uid]; ok {
		delete(el.Value.(*userWindow).pending, seq)
	}
}

// RollbackHandoff restores a pending export after a failed forward: the
// receiver never saw the spend, so it must count locally again or the
// user could over-spend by retrying against a partitioned owner.
func (a *Accountant) RollbackHandoff(uid int64, seq uint64) {
	now := a.cfg.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	el, ok := a.users[uid]
	if !ok {
		return
	}
	u := el.Value.(*userWindow)
	events, ok := u.pending[seq]
	if !ok {
		return
	}
	delete(u.pending, seq)
	u.merge(events, now, a.cfg.Window)
	a.handoffsRolledBack++
}

// ImportHandoff merges a forwarded handoff into uid's window, returning
// the epsilon applied. Duplicate deliveries — same (source, seq) or an
// older seq than one already applied — are ignored, which is what makes
// retrying a forward safe. Call before Charge for the same request so the
// handed-off spend is counted against the cap the charge checks.
func (a *Accountant) ImportHandoff(uid int64, h *Handoff) (applied float64, ok bool) {
	if h == nil || h.Source == "" || len(h.Events) == 0 {
		return 0, false
	}
	now := a.cfg.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	u := a.touchLocked(uid)
	if u.applied == nil {
		u.applied = make(map[string]uint64, 1)
	}
	if u.applied[h.Source] >= h.Seq {
		a.handoffDupes++
		return 0, false
	}
	u.applied[h.Source] = h.Seq
	events := make([]spend, len(h.Events))
	for i, e := range h.Events {
		events[i] = spend{at: time.Unix(0, e.AtUnixNano), eps: e.Eps}
	}
	before := u.expire(now, a.cfg.Window)
	u.merge(events, now, a.cfg.Window)
	a.handoffsImported++
	applied = u.total - before
	a.epsImported += applied
	return applied, true
}

// merge folds events into the window, keeping the slice sorted by stamp
// (expire depends on oldest-first order) and dropping already-expired
// spend. Caller holds a.mu.
func (u *userWindow) merge(events []spend, now time.Time, window time.Duration) {
	cut := now.Add(-window)
	for _, e := range events {
		if !e.at.After(cut) {
			continue
		}
		u.events = append(u.events, e)
		u.total += e.eps
	}
	sort.Slice(u.events, func(i, j int) bool { return u.events[i].at.Before(u.events[j].at) })
}
