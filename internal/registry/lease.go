package registry

// This file is the lease arm of the report pipeline: where Report draws
// server-side, Lease pre-pays n draws' epsilon in ONE budget charge,
// detaches the user's customized rows into a codec.LeaseBundle, and signs
// an HMAC token (internal/budget.Keyring) binding everything the server
// must never re-trust the client about — user, subtree, prune budget,
// epsilon rate, draw cap, RNG position, expiry. The client then draws at
// device speed (internal/clientdraw); the server's per-report work
// collapses to 1/n of a budget charge. Renewal presents the old token:
// the HMAC proves the server issued it, and the carried RNG position lets
// an evicted session be rebuilt exactly where the leased stream ends, so
// draw sequences stay byte-identical to the server-side paths even across
// session eviction.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"corgi/internal/budget"
	"corgi/internal/codec"
	"corgi/internal/hexgrid"
	"corgi/internal/policy"
	"corgi/internal/session"
)

// DefaultLeaseTTL bounds a draw lease's lifetime when Options.LeaseTTL is
// not positive. Short on purpose: an expired token only costs the client a
// fresh (un-renewed) lease request, while a long-lived one extends how
// stale a leaked bundle's rows can be.
const DefaultLeaseTTL = time.Minute

// ErrBadLeaseToken re-exports the keyring's rejection sentinel so serving
// layers classify it (403 Forbidden) without importing internal/budget.
var ErrBadLeaseToken = budget.ErrBadLeaseToken

// LeaseRequest asks for a client-side draw lease: like a ReportRequest,
// plus the draw cap to pre-pay and an optional renewal token.
type LeaseRequest struct {
	Region string
	// Cell is the user's true leaf cell: it anchors preference evaluation
	// and selects the privacy subtree, exactly as a report does. (This is
	// the one cell a lease reveals; every draw after it stays on-device.)
	Cell   hexgrid.Coord
	UID    int64
	Policy policy.Policy
	Seed   int64
	// Draws is the draw cap to pre-pay (min 1), refused over
	// Options.MaxReportCount exactly as a report's Count is.
	Draws int
	// Token, when non-empty, renews: the previous lease's token proves the
	// RNG position the new lease must continue from even if the resident
	// session was evicted. Forged, tampered, or expired tokens are
	// rejected with ErrBadLeaseToken.
	Token []byte
	// Forwarded and Handoff mirror ReportRequest: a peer's cluster router
	// relayed this lease ask to the uid's owner, optionally carrying the
	// relayer's live budget spend to merge before charging.
	Forwarded bool
	Handoff   *budget.Handoff
}

// LeaseGrant is an issued lease: the signed token, the encoded bundle the
// client draws from, and the customization facts a report response would
// carry. Its fields are what either wire carries: the state the server
// built the lease in lives in the pooled issued a grant from Registry.Lease
// belongs to, and a decoded grant has none.
type LeaseGrant struct {
	// Facts' EpsSpent covers the whole pre-paid draw cap, charged at once.
	Facts
	// DrawCap echoes the granted cap; RNGPos is the stream position the
	// leased window starts at; ExpiresAt the token expiry (Unix ms).
	DrawCap   int
	RNGPos    uint64
	ExpiresAt int64
	// Renewed is true when a valid renewal token accompanied the request.
	Renewed bool
	// Token is the signed lease token; Bundle the encoded lease bundle
	// (codec.DecodeLeaseBundle / clientdraw.Open consume it).
	Token  []byte
	Bundle []byte

	// issued is the pooled lease this grant is the answer of when
	// Registry.Lease made it, and nil otherwise; Release returns it.
	issued *issued
}

// issued is one lease as Registry.Lease builds it: the grant, the detached
// lease its Bundle was encoded from, and the array that lease's pruned or
// precision rows were computed into. It owns all three, with bundle's row
// headers, so the next lease built in it reuses them (bundle's node lists
// and unpruned rows are views of the session binding and the forest entry,
// see codec.LeaseBundle).
type issued struct {
	grant  LeaseGrant
	bundle codec.LeaseBundle
	arena  []float64
}

// grantPool recycles whole issued leases with every buffer a lease is built
// in: the token, the encoded bundle, the detached bundle's row headers and
// the row arena. A lease that is released allocates nothing for its answer.
var grantPool = sync.Pool{New: func() any {
	is := new(issued)
	is.grant.issued = is
	return is
}}

// Release hands the grant back to Registry.Lease for reuse, with every
// buffer above. It has ReportResult.Release's contract: after Release
// nothing of the grant may be read, not a field and not a slice (Token and
// Bundle included: the next Lease on any goroutine overwrites them), so
// copy out what must outlive the call first. It is optional (a grant never
// released is collected by the GC) and a no-op on a grant that did not come
// from Registry.Lease, such as a client's decoded grant, which owns its
// bytes; the serving transports call it once the grant is encoded.
func (g *LeaseGrant) Release() {
	is := g.issued
	if is == nil {
		return
	}
	// The row headers may point into forest entries: drop those pointers
	// so a pooled lease keeps no entry alive.
	rows := is.bundle.Rows
	clear(rows)
	is.grant = LeaseGrant{Token: g.Token[:0], Bundle: g.Bundle[:0], issued: is}
	is.bundle = codec.LeaseBundle{Rows: rows[:0]}
	grantPool.Put(is)
}

// leaseCounters tracks lease issuance at the registry level (the keyring
// is registry-wide, so the counters are too).
type leaseCounters struct {
	issued       atomic.Uint64
	renewed      atomic.Uint64
	drawsGranted atomic.Uint64
	deniedBudget atomic.Uint64
	deniedToken  atomic.Uint64
}

// LeaseStats snapshots the lease counters for /v1/stats.
type LeaseStats struct {
	// Issued counts granted leases (renewals included); Renewed the subset
	// granted against a valid renewal token; DrawsGranted the pre-paid
	// draws across all of them.
	Issued       uint64 `json:"issued"`
	Renewed      uint64 `json:"renewed"`
	DrawsGranted uint64 `json:"draws_granted"`
	// DeniedBudget counts leases refused 429 (epsilon cap); DeniedToken
	// leases refused 403 (forged, tampered, or expired token).
	DeniedBudget uint64 `json:"denied_budget"`
	DeniedToken  uint64 `json:"denied_token"`
}

// LeaseStats snapshots the registry's lease counters.
func (r *Registry) LeaseStats() LeaseStats {
	return LeaseStats{
		Issued:       r.lease.issued.Load(),
		Renewed:      r.lease.renewed.Load(),
		DrawsGranted: r.lease.drawsGranted.Load(),
		DeniedBudget: r.lease.deniedBudget.Load(),
		DeniedToken:  r.lease.deniedToken.Load(),
	}
}

// Lease runs the lease pipeline: validate like a report, verify any
// renewal token, charge draws x epsilon in one call, bind (or re-anchor,
// or rebuild) the user's session, detach its rows, and sign the token.
// Budget and token checks both happen before any session work, so a
// refused lease consumes nothing from the user's RNG stream. The grant is
// the pool's (see LeaseGrant.Release), built in the buffers of an earlier
// lease.
func (r *Registry) Lease(ctx context.Context, req LeaseRequest) (*LeaseGrant, error) {
	a, err := r.admit(ctx, req.Region, req.Cell, req.UID, req.Seed, req.Policy, req.Handoff, req.Draws)
	if err != nil {
		return nil, err
	}
	is := grantPool.Get().(*issued)
	if err := r.issue(ctx, &a, req, is); err != nil {
		is.grant.Release()
		return nil, err
	}
	return &is.grant, nil
}

// issue fills is, a zeroed pooled lease, with the admitted request's
// lease. On an error is holds nothing a caller may use.
func (r *Registry) issue(ctx context.Context, a *anchoring, req LeaseRequest, is *issued) error {
	sh, draws, grant := a.sh, a.draws, &is.grant

	// Renewal first: a bad token must be refused before the budget is
	// touched (403 beats 429 — the client's next move differs).
	var prev budget.LeaseToken
	renewed := false
	now := r.opts.Budget.Now()
	if len(req.Token) > 0 {
		var err error
		prev, err = r.keyring.Verify(req.Token, now, sh.Spec.Name)
		if err != nil {
			r.lease.deniedToken.Add(1)
			return err
		}
		if prev.UID != req.UID || prev.Region != sh.Spec.Name {
			r.lease.deniedToken.Add(1)
			return fmt.Errorf("%w: token bound to user %d region %q",
				ErrBadLeaseToken, prev.UID, prev.Region)
		}
		renewed = true
	}

	grant.DrawCap, grant.Renewed = draws, renewed
	// ONE charge pre-pays the whole cap under linear composition: the
	// client's n draws cost exactly what n report requests would, but the
	// accountant is hit once per lease instead of once per draw. Unused
	// draws are forfeited, not refunded — over-charging is the
	// privacy-conservative direction, and it is what keeps the server
	// from ever trusting client draw accounting. The detach, the encoder
	// and the signer all write into the grant's own buffers.
	bundle := &is.bundle
	err := a.serve(ctx, &grant.Facts, func(sess *session.Session) (session.Bound, error) {
		// A renewal continues the stream where the leased window ends: for
		// a resident session FastForward is a no-op (DetachLease already
		// moved past the cap), but a session rebuilt after eviction starts
		// at position 0 and must catch up to the token's recorded end
		// before detaching the next window — that is what keeps one seed
		// yielding one sequence across lease generations and evictions
		// alike. A detach refused after a concurrent re-anchor leaves the
		// stream where it was, so a retry catching up again is a no-op.
		if renewed {
			sess.FastForward(prev.RNGPos + uint64(prev.DrawCap))
		}
		var err error
		is.arena, err = sess.DetachLeaseInto(bundle, is.arena, a.leaf, draws)
		return session.Bound{Pruned: len(bundle.Pruned), Degraded: bundle.Degraded}, err
	})
	if errors.Is(err, ErrBudgetExhausted) {
		r.lease.deniedBudget.Add(1)
	}
	if err != nil {
		return err
	}
	grant.RNGPos = bundle.RNGPos
	if grant.Bundle, err = codec.AppendLeaseBundle(grant.Bundle, bundle); err != nil {
		return err
	}
	expires := now.Add(r.opts.LeaseTTL)
	grant.ExpiresAt = expires.UnixMilli()
	grant.Token = r.keyring.AppendSign(grant.Token, budget.LeaseToken{
		UID:       req.UID,
		Region:    sh.Spec.Name,
		Root:      bundle.Root,
		Delta:     len(bundle.Pruned),
		Eps:       sh.Spec.Epsilon,
		DrawCap:   draws,
		RNGPos:    bundle.RNGPos,
		IssuedAt:  now.UnixMilli(),
		ExpiresAt: grant.ExpiresAt,
	})
	r.lease.issued.Add(1)
	if renewed {
		r.lease.renewed.Add(1)
	}
	r.lease.drawsGranted.Add(uint64(draws))
	return nil
}
