package registry

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"

	"corgi/internal/budget"
	"corgi/internal/core"
	"corgi/internal/geo"
	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
	"corgi/internal/policy"
	"corgi/internal/session"
)

// ErrBadReport marks report requests rejected for caller-side reasons
// (cell outside the region, invalid policy, over-budget prune set), so the
// serving layer can answer 4xx instead of 5xx.
var ErrBadReport = errors.New("bad report request")

// ErrBudgetExhausted re-exports the accountant's rejection sentinel so
// serving layers can classify it (429 Too Many Requests) without importing
// internal/budget directly.
var ErrBudgetExhausted = budget.ErrBudgetExhausted

// Rejection is a refused ask as every wire carries it: the HTTP-equivalent
// status, the message, and on a 429 the user's live epsilon headroom. Each
// transport has one encoder for it (status line plus X-Corgi-Eps-Remaining,
// ERROR frame, batch item) and one decoder, so a given failure is the same
// answer whichever route it leaves by; both clients return a decoded one
// as a *Rejection error. The JSON keys are a batch item's.
type Rejection struct {
	Status int    `json:"status"`
	Msg    string `json:"error,omitempty"`
	// EpsRemaining is the user's window headroom on a budget rejection
	// (valid when HasEps, a headroom of exactly 0 included), so transports
	// report it without a second accountant query.
	EpsRemaining float64 `json:"eps_remaining,omitempty"`
	HasEps       bool    `json:"has_eps_remaining,omitempty"`
}

// Error formats the status and message a server refused with.
func (r *Rejection) Error() string {
	return fmt.Sprintf("server returned %d: %s", r.Status, r.Msg)
}

// Check refuses what no server writes as a refusal: a status outside
// 400-599 or a headroom that is not finite. Every decoder of a peer's
// refusal holds it to Check, so a malformed one is a decode error and
// never reaches a writer (net/http panics on a status it cannot send).
func (r *Rejection) Check() error {
	if r.Status < 400 || r.Status > 599 {
		return fmt.Errorf("refusal status %d outside 400-599", r.Status)
	}
	if math.IsNaN(r.EpsRemaining) || math.IsInf(r.EpsRemaining, 0) {
		return fmt.Errorf("refusal headroom %v is not finite", r.EpsRemaining)
	}
	return nil
}

// Classify maps a report-pipeline error to its Rejection. It is the single
// classification every transport shares: unknown regions are 404,
// caller-side rejections (bad cell, invalid policy, over-budget prune set,
// over-cap draw count) 422, an exhausted per-user epsilon budget 429 (the
// budget regenerates as the accounting window slides, so Too Many Requests
// is the honest class), a forged or expired lease token 403, interrupted
// work 5xx, and anything else a server fault.
func Classify(err error) Rejection {
	// A forwarded request's failure arrives as the *Rejection the owner
	// node answered with, from either of its wires; it carries the owner's
	// classification and headroom, which pass through unchanged so a 429
	// on the owner is a 429 to the client.
	var fwd *Rejection
	if errors.As(err, &fwd) {
		return *fwd
	}
	rej := Rejection{Msg: err.Error()}
	switch {
	case errors.Is(err, ErrUnknownRegion):
		rej.Status = http.StatusNotFound
	case errors.Is(err, ErrBudgetExhausted):
		rej.Status = http.StatusTooManyRequests
		var ex *budget.ExhaustedError
		if errors.As(err, &ex) {
			rej.EpsRemaining, rej.HasEps = ex.Remaining, true
		}
	case errors.Is(err, ErrBadLeaseToken):
		// Forged, tampered, or expired lease tokens: unlike a budget
		// rejection, waiting does not clear the condition.
		rej.Status = http.StatusForbidden
	case errors.Is(err, ErrBadReport):
		rej.Status = http.StatusUnprocessableEntity
	case errors.Is(err, context.DeadlineExceeded):
		rej.Status, rej.Msg = http.StatusGatewayTimeout, "report timed out: "+rej.Msg
	case errors.Is(err, context.Canceled):
		rej.Status, rej.Msg = http.StatusServiceUnavailable, "request canceled"
	default:
		rej.Status = http.StatusInternalServerError
	}
	return rej
}

// BatchOutcome is one batch item's answer: the result (Status 200), or the
// rejection the item was refused with. Items fail independently.
type BatchOutcome struct {
	Result *ReportResult
	Rejection
}

// ReportBatch answers a batch of report asks through h (the registry
// itself, or the cluster router in front of it): a rejection for a batch
// refused whole (see CheckBatch), otherwise one outcome per ask in request
// order. Items fan out one goroutine each — every shard's engine still
// bounds its own solve concurrency and the session managers serialize
// per-session draws — and the caller releases each Result once encoded.
func (r *Registry) ReportBatch(ctx context.Context, h ReportHandler, reqs []ReportRequest) ([]BatchOutcome, *Rejection) {
	if rej := r.CheckBatch(len(reqs)); rej != nil {
		return nil, rej
	}
	outs := make([]BatchOutcome, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := h.Report(ctx, reqs[i])
			if err != nil {
				outs[i].Rejection = Classify(err)
				return
			}
			outs[i] = BatchOutcome{Result: res, Rejection: Rejection{Status: http.StatusOK}}
		}(i)
	}
	wg.Wait()
	return outs, nil
}

// ReportRequest is one user's report ask: which region, which true leaf
// cell, the inline customization policy, and the draw parameters. Serving
// this path means the true cell and the policy cross the wire — the
// trusted-serving trade-off the report pipeline makes against the paper's
// download-and-customize flow (see ARCHITECTURE.md); deployments that
// must keep Sec. 5's trust model use the forest routes unchanged.
type ReportRequest struct {
	Region string
	// Cell is the axial coordinate of the user's true leaf cell.
	Cell hexgrid.Coord
	// UID selects the per-user view of the region metadata (home/office/
	// outlier attributes), partitions session state between users, and is
	// the unit of epsilon-budget accounting.
	UID int64
	// Policy is the customization triple, evaluated server-side against
	// the shard's metadata.
	Policy policy.Policy
	// Seed fixes the session's RNG stream; a (UID, Seed, Policy) tuple
	// always replays the same draw sequence from a fresh server — even
	// across re-anchors, because the session's RNG survives moves.
	Seed int64
	// Count is how many reports to draw (DrawCount: below 1 draws one); a
	// count over Options.MaxReportCount is refused before anything is
	// charged or drawn.
	Count int
	// Forwarded marks a request relayed by a peer node's cluster router:
	// the receiving node serves it locally (it is — or is standing in for —
	// the uid's owner) instead of re-forwarding, which is what makes the
	// routing loop-free.
	Forwarded bool
	// Handoff, on a forwarded request, carries the relaying node's live
	// window spend for this user; the owner merges it before charging so a
	// rebalanced or failed-over user cannot over-spend (see
	// internal/budget/handoff.go).
	Handoff *budget.Handoff
}

// Facts is the outcome of a user's customization (Algorithm 4) as a
// report and a lease both answer it: where the draws come from, what the
// policy pruned, and what the ask was charged.
type Facts struct {
	// SubtreeRoot roots the privacy-forest entry the rows come from, at
	// the policy's privacy level; PrecisionLevel is the tree level of
	// every reported node.
	Region         string
	SubtreeRoot    loctree.NodeID
	PrecisionLevel int
	// Pruned is how many locations the policy's preferences removed from
	// the obfuscation range.
	Pruned int
	// Reanchored is true when this ask moved the user's resident session
	// onto a different subtree (or preference anchor) — the mobility slow
	// path between a warm hit and a cold session build.
	Reanchored bool
	// Budgeted is true when the shard runs an epsilon accountant; then
	// EpsSpent is what this ask charged (epsilon x draws, linear
	// composition) and EpsRemaining the user's window headroom after it.
	Budgeted     bool
	EpsSpent     float64
	EpsRemaining float64
	// Degraded is true when the rows are a planar-Laplace fallback entry's
	// (degraded serving): the same epsilon bound holds, but utility is
	// below the LP optimum until the background solve lands and the
	// session upgrades.
	Degraded bool
}

// ReportResult carries the drawn reports and the customization facts a
// client may want to display.
type ReportResult struct {
	Facts
	Reports []loctree.NodeID
	// Centers are the reported nodes' centers, index-aligned with
	// Reports, so the serving layer never needs a second shard lookup.
	Centers []geo.LatLng

	// pooled marks a result Registry.Report took from resultPool; Release
	// returns it.
	pooled bool
}

// resultPool recycles whole results, each with the arrays backing its
// Reports and Centers: a report that is released allocates nothing for its
// answer.
var resultPool = sync.Pool{New: func() any { return new(ReportResult) }}

// Release hands the result back to Registry.Report for reuse: the struct
// itself and the arrays behind Reports and Centers. After Release nothing
// of the result may be read, not a field and not a slice: the next Report
// on any goroutine overwrites all of it, so copy out what must outlive the
// call first. It is optional (a result never released is collected by the
// GC) and a no-op on a result that did not come from Registry.Report (a
// decoded remote answer); the serving transports call it once the result is
// encoded, which is what keeps the report path allocation-free.
func (res *ReportResult) Release() {
	if !res.pooled {
		return
	}
	*res = ReportResult{Reports: res.Reports[:0], Centers: res.Centers[:0]}
	resultPool.Put(res)
}

// grown returns s resized to n, reallocating only when capacity falls
// short — the pooled-buffer fast path is a reslice.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// prunePlan is the preference evaluation for one (user, subtree): the
// prune set S whose size is the delta the forest entry must absorb.
type prunePlan struct {
	pruned []loctree.NodeID
	anchor loctree.NodeID
	// scratch holds the pooled array pruned was written into, nil when the
	// policy has no preferences; release hands it back.
	scratch *[]loctree.NodeID
}

// release returns the plan's prune set to the pool. Nothing may read
// p.pruned after it: the next evalPrune on any goroutine overwrites it.
func (p *prunePlan) release() {
	if p.scratch == nil {
		return
	}
	*p.scratch = p.pruned[:0]
	pruneScratch.Put(p.scratch)
	p.pruned, p.scratch = nil, nil
}

// attrScratch recycles the one attribute map evalPrune fills leaf by leaf.
var attrScratch = sync.Pool{New: func() any { return make(policy.Attributes, 6) }}

// pruneScratch recycles the arrays evalPrune writes prune sets into. No
// session keeps one: mechanism.Bind copies a set the entry keeps a binding
// for.
var pruneScratch = sync.Pool{New: func() any {
	s := make([]loctree.NodeID, 0, 7)
	return &s
}}

// evalPrune evaluates a policy's preferences over the subtree's leaves,
// anchored at the user's true cell: the same prune set
// mechanism.EvalPreferences returns over Shard.Attrs, computed without
// materializing the attribute maps — each leaf's attributes overwrite the
// previous leaf's in one scratch map, and the set is written into pooled
// scratch the caller releases. Preference-free policies prune nothing and
// anchor nowhere (their sessions are cell-independent).
func evalPrune(sh *Shard, tree *loctree.Tree, uid int64, pol policy.Policy, root, leaf loctree.NodeID) (prunePlan, error) {
	var plan prunePlan
	if len(pol.Preferences) == 0 {
		return plan, nil
	}
	md, err := sh.Metadata()
	if err != nil {
		return plan, err
	}
	view := md.View(int(uid), tree.Center(leaf))
	attrs := attrScratch.Get().(policy.Attributes)
	defer attrScratch.Put(attrs)
	plan.scratch = pruneScratch.Get().(*[]loctree.NodeID)
	plan.pruned = (*plan.scratch)[:0]
	for _, l := range tree.LeavesUnder(root) {
		view.Fill(attrs, l)
		allowed, err := pol.Allowed(attrs)
		if err != nil {
			return plan, fmt.Errorf("%w: evaluating %v: %v", ErrBadReport, l, err)
		}
		if !allowed {
			plan.pruned = append(plan.pruned, l)
		}
	}
	plan.anchor = leaf
	return plan, nil
}

// anchoring is one admitted request's place in the session pipeline: what
// Report and Lease both need to find, build and re-anchor the user's
// resident session.
type anchoring struct {
	sh         *Shard
	tree       *loctree.Tree
	uid, seed  int64
	pol        policy.Policy
	root, leaf loctree.NodeID
	// draws is how many draws the ask pays for: at least 1, at most the
	// registry's cap.
	draws int
}

// DrawCount is how many reports an ask for count draws: count, and one
// when count is below one. Every report source draws this many: the
// registry, both remotes (through it) and the device's own reporters.
func DrawCount(count int) int { return max(count, 1) }

// admit resolves the shard, merges a forwarded budget handoff, and
// validates the draw count against Options.MaxReportCount and the cell and
// the policy against the region's tree.
func (r *Registry) admit(ctx context.Context, region string, cell hexgrid.Coord, uid, seed int64,
	pol policy.Policy, handoff *budget.Handoff, draws int) (anchoring, error) {
	sh, err := r.Shard(ctx, region)
	if err != nil {
		return anchoring{}, err
	}
	// Merge a forwarded budget handoff before validation and charging:
	// once the request is past region resolution the relaying node may
	// commit its export, so the spend must be counted here even if the
	// request itself is then rejected. Duplicate deliveries dedupe inside
	// ImportHandoff.
	if handoff != nil && sh.Budget != nil {
		sh.Budget.ImportHandoff(uid, handoff)
	}
	if draws > r.opts.MaxReportCount {
		return anchoring{}, fmt.Errorf("%w: count %d exceeds limit %d", ErrBadReport, draws, r.opts.MaxReportCount)
	}
	a := anchoring{sh: sh, tree: sh.Server.Tree(), uid: uid, seed: seed, pol: pol,
		leaf: loctree.NodeID{Level: 0, Coord: cell}, draws: DrawCount(draws)}
	if !a.tree.Contains(a.leaf) {
		return anchoring{}, fmt.Errorf("%w: cell (%d, %d) outside region %q",
			ErrBadReport, cell.Q, cell.R, sh.Spec.Name)
	}
	if err := pol.Validate(a.tree.Height()); err != nil {
		return anchoring{}, fmt.Errorf("%w: %v", ErrBadReport, err)
	}
	var ok bool
	if a.root, ok = a.tree.AncestorAt(a.leaf, pol.PrivacyLevel); !ok {
		return anchoring{}, fmt.Errorf("%w: no ancestor of %v at privacy level %d",
			ErrBadReport, a.leaf, pol.PrivacyLevel)
	}
	return a, nil
}

// plan evaluates the preferences at the request's cell and fetches the
// forest entry that absorbs the resulting prune set (Sec. 5.3: the
// request's delta is |S|). The caller releases the plan once the bind that
// reads its prune set returns; a plan that comes with an error is released
// already.
func (a *anchoring) plan(ctx context.Context) (prunePlan, *core.ForestEntry, error) {
	plan, err := evalPrune(a.sh, a.tree, a.uid, a.pol, a.root, a.leaf)
	var entry *core.ForestEntry
	if err == nil {
		entry, err = a.sh.Server.ServeEntryCtx(ctx, a.root, len(plan.pruned))
	}
	if err != nil {
		plan.release()
		if errors.Is(err, core.ErrDeltaRange) {
			// The prune set is a subset of the subtree's leaves, so only
			// one that takes all of them reaches the bound.
			err = fmt.Errorf("%w: preferences prune every location in subtree %v", ErrBadReport, a.root)
		}
		return prunePlan{}, nil, err
	}
	return plan, entry, nil
}

// session returns the user's resident session, building one when there is
// none. The key is the user's stream identity — region, uid, seed, policy —
// with no subtree in it: trajectories re-anchor the resident session
// instead of fragmenting into per-subtree streams.
func (a *anchoring) session(ctx context.Context) (*session.Session, error) {
	key := session.Key{
		Region: a.sh.Spec.Name,
		UID:    a.uid,
		Seed:   a.seed,
		Policy: session.PolicyFingerprint(a.pol),
	}
	if sess, ok := a.sh.Sessions.Get(key); ok {
		return sess, nil
	}
	plan, entry, err := a.plan(ctx)
	if err != nil {
		return nil, err
	}
	cfg := session.Config{
		Tree:    a.tree,
		Entry:   entry,
		Delta:   len(plan.pruned),
		Policy:  a.pol,
		Pruned:  plan.pruned,
		Anchor:  plan.anchor,
		Priors:  a.sh.Server.Priors(),
		Seed:    a.seed,
		Epsilon: a.sh.Spec.Epsilon,
	}
	sess, err := a.sh.Sessions.GetOrCreate(key, func() (*session.Session, error) { return session.New(cfg) })
	plan.release()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadReport, err)
	}
	return sess, nil
}

// anchor moves sess onto the request's subtree when the trajectory left
// the bound one, or — for preference-bearing policies — moved off the
// attribute anchor (the "distance" attribute is relative to the user's
// location, so the prune set must re-evaluate even inside one subtree). It
// also covers the GetOrCreate admission race: a race-losing request whose
// winner is anchored elsewhere re-anchors the shared session instead of
// failing, which is the right semantics for one moving (uid, seed) stream.
//
// A session bound while its entry was degraded then checks whether the
// background LP solve has landed and upgrades in place — the swap never
// touches the RNG stream, so replayed sequences stay position-aligned
// across the upgrade.
func (a *anchoring) anchor(ctx context.Context, sess *session.Session) (moved bool, err error) {
	at := sess.Bound()
	if at.Moved(a.root, a.leaf, a.pol) {
		plan, entry, err := a.plan(ctx)
		if err != nil {
			return false, err
		}
		delta := len(plan.pruned)
		err = sess.Rebind(session.Rebind{
			Entry:  entry,
			Delta:  delta,
			Pruned: plan.pruned,
			Anchor: plan.anchor,
		})
		plan.release()
		if err != nil {
			return false, fmt.Errorf("%w: %v", ErrBadReport, err)
		}
		moved = true
		at = session.Bound{Root: a.root, Pruned: delta, Degraded: entry.Degraded}
	}
	if at.Degraded {
		if e, ok := a.sh.Server.PeekEntry(at.Root, at.Pruned); ok && !e.Degraded {
			if _, err := sess.Upgrade(e, at.Pruned); err != nil {
				return moved, err
			}
		}
	}
	return moved, nil
}

// serve answers an admitted ask into f; act, a draw or a detach, is the
// one thing a report and a lease do differently. It opens f with where the
// ask is served from and charges the ask's epsilon under linear
// composition — each of the draws leaks the subtree matrix's epsilon —
// before any session work: a rejected ask never touches the RNG (so a
// budget-capped user's replay stays aligned with an uncapped one), and an
// over-budget user hammering moves cannot make the shard pay for entry
// generation and re-anchoring it will never serve. The flip side: an ask
// that fails after admission (over-budget prune set, degenerate row) has
// still consumed budget — over-charging is the privacy-conservative
// direction. Then it finds the user's session, anchors it at the ask's
// cell and runs act, which returns the binding it was served from: Pruned
// and Degraded come from that binding, not from the session, because a
// concurrent mover on this stream may re-anchor the session the moment
// act's lock is released.
func (a *anchoring) serve(ctx context.Context, f *Facts, act func(*session.Session) (session.Bound, error)) error {
	f.Region, f.SubtreeRoot, f.PrecisionLevel = a.sh.Spec.Name, a.root, a.pol.PrecisionLevel
	if a.sh.Budget != nil {
		cost := a.sh.Spec.Epsilon * float64(a.draws)
		remaining, err := a.sh.Budget.Charge(a.uid, cost)
		if err != nil {
			return err
		}
		f.Budgeted, f.EpsSpent, f.EpsRemaining = true, cost, remaining
	}
	sess, err := a.session(ctx)
	if err != nil {
		return err
	}
	for attempt := 0; ; attempt++ {
		moved, err := a.anchor(ctx, sess)
		if err != nil {
			return err
		}
		f.Reanchored = f.Reanchored || moved
		from, err := act(sess)
		switch {
		case err == nil:
			f.Pruned, f.Degraded = from.Pruned, from.Degraded
			return nil
		case errors.Is(err, session.ErrOutsideSubtree) && attempt < 4:
			// A concurrent ask on the same stream re-anchored the shared
			// session between this ask's anchor and its act. Each ask must
			// still be served from its own cell, so re-anchor and try again
			// rather than surface a spurious rejection (whose budget was
			// already charged). The bound only guards against a
			// pathological livelock of perfectly interleaved movers.
		case errors.Is(err, session.ErrUnsampleable):
			return err // degenerate matrix data: a server fault (5xx)
		default:
			return fmt.Errorf("%w: %v", ErrBadReport, err)
		}
	}
}

// Report runs the full report pipeline for one request: resolve the
// shard, validate cell and policy, charge the user's epsilon budget, bind
// (or re-anchor, or reuse) the user's session, and draw.
//
// Mobility makes this a three-temperature path:
//
//   - warm: the resident (UID, Seed, Policy) session already covers the
//     reported cell — O(1) draws, no attribute pass, no entry lookup;
//   - re-anchor: the user moved outside the bound subtree (or, for
//     preference-bearing policies, away from their attribute anchor):
//     preferences re-evaluate at the new location, the covering forest
//     entry is fetched (cache or solve), and the session rebinds onto it
//     without resetting its RNG stream;
//   - cold: no resident session — build one.
//
// Budget accounting happens up front, after request validation but before
// any session work: a rejected request consumes nothing from the RNG
// stream (a budget-capped user's replay stays aligned with an uncapped
// one) and pays for no entry generation or re-anchoring.
func (r *Registry) Report(ctx context.Context, req ReportRequest) (*ReportResult, error) {
	a, err := r.admit(ctx, req.Region, req.Cell, req.UID, req.Seed, req.Policy, req.Handoff, req.Count)
	if err != nil {
		return nil, err
	}
	res := resultPool.Get().(*ReportResult)
	res.pooled = true
	if err := a.report(ctx, res); err != nil {
		res.Release()
		return nil, err
	}
	return res, nil
}

// report fills res, a zeroed result, with the admitted request's answer.
// On an error res holds nothing a caller may use.
func (a *anchoring) report(ctx context.Context, res *ReportResult) error {
	res.Reports = grown(res.Reports, a.draws)
	err := a.serve(ctx, &res.Facts, func(sess *session.Session) (session.Bound, error) {
		return sess.DrawCellNBound(a.leaf, res.Reports)
	})
	if err != nil {
		return err
	}
	res.Centers = grown(res.Centers, a.draws)
	for i, n := range res.Reports {
		res.Centers[i] = a.tree.Center(n)
	}
	return nil
}
