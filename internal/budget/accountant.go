package budget

// This file is the *runtime* side of the package: where budget.go computes
// the reserved budget a matrix must set aside at generation time (Sec. 4.4),
// the Accountant tracks the epsilon each user actually spends at serving
// time. Every obfuscated report drawn under an epsilon-Geo-Ind matrix leaks
// epsilon, and repeated reports compose linearly (the sequential-composition
// channel Primault et al. and Oya et al. identify as the dominant leakage of
// deployed Geo-Ind systems): a user who reports n times from a trajectory
// has spent n*epsilon. The Accountant enforces a per-user cap over a
// sliding window — spend expires as the window slides, modeling the
// adversary's bounded correlation horizon — and rejects draws that would
// exceed it with ErrBudgetExhausted, which the serving layer maps to a
// 429-class response.

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrBudgetExhausted marks a report rejected because drawing it would push
// the user's epsilon spend over their sliding-window cap. It is a
// rate-class condition (the budget regenerates as the window slides), so
// the serving layer answers 429 Too Many Requests, not 4xx-invalid.
var ErrBudgetExhausted = errors.New("budget: per-user epsilon budget exhausted")

// ExhaustedError is the concrete rejection Charge returns: it matches
// ErrBudgetExhausted under errors.Is, and carries the accounting facts so
// serving layers can answer with the user's live headroom (the stream
// transport's 429-class ERROR frame includes eps_remaining) instead of
// re-querying the accountant.
type ExhaustedError struct {
	UID int64
	// Spent is the user's live window total at rejection time; Limit the
	// per-window cap and Window the sliding horizon. Remaining is the
	// headroom left (positive when the cap has room, just not enough for
	// the rejected request's full cost).
	Spent, Limit, Remaining float64
	Window                  time.Duration
}

// Error formats the rejection with the user's spend, cap, and window.
func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("%v: user %d spent %.4g of %.4g eps in the last %v",
		ErrBudgetExhausted, e.UID, e.Spent, e.Limit, e.Window)
}

// Unwrap makes errors.Is(err, ErrBudgetExhausted) match.
func (e *ExhaustedError) Unwrap() error { return ErrBudgetExhausted }

// DefaultWindow is the sliding accounting window when Config.Window is not
// positive.
const DefaultWindow = time.Hour

// DefaultMaxUsers bounds the tracked-user LRU when Config.MaxUsers is not
// positive. An untracked user re-enters with an empty window, so the bound
// trades memory against remembering rare users' spend.
const DefaultMaxUsers = 1 << 16

// resolution buckets spend events: all charges inside one resolution-sized
// interval merge into one event stamped at the interval's *end*, bounding
// per-user memory to Window/resolution events. Bucketed spend expires at
// most resolution later than its exact time — never earlier (no
// under-count), and never later than that bound (sustained sub-resolution
// traffic cannot stop the window from sliding).
const resolution = time.Second

// Config tunes an Accountant.
type Config struct {
	// LimitEps is the per-user epsilon cap per window. It must be positive;
	// an Accountant is only constructed when accounting is enabled.
	LimitEps float64
	// Window is the sliding accounting horizon (DefaultWindow if <= 0).
	Window time.Duration
	// MaxUsers bounds the tracked-user LRU (DefaultMaxUsers if <= 0).
	MaxUsers int
	// Now is the clock the window reads (nil: time.Now); node.Config.Now
	// feeds it, and tests hand it a clock.Manual's.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.MaxUsers <= 0 {
		c.MaxUsers = DefaultMaxUsers
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Stats is a point-in-time snapshot of an accountant's counters.
type Stats struct {
	// Users is the number of users currently tracked; Cap the LRU bound.
	Users int `json:"users"`
	Cap   int `json:"cap"`
	// LimitEps and WindowS echo the configuration so dashboards can read
	// rejection counts against the policy that produced them.
	LimitEps float64 `json:"limit_eps"`
	WindowS  float64 `json:"window_s"`
	// Charges counts granted spend events; Rejections counts draws refused
	// with ErrBudgetExhausted; EpsGranted totals the epsilon handed out.
	Charges    uint64  `json:"charges"`
	Rejections uint64  `json:"rejections"`
	EpsGranted float64 `json:"eps_granted"`
	// EvictedUsers counts users dropped by the LRU bound (their remaining
	// window spend is forgotten).
	EvictedUsers uint64 `json:"evicted_users"`
	// Cluster handoff counters (see handoff.go): exports move local spend
	// to a forwarded report, imports merge a peer's spend in, rollbacks
	// restore failed exports, and dupes are redeliveries the (source, seq)
	// watermark rejected. EpsExported/EpsImported total the epsilon moved.
	HandoffsExported   uint64  `json:"handoffs_exported,omitempty"`
	HandoffsImported   uint64  `json:"handoffs_imported,omitempty"`
	HandoffsRolledBack uint64  `json:"handoffs_rolled_back,omitempty"`
	HandoffDupes       uint64  `json:"handoff_dupes,omitempty"`
	EpsExported        float64 `json:"eps_exported,omitempty"`
	EpsImported        float64 `json:"eps_imported,omitempty"`
}

// Merge accumulates o into s for fleet-wide aggregation. Configuration
// echoes (LimitEps, WindowS) keep the maximum, which is only meaningful
// when shards share a config — the common case.
func (s *Stats) Merge(o Stats) {
	s.Users += o.Users
	s.Cap += o.Cap
	if o.LimitEps > s.LimitEps {
		s.LimitEps = o.LimitEps
	}
	if o.WindowS > s.WindowS {
		s.WindowS = o.WindowS
	}
	s.Charges += o.Charges
	s.Rejections += o.Rejections
	s.EpsGranted += o.EpsGranted
	s.EvictedUsers += o.EvictedUsers
	s.HandoffsExported += o.HandoffsExported
	s.HandoffsImported += o.HandoffsImported
	s.HandoffsRolledBack += o.HandoffsRolledBack
	s.HandoffDupes += o.HandoffDupes
	s.EpsExported += o.EpsExported
	s.EpsImported += o.EpsImported
}

// spend is one (coalesced) epsilon expenditure.
type spend struct {
	at  time.Time
	eps float64
}

// userWindow is one user's live spend events, oldest first. The three
// cluster fields carry the handoff protocol's state (see handoff.go):
// exportSeq numbers this node's exports for the user, pending holds
// exported-but-unacknowledged events so a failed forward can roll back,
// and applied is the per-source import watermark that deduplicates
// redelivered handoffs.
type userWindow struct {
	uid    int64
	events []spend
	total  float64

	exportSeq uint64
	pending   map[uint64][]spend
	applied   map[string]uint64
}

// expire drops events that left the window as of now and returns the live
// total.
func (u *userWindow) expire(now time.Time, window time.Duration) float64 {
	cut := now.Add(-window)
	i := 0
	for i < len(u.events) && !u.events[i].at.After(cut) {
		u.total -= u.events[i].eps
		i++
	}
	if i > 0 {
		u.events = append(u.events[:0], u.events[i:]...)
		if len(u.events) == 0 {
			u.total = 0 // clear numerical dust so idle users fully reset
		}
	}
	return u.total
}

// Accountant tracks per-user epsilon spend under linear composition over a
// sliding window. It is safe for concurrent use.
type Accountant struct {
	cfg Config

	mu    sync.Mutex
	ll    *list.List // front = most recently charged user
	users map[int64]*list.Element

	charges    uint64
	rejections uint64
	granted    float64
	evicted    uint64

	handoffsExported   uint64
	handoffsImported   uint64
	handoffsRolledBack uint64
	handoffDupes       uint64
	epsExported        float64
	epsImported        float64
}

// NewAccountant builds a sliding-window accountant. LimitEps must be
// positive — a non-positive cap would reject every report, which callers
// should express by not constructing an accountant at all.
func NewAccountant(cfg Config) (*Accountant, error) {
	if cfg.LimitEps <= 0 {
		return nil, fmt.Errorf("budget: LimitEps must be positive, got %v", cfg.LimitEps)
	}
	cfg = cfg.withDefaults()
	return &Accountant{
		cfg:   cfg,
		ll:    list.New(),
		users: map[int64]*list.Element{},
	}, nil
}

// Charge records eps of spend for uid if the user's live window total plus
// eps stays within the cap, returning the window headroom left after the
// charge; it returns ErrBudgetExhausted (charging nothing) otherwise. The
// boundary is inclusive: a charge landing exactly on the cap is granted,
// the first one beyond it is not — so with limit = n*eps, exactly n draws
// fit per window. eps must be positive. Returning the remaining headroom
// from the same critical section keeps the hot path at one lock
// acquisition per report.
func (a *Accountant) Charge(uid int64, eps float64) (remaining float64, err error) {
	if eps <= 0 {
		return 0, fmt.Errorf("budget: charge must be positive, got %v", eps)
	}
	now := a.cfg.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	u := a.touchLocked(uid)
	live := u.expire(now, a.cfg.Window)
	// The epsilon-scale comparison tolerates the float dust a long run of
	// equal charges accumulates, without admitting a meaningful overdraw.
	if live+eps > a.cfg.LimitEps*(1+1e-9) {
		a.rejections++
		rem := a.cfg.LimitEps - live
		if rem < 0 {
			rem = 0
		}
		return 0, &ExhaustedError{
			UID: uid, Spent: live, Limit: a.cfg.LimitEps, Remaining: rem,
			Window: a.cfg.Window,
		}
	}
	// Bucket the charge: everything inside one resolution interval merges
	// into one event stamped at the interval's end. The fixed stamp is
	// what keeps the window sliding — rewriting the stamp on each merge
	// would let a sustained sub-resolution stream postpone its own expiry
	// forever, turning the sliding window into a full-window lockout.
	bucketEnd := now.Truncate(resolution).Add(resolution)
	if n := len(u.events); n > 0 && u.events[n-1].at.Equal(bucketEnd) {
		u.events[n-1].eps += eps
	} else {
		u.events = append(u.events, spend{at: bucketEnd, eps: eps})
	}
	u.total += eps
	a.charges++
	a.granted += eps
	remaining = a.cfg.LimitEps - u.total
	if remaining < 0 {
		remaining = 0
	}
	return remaining, nil
}

// Spent returns uid's live window total (0 for untracked users) without
// refreshing the user's LRU recency.
func (a *Accountant) Spent(uid int64) float64 {
	now := a.cfg.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	el, ok := a.users[uid]
	if !ok {
		return 0
	}
	return el.Value.(*userWindow).expire(now, a.cfg.Window)
}

// touchLocked returns uid's window, admitting (and LRU-evicting) as needed.
// Caller holds a.mu.
func (a *Accountant) touchLocked(uid int64) *userWindow {
	if el, ok := a.users[uid]; ok {
		a.ll.MoveToFront(el)
		return el.Value.(*userWindow)
	}
	u := &userWindow{uid: uid}
	el := a.ll.PushFront(u)
	a.users[uid] = el
	for a.ll.Len() > a.cfg.MaxUsers {
		back := a.ll.Back()
		old := back.Value.(*userWindow)
		a.ll.Remove(back)
		delete(a.users, old.uid)
		a.evicted++
	}
	return u
}

// Stats snapshots the accountant's counters.
func (a *Accountant) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Stats{
		Users:        a.ll.Len(),
		Cap:          a.cfg.MaxUsers,
		LimitEps:     a.cfg.LimitEps,
		WindowS:      a.cfg.Window.Seconds(),
		Charges:      a.charges,
		Rejections:   a.rejections,
		EpsGranted:   a.granted,
		EvictedUsers: a.evicted,

		HandoffsExported:   a.handoffsExported,
		HandoffsImported:   a.handoffsImported,
		HandoffsRolledBack: a.handoffsRolledBack,
		HandoffDupes:       a.handoffDupes,
		EpsExported:        a.epsExported,
		EpsImported:        a.epsImported,
	}
}
