// Package session implements per-user report sessions: the stateful hot
// path of the report pipeline. A session binds one privacy-forest entry
// (the subtree covering the user's location), an evaluated customization
// policy <Privacy_l, Precision_l, User_Preferences> (Sec. 3.2), and a
// seeded RNG, and then serves obfuscated-location draws in O(1) per report
// via Walker alias tables (internal/sample).
//
// The customization itself — preference pruning, Sec. 4.3 renormalization,
// Equ. 17 precision grouping — lives in internal/mechanism: a session is
// one mechanism.Binding plus the RNG stream and draw counters. The binding
// works row-wise: it prunes and renormalizes only the rows the drawn-from
// distribution actually depends on, builds the alias table for that row
// once, and caches it for every subsequent draw. The full n x n customized
// matrix never exists, which is what makes the per-report cost independent
// of how many distinct users a server is tracking.
//
// Sessions are mobility-aware: a session is the user's stream, not the
// subtree's. When a moving user's reported cell leaves the bound subtree,
// Rebind swaps in the forest entry covering the new location — re-pruning
// under the carried-forward policy — while the RNG stream keeps advancing
// uninterrupted. A seeded session replaying the same move sequence
// therefore yields the same draw sequence regardless of how many subtree
// boundaries the trajectory crosses, which is what keeps the /v1/report
// equivalence guarantee alive for trajectories, not just fixed cells.
//
// Sessions are safe for concurrent use: the internal *rand.Rand and which
// binding is live are serialized under the session mutex. The binding
// itself may be shared: one that prunes nothing belongs to the forest entry
// and serves every such session of it (mechanism.Bind), so what a session
// owns is its RNG stream, its attribute anchor, and the pointer. Draw
// sequences are deterministic per seed.
package session

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"corgi/internal/codec"
	"corgi/internal/geo"
	"corgi/internal/loctree"
	"corgi/internal/mechanism"
	"corgi/internal/policy"
)

// ErrUnsampleable re-exports mechanism.ErrUnsampleable: a draw that failed
// because the matrix data cannot support it — a row degenerate after
// pruning, or an alias build over a zero-mass row. These are server-side
// data conditions, not request faults: the serving layer maps them to 5xx,
// unlike the ErrBadReport family of caller mistakes.
var ErrUnsampleable = mechanism.ErrUnsampleable

// ErrOutsideSubtree re-exports mechanism.ErrOutsideSubtree: a draw for a
// cell the session's current binding does not cover. Under mobility this
// is retryable: a concurrent request on the same (uid, seed, policy)
// stream may have re-anchored the shared session between the caller's
// binding check and its draw, and registry.Report re-anchors and retries
// on it instead of failing the request.
var ErrOutsideSubtree = mechanism.ErrOutsideSubtree

// Config binds everything one report session needs.
type Config struct {
	// Tree is the region's location tree.
	Tree *loctree.Tree
	// Entry is the privacy-forest entry (any mechanism.Source) for the
	// subtree that covers the user's true location at Policy.PrivacyLevel.
	Entry mechanism.Source
	// Delta is the prune budget Entry was generated with (Forest.Delta);
	// New verifies the policy's prune set fits it.
	Delta int
	// Policy is the user's customization triple.
	Policy policy.Policy
	// Attrs provides per-leaf attributes for preference evaluation; nil is
	// fine when the policy has no preferences.
	Attrs map[loctree.NodeID]policy.Attributes
	// Pruned, when non-nil, is the precomputed prune set — the Entry
	// leaves failing Policy.Preferences — and New skips re-evaluating
	// them (callers like registry.Report already evaluated once to size
	// delta; an empty-but-non-nil slice means "evaluated, nothing
	// pruned"). Leave nil to have New evaluate Preferences over Attrs.
	Pruned []loctree.NodeID
	// Anchor records the true cell the preference attributes were
	// evaluated at (the "distance" attribute is relative to the user's
	// location). The mobility layer compares it against the current report
	// cell to decide when a preference-bearing session must re-anchor even
	// inside one subtree. Zero for preference-free policies.
	Anchor loctree.NodeID
	// Priors supplies leaf priors for precision reduction (Equ. 17);
	// required when Policy.PrecisionLevel > 0.
	Priors *loctree.Priors
	// Seed initializes the session RNG; equal seeds yield equal draw
	// sequences.
	Seed int64
	// Epsilon is the Geo-Ind budget the entry was generated under,
	// surfaced in Meta. Metadata only: it never changes a weight.
	Epsilon float64
}

// Rebind re-anchors a live session onto a new forest entry (see
// Session.Rebind); it is Config minus the per-session immutables.
type Rebind struct {
	// Entry is the forest entry covering the user's new location at the
	// session policy's privacy level.
	Entry mechanism.Source
	// Delta is the prune budget Entry was generated with.
	Delta int
	// Attrs / Pruned mirror Config: the prune set over Entry's leaves,
	// precomputed or evaluated here from Attrs.
	Attrs  map[loctree.NodeID]policy.Attributes
	Pruned []loctree.NodeID
	// Anchor is the new attribute anchor cell (zero when preference-free).
	Anchor loctree.NodeID
}

// Session is one user's bound report stream. Create with New.
type Session struct {
	tree    *loctree.Tree
	pol     policy.Policy
	priors  *loctree.Priors
	seed    int64
	epsilon float64

	mu sync.Mutex
	b  *mechanism.Binding
	// anchor is the cell this user's preferences were last evaluated at. It
	// is the session's, not the binding's: users whose preferences prune
	// nothing share one binding whatever cell each was evaluated at.
	anchor loctree.NodeID
	rng    *rand.Rand

	draws     atomic.Uint64
	reanchors atomic.Uint64
}

// bind evaluates the policy against one forest entry through the shared
// mechanism implementation (step 2-3 of Fig. 8, the Sec. 5.3 δ admission
// check, and the report node set). No alias table is built yet — rows
// build lazily on first draw.
func (s *Session) bind(entry mechanism.Source, delta int, pruned []loctree.NodeID,
	attrs map[loctree.NodeID]policy.Attributes) (*mechanism.Binding, error) {
	return mechanism.Bind(mechanism.Config{
		Tree:    s.tree,
		Source:  entry,
		Delta:   delta,
		Policy:  s.pol,
		Attrs:   attrs,
		Pruned:  pruned,
		Priors:  s.priors,
		Epsilon: s.epsilon,
	})
}

// New validates the policy, prepares the initial binding, and seeds the
// RNG stream the session keeps for its whole life — including across
// Rebind re-anchors.
func New(cfg Config) (*Session, error) {
	if cfg.Tree == nil {
		return nil, fmt.Errorf("session: nil tree")
	}
	if err := cfg.Policy.Validate(cfg.Tree.Height()); err != nil {
		return nil, err
	}
	if cfg.Policy.PrecisionLevel > 0 && cfg.Priors == nil {
		return nil, fmt.Errorf("session: precision level %d needs priors", cfg.Policy.PrecisionLevel)
	}
	s := &Session{
		tree:    cfg.Tree,
		pol:     cfg.Policy,
		priors:  cfg.Priors,
		seed:    cfg.Seed,
		epsilon: cfg.Epsilon,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
	b, err := s.bind(cfg.Entry, cfg.Delta, cfg.Pruned, cfg.Attrs)
	if err != nil {
		return nil, err
	}
	s.b, s.anchor = b, cfg.Anchor
	return s, nil
}

// Rebind re-anchors the session onto a new forest entry — the mobility
// move: the policy, seed, and RNG position carry forward untouched, only
// the subtree binding (prune set, report node set, alias cache) is
// replaced: by the entry's own when the prune set is empty, by a freshly
// built one otherwise. The binding is found or assembled outside the
// session lock, so in-flight draws against the old subtree finish on the
// old binding; a failed rebind leaves the session exactly as it was.
func (s *Session) Rebind(r Rebind) error {
	b, err := s.bind(r.Entry, r.Delta, r.Pruned, r.Attrs)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.b, s.anchor = b, r.Anchor
	s.mu.Unlock()
	s.reanchors.Add(1)
	return nil
}

// Bound is what a session was bound to at one instant: the subtree, the
// attribute anchor, and the two facts about the binding a report result
// carries. Read together under one lock acquisition, they describe one
// binding; Root, Anchor and Pruned read them one at a time.
type Bound struct {
	// Root is the bound subtree's root.
	Root loctree.NodeID
	// Anchor is the cell the preferences were evaluated at (zero for
	// preference-free policies).
	Anchor loctree.NodeID
	// Pruned is how many leaves the preferences removed.
	Pruned int
	// Degraded is true when the rows are a planar-Laplace fallback's.
	Degraded bool
}

// Moved reports whether an ask at leaf under root with pol must re-anchor
// a session bound to b: it left the bound subtree, or its policy has
// preferences and it left the cell they were evaluated at.
func (b Bound) Moved(root, leaf loctree.NodeID, pol policy.Policy) bool {
	return b.Root != root || (len(pol.Preferences) > 0 && b.Anchor != leaf)
}

// bound snapshots the current binding. Caller holds s.mu.
func (s *Session) bound() Bound {
	return Bound{
		Root:     s.b.Root(),
		Anchor:   s.anchor,
		Pruned:   len(s.b.Pruned()),
		Degraded: s.b.Source().IsDegraded(),
	}
}

// Bound returns what the session is bound to right now.
func (s *Session) Bound() Bound {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bound()
}

// Upgrade swaps the session's degraded binding for one backed by the
// LP-optimal entry that replaced it, without disturbing the RNG stream or
// the re-anchor counter: the swap is invisible to the draw sequence's
// position (each alias draw consumes exactly one RNG value regardless of
// which matrix backs it), so a session that started on the fallback and
// upgraded mid-stream stays seed-deterministic from the swap onward.
//
// Upgrade is a no-op (returning false) unless the current binding is
// degraded and entry covers the same subtree root; the prune set and
// attribute anchor carry forward unchanged, since preferences were
// evaluated against the same leaf set. A concurrent Rebind between the
// degraded check and the swap also aborts the upgrade — the session has
// moved on, and the new subtree's own entry governs. (A session that left
// and came back to the same degraded entry's shared binding in that window
// is indistinguishable from one that never left, and upgrades: it is bound
// to the entry this one replaces either way.)
func (s *Session) Upgrade(entry mechanism.Source, delta int) (bool, error) {
	if entry == nil || entry.Dim() == 0 || entry.IsDegraded() {
		return false, nil
	}
	s.mu.Lock()
	cur := s.b
	s.mu.Unlock()
	if !cur.Source().IsDegraded() || cur.Root() != entry.SubtreeRoot() {
		return false, nil
	}
	pruned := cur.Pruned()
	if pruned == nil {
		// Non-nil means "already evaluated, nothing pruned": the bind must
		// not re-run preference evaluation (the attrs are long gone).
		pruned = []loctree.NodeID{}
	}
	b, err := s.bind(entry, delta, pruned, nil)
	if err != nil {
		return false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.b != cur {
		return false, nil // lost a race with Rebind or another Upgrade
	}
	s.b = b
	return true, nil
}

// Root returns the subtree root of the current binding.
func (s *Session) Root() loctree.NodeID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Root()
}

// Anchor returns the cell the preferences were evaluated at for the
// current binding (zero for preference-free policies).
func (s *Session) Anchor() loctree.NodeID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.anchor
}

// Pruned returns the leaves the policy's preferences removed under the
// current binding.
func (s *Session) Pruned() []loctree.NodeID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Pruned()
}

// Draws reports how many reports the session has served.
func (s *Session) Draws() uint64 { return s.draws.Load() }

// Reanchors reports how many times the session re-anchored onto a new
// subtree.
func (s *Session) Reanchors() uint64 { return s.reanchors.Load() }

// Draw locates the true position's leaf cell and draws one obfuscated
// report node. The cell must belong to the session's current subtree; a
// cell the user's own preferences pruned is an error at leaf precision
// (there is no row to draw from), matching Algorithm 4.
func (s *Session) Draw(real geo.LatLng) (loctree.NodeID, error) {
	leaf, ok := s.tree.Locate(real, 0)
	if !ok {
		return loctree.NodeID{}, fmt.Errorf("session: location %v outside the region", real)
	}
	var out [1]loctree.NodeID
	err := s.DrawCellNInto(leaf, out[:])
	return out[0], err
}

// DrawCellNInto draws len(out) reports for one true cell into a
// caller-owned slice, as one atomic sequence: the session mutex is held
// across all the draws, so concurrent requests sharing a session (batch
// items with the same uid/seed/policy) cannot interleave inside another
// request's sequence — each Count-N response is a contiguous slice of the
// session's deterministic stream. The serving layer recycles the slices
// (sync.Pool) instead of allocating per request.
func (s *Session) DrawCellNInto(leaf loctree.NodeID, out []loctree.NodeID) error {
	_, err := s.DrawCellNBound(leaf, out)
	return err
}

// DrawCellNBound is DrawCellNInto returning, with the draws, the binding
// they came from. A concurrent request on the same stream may re-anchor the
// session at any moment outside the lock, so a caller that reports facts
// about the binding beside the draws (registry.Report's Pruned and
// Degraded) must take them from here, not from a second call.
func (s *Session) DrawCellNBound(leaf loctree.NodeID, out []loctree.NodeID) (Bound, error) {
	if len(out) < 1 {
		return Bound{}, fmt.Errorf("session: draw count %d must be >= 1", len(out))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.b
	row, err := b.RowFor(leaf)
	if err != nil {
		return Bound{}, err
	}
	a, err := b.Alias(row)
	if err != nil {
		return Bound{}, err
	}
	nodes := b.Nodes()
	for i := range out {
		out[i] = nodes[a.Draw(s.rng)]
	}
	s.draws.Add(uint64(len(out)))
	return s.bound(), nil
}

// DetachLease serializes the session's current binding into a lease bundle
// a client can draw from without the server: the exact per-row weight
// vectors (full float64 precision — quantizing would shift alias
// thresholds and break draw equivalence), the report node set, the prune
// set, and the RNG coordinates (seed + position). It then burns n variates
// from the session's own RNG stream, pre-advancing it past the leased
// window: the resident stream and the client's detached stream never
// overlap, and a later server-side draw continues exactly where an
// n-draw client that used its whole cap would have left the stream.
// (A client that draws fewer than n forfeits the unused positions — the
// privacy-conservative direction, mirroring how its pre-paid epsilon is
// forfeited.)
//
// The bundle is made to be encoded and dropped, so it copies nothing that
// outlives it anyway: Nodes and Pruned are the binding's own slices and an
// unpruned leaf-precision binding's Rows are the entry's matrix rows
// (mechanism.Binding.DetachRows). Both stay valid and unchanged after the
// session lock is released, because a published entry's matrix is never
// written, a binding (shared or this session's own) is never edited after
// Bind, and Rebind/Upgrade replace the session's binding instead of
// editing it. Callers read the bundle; they must not write through it.
//
// Rows the live path would refuse (degenerate after pruning) come back as
// empty rows: the client errors on them without consuming RNG, exactly as
// the server does when the alias build fails.
//
// leaf anchors the detach the way it anchors a draw: if the current
// binding does not cover it (a concurrent request re-anchored the shared
// session), DetachLease fails with ErrOutsideSubtree before burning any
// variate, so the caller's re-anchor-and-retry loop keeps the stream
// position exact — the same contract DrawCellNInto gives the report path.
//
// DetachLease allocates the bundle, its row headers and, for pruned or
// precision rows, the array they are computed into; DetachLeaseInto is the
// same detach into storage the caller keeps.
func (s *Session) DetachLease(leaf loctree.NodeID, n int) (*codec.LeaseBundle, error) {
	bundle := new(codec.LeaseBundle)
	if _, err := s.DetachLeaseInto(bundle, nil, leaf, n); err != nil {
		return nil, err
	}
	return bundle, nil
}

// DetachLeaseInto is DetachLease into bundle, whose every field it sets:
// the row headers are written into bundle.Rows' array and pruned or
// precision rows computed into arena's, each reused when long enough. It
// returns the arena, grown or not, for the next detach into the same
// storage; a detach no larger than the last one allocates nothing. On an
// error bundle holds nothing a caller may use.
func (s *Session) DetachLeaseInto(bundle *codec.LeaseBundle, arena []float64, leaf loctree.NodeID, n int) ([]float64, error) {
	if n < 1 {
		return arena, fmt.Errorf("session: lease draw cap %d must be >= 1", n)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.b
	if !b.Covers(leaf) {
		return arena, &mechanism.OutsideSubtreeError{Leaf: leaf, Root: b.Root()}
	}
	rows, arena, err := b.DetachRows(bundle.Rows, arena)
	if err != nil {
		return arena, err
	}
	*bundle = codec.LeaseBundle{
		Root:           b.Root(),
		PrecisionLevel: s.pol.PrecisionLevel,
		Degraded:       b.Source().IsDegraded(),
		Seed:           s.seed,
		RNGPos:         s.draws.Load(),
		Pruned:         b.Pruned(),
		Nodes:          b.Nodes(),
		Rows:           rows,
	}
	for i := 0; i < n; i++ {
		s.rng.Float64()
	}
	s.draws.Add(uint64(n))
	return arena, nil
}

// FastForward advances the session's RNG stream to absolute position pos
// (a draws-consumed count — every alias draw and every leased position
// consumes exactly one variate). It is forward-only: a position at or
// behind the current one is a no-op, never a rewind. The lease pipeline
// uses it to rebuild stream continuity after a session eviction — a
// renewal token carries the position its lease ends at, and a freshly
// re-created session fast-forwards there before detaching the next lease.
func (s *Session) FastForward(pos uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.draws.Load()
	for ; cur < pos; cur++ {
		s.rng.Float64()
		s.draws.Add(1)
	}
}

// Key addresses one session in a Manager: the region, the caller's user
// id, the draw seed, and the policy fingerprint. The key deliberately
// excludes the subtree and the true cell — a session is the user's
// continuous stream, and mobility (changing subtree, changing attribute
// anchor) is handled by re-anchoring the resident session rather than
// keying a new one, which is what keeps one seeded RNG stream running
// across a whole trajectory. Anything that changes the draw distribution
// irreconcilably (the policy, the seed) remains part of the key, so a
// stale session can never serve a changed policy.
type Key struct {
	Region string
	UID    int64
	Seed   int64
	Policy Fingerprint
}

// Fingerprint is a policy's digest for session keying: fixed-size and
// comparable, so it sits in Key by value. It is keyed by a per-process
// random seed and therefore means nothing outside this process — it is
// never logged, persisted or sent.
type Fingerprint [2]uint64

// fingerprintSeeds key the two independent 64-bit halves of a Fingerprint.
// Clients choose their policies, so the hash must not be one they can
// compute collisions for offline: a collision would serve one policy from
// another policy's session.
var fingerprintSeeds = [2]maphash.Seed{maphash.MakeSeed(), maphash.MakeSeed()}

// PolicyFingerprint returns a stable digest of a policy for session
// keying. Two policies with identical levels and identical preference
// lists (order-sensitive, as the wire carries them) share a fingerprint; a
// nil and an empty preference list are the same policy.
//
// The digest hashes a canonical encoding in which every variable-length
// field carries its length, so no two distinct policies encode alike. The
// encoding is built in a stack buffer: fingerprinting allocates nothing
// unless the preferences outgrow it.
func PolicyFingerprint(pol policy.Policy) Fingerprint {
	var stack [256]byte
	buf := binary.AppendVarint(stack[:0], int64(pol.PrivacyLevel))
	buf = binary.AppendVarint(buf, int64(pol.PrecisionLevel))
	buf = binary.AppendUvarint(buf, uint64(len(pol.Preferences)))
	for _, p := range pol.Preferences {
		buf = binary.AppendUvarint(buf, uint64(len(p.Var)))
		buf = append(buf, p.Var...)
		buf = append(buf, byte(p.Op))
		// A value is its kind's payload alone, as on the wire: String("1")
		// and Number(1) differ, stray fields of another kind do not count.
		switch p.Val.Kind {
		case policy.KindString:
			buf = append(buf, 's')
			buf = binary.AppendUvarint(buf, uint64(len(p.Val.S)))
			buf = append(buf, p.Val.S...)
		case policy.KindNumber:
			buf = append(buf, 'n')
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(p.Val.F))
		default:
			buf = append(buf, 'b')
			if p.Val.B {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
	}
	return Fingerprint{
		maphash.Bytes(fingerprintSeeds[0], buf),
		maphash.Bytes(fingerprintSeeds[1], buf),
	}
}
