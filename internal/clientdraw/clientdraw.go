// Package clientdraw replays the server's exact draw sequence from a
// lease bundle, on the device. It is the client half of the draw-lease
// pipeline: internal/session.DetachLease serializes a session's
// customized rows plus stream coordinates (seed + position),
// internal/codec carries them as a bundle, and Open rebuilds them into a
// mechanism.Rows — the detached form of the server's row-serving
// abstraction, building the same Walker alias tables (internal/sample)
// over the same float64 weight vectors, equal inputs, equal tables. Draw i
// of a lease reads sample.Uniform(seed, position+i), the variate the
// server's session reads at that position, so the device-local sequence
// is byte-identical to what /v1/report, the stream transport, or an
// in-proc registry would have produced for the same seed, including
// across re-anchors (each lease carries the position its window starts
// at). A lease holds no generator: opening one at any position costs the
// same.
//
// The lease enforces its own draw cap client-side (ErrLeaseExhausted) —
// not as security (the token's HMAC and the server's pre-paid accounting
// are what cap a hostile client) but so an honest client renews instead
// of silently drawing past what it paid for. Error semantics mirror the
// server row for row — leaf→row resolution and refusals are literally the
// same mechanism code the server runs: a cell outside the leased subtree
// is ErrOutsideSubtree (renew at the new location), a draw from a row the
// server would refuse (pruned own location, degenerate row) fails without
// consuming a position.
//
// Who owns what. On the server a bundle is a set of views: its node lists
// are the session binding's and an unpruned binding's rows are the forest
// entry's matrix rows, read once by the encoder and never written (see
// codec.LeaseBundle). On the device everything is the lease's own, and a
// lease is one object for the life of a renewal chain: Open decodes the
// bundle bytes into the lease (node lists, row headers, every row in one
// arena, the mechanism.Rows over them, the alias tables it builds), and
// Renew decodes the next grant into the same lease and rebuilds its tables
// in place, growing its storage only when the new bundle is larger. The
// bundle bytes themselves are not retained, and the token is copied into
// a buffer of the lease's, which each Renew that succeeds reuses: a Lease
// shares no byte with its caller, so a grant decoded into a transport's
// shared buffer keeps nothing of that buffer alive. An error a draw
// returned is the caller's: the lease never writes it again, also across
// renewals.
//
// A Lease is safe for concurrent use; draws and renewals serialize under
// an internal mutex exactly as server-side sessions do.
package clientdraw

import (
	"errors"
	"fmt"
	"sync"

	"corgi/internal/budget"
	"corgi/internal/codec"
	"corgi/internal/loctree"
	"corgi/internal/mechanism"
	"corgi/internal/sample"
)

// ErrLeaseExhausted marks a draw attempted past the lease's pre-paid cap;
// the client must renew (POST /v1/lease with the old token) to continue.
var ErrLeaseExhausted = errors.New("clientdraw: lease draw cap exhausted")

// ExhaustedError is the ErrLeaseExhausted a refused draw carries: how far
// into its cap the lease was and how many draws were asked for. Running out
// is how a lease normally ends and callers test errors.Is before renewing,
// so the message is formatted only when it is read.
type ExhaustedError struct {
	Used, Cap, Asked int
}

func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("%v: %d of %d draws used, %d more requested", ErrLeaseExhausted, e.Used, e.Cap, e.Asked)
}

// Unwrap makes errors.Is(err, ErrLeaseExhausted) hold.
func (e *ExhaustedError) Unwrap() error { return ErrLeaseExhausted }

// ErrOutsideSubtree re-exports mechanism.ErrOutsideSubtree (the same
// sentinel session draws fail with): the true cell left the leased
// subtree, and the client must renew at the new location.
var ErrOutsideSubtree = mechanism.ErrOutsideSubtree

// Lease is an open draw lease: the detached mechanism rows with their
// lazily built alias tables, and the stream window it draws in. Create
// with Open; continue with Renew, which moves the same Lease to the next
// window.
type Lease struct {
	tree *loctree.Tree

	mu sync.Mutex
	// The window: the last grant that opened, written by Open and by each
	// Renew that succeeds.
	token    []byte
	tok      budget.LeaseToken
	degraded bool
	// bundle is the decoded grant and rows the mechanism rows over it,
	// with the alias tables they built; a failed Renew leaves them torn,
	// and used at the cap keeps them from being read.
	bundle codec.LeaseBundle
	rows   mechanism.Rows
	// used counts the window's draws: the next reads position
	// tok.RNGPos+used.
	used int
	// miss is the error of the window's first draw outside its subtree,
	// nil until then, and returned again for every later draw at that same
	// cell, so a user who left the subtree pays for it once; capped is the
	// same for the window's first draw past its cap, returned again for an
	// equal (Used, Cap, Asked). Each is a slot of a slab (misses and caps
	// hold the slots not yet handed out): a window takes the next slot, so
	// an error returned in an earlier window is never written again.
	miss   *mechanism.OutsideSubtreeError
	misses []mechanism.OutsideSubtreeError
	capped *ExhaustedError
	caps   []ExhaustedError
}

// refusalSlab is how many windows' first refusals of one kind one
// allocation holds.
const refusalSlab = 16

// Open decodes a lease grant's bundle and token. The lease's first draw
// reads the bundle's recorded position of its seed's stream, the variate
// the server's session reserved for it. The token is parsed
// (unauthenticated — the client holds no key) for the draw cap; tampering
// with it only breaks the client's own renewal. Neither slice is kept:
// bundle and token are only read during the call, and the lease hands back
// its own copy of the token from Token.
func Open(tree *loctree.Tree, bundle, token []byte) (*Lease, error) {
	if tree == nil {
		return nil, fmt.Errorf("clientdraw: nil tree")
	}
	l := &Lease{tree: tree}
	if err := l.load(bundle, token); err != nil {
		return nil, err
	}
	return l, nil
}

// Renew moves the lease to the next window, from a renewal grant, and
// returns it: the grant decodes into this lease's node lists, rows and
// arena, and alias tables rebuild into this lease's tables. The lease then
// draws from the grant's own position, wherever that is, and Root,
// Degraded and Token describe the new window. A Renew that fails returns
// nil and retires the lease: every draw reports exhausted, while Root,
// Degraded and Token still describe the window it was. Renewals of one
// lease serialize; the last one decides the window. bundle and token are
// only read during the call, as in Open; the token is copied into the
// lease's token buffer, over the bytes Token returned before.
func (l *Lease) Renew(bundle, token []byte) (*Lease, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.load(bundle, token); err != nil {
		return nil, err
	}
	return l, nil
}

// load decodes a grant into l as its window; caller holds l.mu or owns l
// alone. It retires the current window first, so on an error l draws
// nothing.
func (l *Lease) load(bundle, token []byte) error {
	l.used = l.tok.DrawCap
	b := &l.bundle
	if err := codec.DecodeLeaseBundleInto(b, bundle); err != nil {
		return err
	}
	// A token naming the region the last one named shares its string.
	tok, err := budget.DecodeLeaseToken(token, l.tok.Region)
	if err != nil {
		return err
	}
	if tok.RNGPos != b.RNGPos || tok.Root != b.Root {
		return fmt.Errorf("clientdraw: token and bundle disagree (root %v/%v, position %d/%d)",
			tok.Root, b.Root, tok.RNGPos, b.RNGPos)
	}
	if err := l.rows.Reset(l.tree, b.Root, b.PrecisionLevel, b.Pruned, b.Nodes, b.Rows); err != nil {
		return fmt.Errorf("clientdraw: %w", err)
	}
	l.token = append(l.token[:0], token...)
	l.tok, l.degraded, l.used = tok, b.Degraded, 0
	l.miss, l.capped = nil, nil
	return nil
}

// Token returns the signed lease token, for renewal: the lease's copy of
// the token Open or the last Renew that succeeded was given, to be sent,
// not written. The bytes are valid until the next Renew that succeeds,
// which copies its token over them.
func (l *Lease) Token() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.token
}

// Root returns the leased privacy subtree.
func (l *Lease) Root() loctree.NodeID {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tok.Root
}

// Degraded reports whether the leased rows came from a planar-Laplace
// fallback entry.
func (l *Lease) Degraded() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.degraded
}

// DrawCellNInto draws len(out) reports into a caller-owned slice. All
// checks run before any position is consumed — a refused draw (cap
// exhausted, cell outside the subtree, pruned own location, degenerate
// row) leaves the stream position untouched, exactly as the server's
// session does, so a client that renews after a refusal stays
// position-aligned with the server's accounting.
func (l *Lease) DrawCellNInto(leaf loctree.NodeID, out []loctree.NodeID) error {
	n := len(out)
	if n < 1 {
		return fmt.Errorf("clientdraw: draw count %d must be >= 1", n)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// A retired lease stops here: a failed Renew left its rows torn.
	if l.used+n > l.tok.DrawCap {
		return l.exhausted(n)
	}
	rows := &l.rows
	row, covered, err := rows.Resolve(leaf)
	if !covered {
		return l.outside(leaf)
	}
	if err != nil {
		return err
	}
	a, err := rows.Alias(row)
	if err != nil {
		return err
	}
	nodes, pos := rows.Nodes(), l.tok.RNGPos+uint64(l.used)
	for i := range out {
		out[i] = nodes[a.Pick(sample.Uniform(l.bundle.Seed, pos+uint64(i)))]
	}
	l.used += n
	return nil
}

// outside is the refusal of a draw at leaf, a cell outside the leased
// subtree; caller holds l.mu. The window's first miss is written into the
// next slot of the slab and a miss at the same cell returns it again. A
// miss at another cell gets an error of its own: a returned error is never
// rewritten, so two goroutines refused at two cells each read their own.
func (l *Lease) outside(leaf loctree.NodeID) error {
	if l.miss == nil {
		if len(l.misses) == 0 {
			l.misses = make([]mechanism.OutsideSubtreeError, refusalSlab)
		}
		l.miss, l.misses = &l.misses[0], l.misses[1:]
		*l.miss = mechanism.OutsideSubtreeError{Leaf: leaf, Root: l.tok.Root}
	}
	if l.miss.Leaf == leaf {
		return l.miss
	}
	return &mechanism.OutsideSubtreeError{Leaf: leaf, Root: l.tok.Root}
}

// exhausted is the refusal of n draws past the cap; caller holds l.mu. As
// in outside, the window's first is written into the next slot of its slab
// and returned again for an equal refusal, and any other gets its own.
func (l *Lease) exhausted(n int) error {
	e := ExhaustedError{Used: l.used, Cap: l.tok.DrawCap, Asked: n}
	if l.capped == nil {
		if len(l.caps) == 0 {
			l.caps = make([]ExhaustedError, refusalSlab)
		}
		l.capped, l.caps = &l.caps[0], l.caps[1:]
		*l.capped = e
	}
	if *l.capped == e {
		return l.capped
	}
	return &ExhaustedError{Used: e.Used, Cap: e.Cap, Asked: e.Asked}
}
