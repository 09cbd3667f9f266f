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
// codec.LeaseBundle). On the device everything is the lease's own, and it
// is handed down a renewal chain rather than made anew: Open decodes the
// bundle bytes into fresh storage (node lists, row headers, every row in
// one arena, the mechanism.Rows over them, the alias tables it builds),
// and Renew moves the retired lease's storage into the new lease, which
// decodes and rebuilds into it, growing it only when the new bundle is
// larger. Storage belongs to one lease at a time, and a retired lease never
// reads it again. The bundle bytes themselves are not retained. The one
// slice a Lease shares with its caller is the token, kept as given for the
// next renewal.
//
// A Lease is safe for concurrent use; draws serialize under an internal
// mutex exactly as server-side sessions do.
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
// with Open; continue with Renew.
type Lease struct {
	tree     *loctree.Tree
	token    []byte
	tok      budget.LeaseToken
	root     loctree.NodeID
	degraded bool
	seed     int64

	mu sync.Mutex
	// st is this lease's alone until Renew hands it to the next lease,
	// which leaves it nil here and the lease retired.
	st *storage
	// used counts the draws taken: the next reads position tok.RNGPos+used.
	used int
	// miss is the error of the lease's first draw outside its subtree,
	// written once (missed) and returned again for every later draw at
	// that same cell, so a user who left the subtree pays for it once.
	miss   mechanism.OutsideSubtreeError
	missed bool
}

// storage is what a lease draws from: the decoded bundle (node lists, row
// headers, row arena) and the rows over it with the alias tables they
// built. Renew hands it down a chain of leases, each decoding and building
// into what the one before it held.
type storage struct {
	bundle codec.LeaseBundle
	rows   mechanism.Rows
}

// Open decodes a lease grant's bundle and token. The lease's first draw
// reads the bundle's recorded position of its seed's stream, the variate
// the server's session reserved for it. The token is parsed
// (unauthenticated — the client holds no key) for the draw cap; tampering
// with it only breaks the client's own renewal. The lease keeps token, not
// a copy, and hands it back from Token: the caller must not write it
// afterwards. bundle is only read during the call.
func Open(tree *loctree.Tree, bundle, token []byte) (*Lease, error) {
	return open(tree, nil, "", bundle, token)
}

// open is Open and Renew: decode the grant into st (fresh storage when
// nil). region is the region the token is expected to name; a token naming
// it shares that string.
func open(tree *loctree.Tree, st *storage, region string, bundle, token []byte) (*Lease, error) {
	if tree == nil {
		return nil, fmt.Errorf("clientdraw: nil tree")
	}
	if st == nil {
		st = new(storage)
	}
	b := &st.bundle
	if err := codec.DecodeLeaseBundleInto(b, bundle); err != nil {
		return nil, err
	}
	tok, err := budget.DecodeLeaseToken(token, region)
	if err != nil {
		return nil, err
	}
	if tok.RNGPos != b.RNGPos || tok.Root != b.Root {
		return nil, fmt.Errorf("clientdraw: token and bundle disagree (root %v/%v, position %d/%d)",
			tok.Root, b.Root, tok.RNGPos, b.RNGPos)
	}
	if err := st.rows.Reset(tree, b.Root, b.PrecisionLevel, b.Pruned, b.Nodes, b.Rows); err != nil {
		return nil, fmt.Errorf("clientdraw: %w", err)
	}
	return &Lease{
		tree:     tree,
		token:    token,
		tok:      tok,
		root:     b.Root,
		degraded: b.Degraded,
		seed:     b.Seed,
		st:       st,
	}, nil
}

// Renew opens the next lease window from a renewal grant and retires this
// lease: from then on its draws report exhausted, while Root, Degraded and
// Token still describe the window it was. The first Renew of a lease hands
// the new one its storage, which saves the allocations: the grant decodes
// into this lease's node lists, rows and arena, and alias tables rebuild
// into this lease's tables. Every later Renew of the same lease has
// nothing left to hand over and decodes into fresh storage, as Open does.
// The new lease draws from the grant's own position, wherever that is. A
// Renew that fails retires this lease all the same. bundle and token are
// held as in Open.
func (l *Lease) Renew(bundle, token []byte) (*Lease, error) {
	l.mu.Lock()
	st := l.st
	l.st = nil
	l.used = l.tok.DrawCap
	l.mu.Unlock()
	return open(l.tree, st, l.tok.Region, bundle, token)
}

// Token returns the signed lease token, for renewal: the slice Open or
// Renew was given, to be sent, not written.
func (l *Lease) Token() []byte { return l.token }

// Root returns the leased privacy subtree.
func (l *Lease) Root() loctree.NodeID { return l.root }

// Degraded reports whether the leased rows came from a planar-Laplace
// fallback entry.
func (l *Lease) Degraded() bool { return l.degraded }

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
	// A retired lease stops here: its storage is the next lease's now.
	if l.used+n > l.tok.DrawCap {
		return &ExhaustedError{Used: l.used, Cap: l.tok.DrawCap, Asked: n}
	}
	rows := &l.st.rows
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
		out[i] = nodes[a.Pick(sample.Uniform(l.seed, pos+uint64(i)))]
	}
	l.used += n
	return nil
}

// outside is the refusal of a draw at leaf, a cell outside the leased
// subtree; caller holds l.mu. The lease's first miss is written into l.miss
// and a miss at the same cell returns it again. A miss at another cell
// gets an error of its own: a returned error is never rewritten, so two
// goroutines refused at two cells each read their own.
func (l *Lease) outside(leaf loctree.NodeID) error {
	if !l.missed {
		l.miss, l.missed = mechanism.OutsideSubtreeError{Leaf: leaf, Root: l.root}, true
	}
	if l.miss.Leaf == leaf {
		return &l.miss
	}
	return &mechanism.OutsideSubtreeError{Leaf: leaf, Root: l.root}
}
