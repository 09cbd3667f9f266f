package clientdraw

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"corgi/internal/budget"
	"corgi/internal/codec"
	"corgi/internal/core"
	"corgi/internal/geo"
	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
	"corgi/internal/obf"
	"corgi/internal/policy"
	"corgi/internal/session"
)

// leaseWorld is two privacy subtrees of one tree with synthetic matrices, and
// a pair of sessions on one seed: `leased` hands out leases the way
// registry.Lease does, `resident` draws server-side. Every lease draw must
// equal the resident draw at the same stream position.
type leaseWorld struct {
	t                *testing.T
	tree             *loctree.Tree
	entryA, entryB   *core.ForestEntry
	leased, resident *session.Session
	keys             *budget.Keyring
}

// entryOver builds a row-stochastic entry over root's leaves. Row 0 puts
// all but a 1e-12 share of its mass on column 1: pruning leaf 1 leaves
// row 0 too little mass to renormalize.
func entryOver(t *testing.T, tree *loctree.Tree, root loctree.NodeID, seed int64) *core.ForestEntry {
	t.Helper()
	leaves := tree.LeavesUnder(root)
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, len(leaves))
	for i := range rows {
		rows[i] = make([]float64, len(leaves))
		total := 0.0
		for j := range rows[i] {
			rows[i][j] = 0.01 + rng.Float64()
			if i == 0 && j != 1 {
				rows[i][j] = 1e-13
			}
			total += rows[i][j]
		}
		for j := range rows[i] {
			rows[i][j] /= total
		}
	}
	m, err := obf.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return &core.ForestEntry{Root: root, Leaves: leaves, Matrix: m}
}

func newLeaseWorld(t *testing.T, pol policy.Policy, pruned []int) *leaseWorld {
	t.Helper()
	sys, err := hexgrid.NewSystem(geo.SanFrancisco.Center(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := loctree.NewAt(sys, geo.SanFrancisco.Center(), 3)
	if err != nil {
		t.Fatal(err)
	}
	w := &leaseWorld{t: t, tree: tree}
	roots := tree.LevelNodes(pol.PrivacyLevel)
	w.entryA, w.entryB = entryOver(t, tree, roots[0], 5), entryOver(t, tree, roots[1], 6)
	if w.keys, err = budget.NewKeyring([]byte("clientdraw test secret")); err != nil {
		t.Fatal(err)
	}
	prune := []loctree.NodeID{}
	for _, p := range pruned {
		prune = append(prune, w.entryA.Leaves[p])
	}
	for _, s := range []**session.Session{&w.leased, &w.resident} {
		*s, err = session.New(session.Config{Tree: tree, Entry: w.entryA, Delta: len(prune), Policy: pol,
			Pruned: prune, Priors: loctree.UniformPriors(tree), Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// grant detaches an n-draw lease at leaf and signs its token, as
// registry.Lease does.
func (w *leaseWorld) grant(leaf loctree.NodeID, n int) (bundle, token []byte) {
	w.t.Helper()
	b, err := w.leased.DetachLease(leaf, n)
	if err != nil {
		w.t.Fatal(err)
	}
	if bundle, err = codec.EncodeLeaseBundle(b); err != nil {
		w.t.Fatal(err)
	}
	return bundle, w.keys.Sign(budget.LeaseToken{UID: 1, Region: "r", Root: b.Root, Delta: len(b.Pruned),
		Eps: 1, DrawCap: n, RNGPos: b.RNGPos, ExpiresAt: 1 << 50})
}

// open opens a fresh lease of n draws at leaf.
func (w *leaseWorld) open(leaf loctree.NodeID, n int) *Lease {
	w.t.Helper()
	bundle, token := w.grant(leaf, n)
	l, err := Open(w.tree, bundle, token)
	if err != nil {
		w.t.Fatal(err)
	}
	return l
}

// same draws n reports at leaf from the lease and from the resident
// session and requires them equal.
func (w *leaseWorld) same(l *Lease, leaf loctree.NodeID, n int) {
	w.t.Helper()
	got := make([]loctree.NodeID, n)
	if err := l.DrawCellNInto(leaf, got); err != nil {
		w.t.Fatal(err)
	}
	want := make([]loctree.NodeID, n)
	if err := w.resident.DrawCellNInto(leaf, want); err != nil {
		w.t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			w.t.Fatalf("draw %d at %v: lease %v, resident session %v", i, leaf, got[i], want[i])
		}
	}
}

// used requires that l has served exactly n of its drawCap draws: asking
// for one more than the rest is refused with that count, and consumes
// nothing.
func (w *leaseWorld) used(l *Lease, n, drawCap int) {
	w.t.Helper()
	var spent *ExhaustedError
	err := l.DrawCellNInto(w.entryA.Leaves[0], make([]loctree.NodeID, drawCap-n+1))
	if !errors.As(err, &spent) || *spent != (ExhaustedError{Used: n, Cap: drawCap, Asked: drawCap - n + 1}) {
		w.t.Fatalf("asking past the cap: %v, want %d of %d used", err, n, drawCap)
	}
}

// TestLeaseDrawsWhatTheSessionDraws walks one stream through an opened
// lease, a renewal inside the subtree, a refusal outside it, and a renewal
// after the re-anchor, at leaf precision and at a coarser one.
func TestLeaseDrawsWhatTheSessionDraws(t *testing.T) {
	for _, pol := range []policy.Policy{{PrivacyLevel: 1}, {PrivacyLevel: 2, PrecisionLevel: 1}} {
		w := newLeaseWorld(t, pol, nil)
		a, b := w.entryA.Leaves, w.entryB.Leaves

		if _, err := Open(w.tree, nil, nil); err == nil {
			t.Fatal("Open accepted an empty grant")
		}
		l := w.open(a[2], 4)
		if l.Root() != w.entryA.Root {
			t.Fatalf("lease over %v, granted at %v", l.Root(), w.entryA.Root)
		}
		for _, cell := range []loctree.NodeID{b[0], w.entryA.Root} { // a leaf of another subtree, a non-leaf
			if err := l.DrawCellNInto(cell, make([]loctree.NodeID, 1)); !errors.Is(err, ErrOutsideSubtree) {
				t.Fatalf("draw at %v: %v, want ErrOutsideSubtree", cell, err)
			}
		}
		w.same(l, a[2], 1)
		w.same(l, a[len(a)-1], 3) // another row of the same lease
		err := l.DrawCellNInto(a[2], make([]loctree.NodeID, 1))
		var spent *ExhaustedError
		if !errors.Is(err, ErrLeaseExhausted) || !errors.As(err, &spent) || *spent != (ExhaustedError{Used: 4, Cap: 4, Asked: 1}) ||
			err.Error() != "clientdraw: lease draw cap exhausted: 4 of 4 draws used, 1 more requested" {
			t.Fatalf("draw past the cap: %v", err)
		}

		// The renewal continues the handed-over stream.
		l, err = l.Renew(w.grant(a[3], 4))
		if err != nil {
			t.Fatal(err)
		}
		w.same(l, a[3], 2)

		// The user leaves the subtree: refused, and nothing consumed.
		if err := l.DrawCellNInto(b[1], make([]loctree.NodeID, 1)); !errors.Is(err, ErrOutsideSubtree) {
			t.Fatalf("draw outside the leased subtree: %v", err)
		}
		w.used(l, 2, 4)

		// Both sessions re-anchor; the server burned the old window's two
		// unused draws, and so must the resident stream.
		for _, s := range []*session.Session{w.leased, w.resident} {
			if err := s.Rebind(session.Rebind{Entry: w.entryB, Pruned: []loctree.NodeID{}}); err != nil {
				t.Fatal(err)
			}
		}
		w.resident.FastForward(w.leased.Draws())
		l, err = l.Renew(w.grant(b[1], 3))
		if err != nil {
			t.Fatal(err)
		}
		w.same(l, b[1], 3)

		// A lease opened from scratch at the same position draws the same.
		w.same(w.open(b[4], 2), b[4], 2)
	}
}

// TestLeaseRefusesWhatTheSessionRefuses: with leaf 1 pruned, row 0 is
// degenerate and ships empty; the lease refuses it as the session does,
// without consuming a variate, and the user's own pruned cell has no row.
func TestLeaseRefusesWhatTheSessionRefuses(t *testing.T) {
	w := newLeaseWorld(t, policy.Policy{PrivacyLevel: 1}, []int{1})
	a := w.entryA.Leaves
	l := w.open(a[3], 6)
	w.same(l, a[3], 2)
	one := make([]loctree.NodeID, 1)
	if err := l.DrawCellNInto(a[0], one); !errors.Is(err, session.ErrUnsampleable) {
		t.Fatalf("lease draw from the degenerate row: %v", err)
	}
	if err := w.resident.DrawCellNInto(a[0], one); !errors.Is(err, session.ErrUnsampleable) {
		t.Fatalf("session draw from the degenerate row: %v", err)
	}
	if err := l.DrawCellNInto(a[1], one); err == nil || errors.Is(err, session.ErrUnsampleable) || errors.Is(err, ErrOutsideSubtree) {
		t.Fatalf("lease draw from the user's own pruned cell: %v", err)
	}
	if err := w.resident.DrawCellNInto(a[1], one); err == nil {
		t.Fatal("session drew from the user's own pruned cell")
	}
	w.used(l, 2, 6)
	w.same(l, a[4], 4) // still aligned after the refusals
}

// TestRenewHandsOverOnce renews one lease twice, as two goroutines that
// both saw it run out would: one after the other, then at once. The first
// Renew hands over the lease's stream and storage; the second has nothing
// left to hand over and seeds its own stream, as Open does. So each
// successor draws exactly what a fresh Open of its own grant draws, neither
// shares a stream or storage with the other, and the renewed lease draws
// nothing more.
func TestRenewHandsOverOnce(t *testing.T) {
	w := newLeaseWorld(t, policy.Policy{PrivacyLevel: 1}, nil)
	leaf := w.entryA.Leaves[2]
	type grant struct{ bundle, token []byte }
	draw := func(l *Lease) []loctree.NodeID {
		out := make([]loctree.NodeID, 4)
		if err := l.DrawCellNInto(leaf, out); err != nil {
			t.Error(err)
		}
		return out
	}
	// opened draws what a fresh Open of g draws.
	opened := func(g grant) []loctree.NodeID {
		l, err := Open(w.tree, g.bundle, g.token)
		if err != nil {
			t.Fatal(err)
		}
		return draw(l)
	}
	check := func(how string, l *Lease, gs [2]grant, got [2][]loctree.NodeID) {
		t.Helper()
		for i, g := range gs {
			if want := opened(g); !slices.Equal(got[i], want) {
				t.Errorf("%s: renewal %d drew %v, a fresh Open of its grant %v", how, i, got[i], want)
			}
		}
		if err := l.DrawCellNInto(leaf, make([]loctree.NodeID, 1)); !errors.Is(err, ErrLeaseExhausted) {
			t.Errorf("%s: the renewed lease drew again: %v", how, err)
		}
	}
	grants := func() (gs [2]grant) {
		for i := range gs {
			gs[i].bundle, gs[i].token = w.grant(leaf, 4)
		}
		return gs
	}

	l := w.open(leaf, 4)
	gs := grants()
	var next [2]*Lease
	for i, g := range gs {
		var err error
		if next[i], err = l.Renew(g.bundle, g.token); err != nil {
			t.Fatal(err)
		}
	}
	var got [2][]loctree.NodeID
	for i, n := range next {
		got[i] = draw(n)
	}
	check("one after the other", l, gs, got)

	l = w.open(leaf, 4)
	gs = grants()
	got = [2][]loctree.NodeID{}
	var wg sync.WaitGroup
	for i, g := range gs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, err := l.Renew(g.bundle, g.token)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = draw(n)
		}()
	}
	wg.Wait()
	check("at once", l, gs, got)
}
