package clientdraw

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"corgi/internal/budget"
	"corgi/internal/codec"
	"corgi/internal/core"
	"corgi/internal/geo"
	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
	"corgi/internal/mechanism"
	"corgi/internal/obf"
	"corgi/internal/policy"
	"corgi/internal/sample"
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
	var prune []loctree.NodeID
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

		// The renewal continues the stream at its grant's position.
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

		// Both sessions re-anchor; the server skipped the old window's two
		// unused draws, and so must the resident stream.
		for _, s := range []*session.Session{w.leased, w.resident} {
			if err := s.Rebind(session.Rebind{Entry: w.entryB}); err != nil {
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

// TestOpenAtAFarPosition: a lease granted at position 2^40 opens at once
// (stepping a generator there would take 2^40 variates) and draws what the
// naive oracle draws there, the row's alias table picking with
// sample.Uniform(seed, position), and what the resident session draws
// after a fast-forward to the same position.
func TestOpenAtAFarPosition(t *testing.T) {
	const far = uint64(1) << 40
	w := newLeaseWorld(t, policy.Policy{PrivacyLevel: 1}, nil)
	leaf := w.entryA.Leaves[2]
	w.leased.FastForward(far)
	b, err := w.leased.DetachLease(leaf, 4)
	if err != nil {
		t.Fatal(err)
	}
	if b.RNGPos != far {
		t.Fatalf("detached at position %d, want %d", b.RNGPos, far)
	}
	table, err := sample.New(w.entryA.Matrix.Row(2))
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := codec.EncodeLeaseBundle(b)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(w.tree, bundle, w.keys.Sign(budget.LeaseToken{UID: 1, Region: "r", Root: b.Root,
		Eps: 1, DrawCap: 4, RNGPos: far, ExpiresAt: 1 << 50}))
	if err != nil {
		t.Fatal(err)
	}
	var got [1]loctree.NodeID
	if err := l.DrawCellNInto(leaf, got[:]); err != nil {
		t.Fatal(err)
	}
	if want := w.entryA.Leaves[table.Pick(sample.Uniform(99, far))]; got[0] != want { // the world's seed
		t.Fatalf("first draw at position %d: %v, oracle %v", far, got[0], want)
	}
	w.resident.FastForward(far + 1)
	w.same(l, leaf, 3)
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

// TestRenewKeepsOneWindow renews one lease several times, as a device that
// saw it run out would, and then from two goroutines at once. Renew moves
// the lease itself and returns it, so after renewals one after the other
// it draws exactly what a fresh Open of the last grant draws. Renewals at
// once serialize: the lease ends at one grant, whole, each draw between
// them reads a window of its own, and no variate position is drawn twice.
func TestRenewKeepsOneWindow(t *testing.T) {
	w := newLeaseWorld(t, policy.Policy{PrivacyLevel: 1}, nil)
	leaf := w.entryA.Leaves[2]
	type grant struct{ bundle, token []byte }
	grants := func(n int) []grant {
		gs := make([]grant, n)
		for i := range gs {
			gs[i].bundle, gs[i].token = w.grant(leaf, 4)
		}
		return gs
	}
	draw := func(l *Lease) []loctree.NodeID {
		t.Helper()
		out := make([]loctree.NodeID, 4)
		if err := l.DrawCellNInto(leaf, out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	// opened draws what a fresh Open of g draws.
	opened := func(g grant) []loctree.NodeID {
		t.Helper()
		l, err := Open(w.tree, g.bundle, g.token)
		if err != nil {
			t.Fatal(err)
		}
		return draw(l)
	}

	l := w.open(leaf, 4)
	gs := grants(3)
	for i, g := range gs {
		n, err := l.Renew(g.bundle, g.token)
		if err != nil {
			t.Fatal(err)
		}
		if n != l {
			t.Fatalf("renewal %d returned another lease", i)
		}
	}
	if !bytes.Equal(l.Token(), gs[2].token) {
		t.Fatal("the lease does not hold its last grant's token")
	}
	if got, want := draw(l), opened(gs[2]); !slices.Equal(got, want) {
		t.Fatalf("one after the other: the lease drew %v, a fresh Open of the last grant %v", got, want)
	}
	w.used(l, 4, 4)

	// A renewal that fails retires the lease, with draws left in its
	// window, and says so; Root and Token still describe the window it
	// was, and the next grant renews it.
	gs = grants(2)
	if _, err := l.Renew(gs[0].bundle, gs[0].token); err != nil {
		t.Fatal(err)
	}
	if n, err := l.Renew(gs[1].bundle[:len(gs[1].bundle)/2], gs[1].token); n != nil || err == nil {
		t.Fatalf("a torn bundle renewed the lease: %v, %v", n, err)
	}
	w.used(l, 4, 4)
	if l.Root() != w.entryA.Root || !bytes.Equal(l.Token(), gs[0].token) {
		t.Fatal("a failed renewal changed the window the lease describes")
	}
	if _, err := l.Renew(gs[1].bundle, gs[1].token); err != nil {
		t.Fatal(err)
	}
	if got, want := draw(l), opened(gs[1]); !slices.Equal(got, want) {
		t.Fatalf("after a failed renewal the lease drew %v, a fresh Open of its next grant %v", got, want)
	}

	for round := range 20 {
		l := w.open(leaf, 4)
		gs := grants(2)
		want := [2][]loctree.NodeID{opened(gs[0]), opened(gs[1])}
		if slices.Equal(want[0], want[1]) {
			t.Fatalf("round %d: both grants draw %v, so a window drawn twice would not show", round, want[0])
		}
		// drew[i] is what goroutine i drew after its renewal, nil if the
		// lease was spent by then.
		var drew [2][]loctree.NodeID
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
				if n != l {
					t.Error("a renewal at once returned another lease")
				}
				out := make([]loctree.NodeID, 4)
				if err := l.DrawCellNInto(leaf, out); err == nil {
					drew[i] = out
				} else if !errors.Is(err, ErrLeaseExhausted) {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		last := slices.IndexFunc(gs, func(g grant) bool { return bytes.Equal(g.token, l.Token()) })
		if last < 0 {
			t.Fatalf("round %d: the lease holds neither grant's token", round)
		}
		w.used(l, 4, 4)
		// Each window is drawn at most once, and the last one whole.
		seen := [2]bool{}
		for _, d := range drew {
			if d == nil {
				continue
			}
			k := slices.IndexFunc(want[:], func(w []loctree.NodeID) bool { return slices.Equal(w, d) })
			if k < 0 || seen[k] {
				t.Fatalf("round %d: a renewal drew %v; the grants draw %v and %v, each once", round, d, want[0], want[1])
			}
			seen[k] = true
		}
		if !seen[last] {
			t.Fatalf("round %d: nobody drew the window the lease ended at", round)
		}
	}
}

// TestRenewChainDrawsWhatOpenDraws renews one lease through a long chain of
// grants from four sessions: leaf rows of level-1 and level-2 subtrees,
// precision-reduced rows, pruned sets that leave a row degenerate, and
// degraded entries, so the bundle grows and shrinks as the user moves
// between subtrees. Each window is drawn until its cap, left part-used, or
// refused outside the subtree before the next renewal. After every Renew
// the lease must answer every call, draws, refusals and errors alike,
// exactly as a fresh Open of the same grant does, while a reader polls
// Root, Degraded and Token, and an error a window returned must still read
// the same at the end of the chain.
func TestRenewChainDrawsWhatOpenDraws(t *testing.T) {
	const renewals = 64
	w := newLeaseWorld(t, policy.Policy{PrivacyLevel: 1}, nil)
	tree, priors := w.tree, loctree.UniformPriors(w.tree)
	type source struct {
		s       *session.Session
		entries []*core.ForestEntry
		prunes  [][]int // by entry variant: leaf indexes pruned
	}
	var sources []source
	roots1, roots2 := tree.LevelNodes(1), tree.LevelNodes(2)
	for i, pol := range []policy.Policy{{PrivacyLevel: 1}, {PrivacyLevel: 1}, {PrivacyLevel: 2, PrecisionLevel: 1}, {PrivacyLevel: 2}} {
		roots := roots1
		if pol.PrivacyLevel == 2 {
			roots = roots2
		}
		var src source
		for j, root := range roots[:3] {
			e := entryOver(t, tree, root, int64(10*i+j))
			e.Degraded = j == 2
			src.entries = append(src.entries, e)
		}
		if i == 1 { // row 0 degenerate once leaf 1 goes
			src.prunes = [][]int{{1}, {1, 4}, {5}}
		}
		var err error
		if src.s, err = session.New(session.Config{Tree: tree, Entry: src.entries[0], Policy: pol,
			Priors: priors, Seed: int64(7 + i)}); err != nil {
			t.Fatal(err)
		}
		sources = append(sources, src)
	}
	// outside is a cell no window's subtree covers: every window refuses
	// it, each naming its own root.
	far := tree.LeavesUnder(roots2[len(roots2)-1])
	outside := far[len(far)-1]
	rng := rand.New(rand.NewSource(3))
	// grant rebinds a source's session onto one of its entries, with one
	// of its prune sets, and detaches an n-draw lease there.
	grant := func(src source, n int) (bundle, token []byte, leaves []loctree.NodeID) {
		t.Helper()
		e := src.entries[rng.Intn(len(src.entries))]
		var pruned []loctree.NodeID
		if src.prunes != nil {
			for _, p := range src.prunes[rng.Intn(len(src.prunes))] {
				pruned = append(pruned, e.Leaves[p])
			}
		}
		if err := src.s.Rebind(session.Rebind{Entry: e, Delta: len(pruned), Pruned: pruned}); err != nil {
			t.Fatal(err)
		}
		leaf := e.Leaves[2+rng.Intn(len(e.Leaves)-2)] // never a pruned or degenerate row
		b, err := src.s.DetachLease(leaf, n)
		if err != nil {
			t.Fatal(err)
		}
		if bundle, err = codec.EncodeLeaseBundle(b); err != nil {
			t.Fatal(err)
		}
		return bundle, w.keys.Sign(budget.LeaseToken{UID: 1, Region: "r", Root: b.Root, Delta: len(b.Pruned),
			Eps: 1, DrawCap: n, RNGPos: b.RNGPos, ExpiresAt: 1 << 50}), e.Leaves
	}
	// same makes one call on both leases and requires the outcomes equal
	// byte for byte; it reports whether the draw was served.
	same := func(i int, l, fresh *Lease, cell loctree.NodeID, n int) bool {
		t.Helper()
		var answers [2]string
		for j, l := range []*Lease{l, fresh} {
			out := make([]loctree.NodeID, n)
			if err := l.DrawCellNInto(cell, out); err != nil {
				answers[j] = "error: " + err.Error()
			} else {
				answers[j] = fmt.Sprint(out)
			}
		}
		if answers[0] != answers[1] {
			t.Fatalf("renewal %d, %d draws at %v: the renewed lease %s, a fresh Open %s", i, n, cell, answers[0], answers[1])
		}
		return !strings.HasPrefix(answers[0], "error: ")
	}

	bundle, token, _ := grant(sources[0], 4)
	l, err := Open(tree, bundle, token)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(stop)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if root := l.Root(); root.Level != 1 && root.Level != 2 {
				t.Errorf("Root read %v mid-chain", root)
				return
			}
			if len(l.Token()) == 0 {
				t.Error("Token read empty mid-chain")
				return
			}
			l.Degraded()
		}
	}()
	var grew, shrank, spent, missed, degraded int
	type keptMiss struct {
		err  *mechanism.OutsideSubtreeError
		read mechanism.OutsideSubtreeError
	}
	var kept []keptMiss
	var from [4]int // windows by source
	for i := range renewals {
		k := rng.Intn(len(sources))
		src := sources[k]
		from[k]++
		n := 1 + rng.Intn(6)
		prev := len(bundle)
		bundle, token, leaves := grant(src, n)
		switch {
		case len(bundle) > prev:
			grew++
		case len(bundle) < prev:
			shrank++
		}
		renewed, err := l.Renew(bundle, token)
		if err != nil {
			t.Fatal(err)
		}
		if renewed != l {
			t.Fatalf("renewal %d returned another lease", i)
		}
		fresh, err := Open(tree, bundle, token)
		if err != nil {
			t.Fatal(err)
		}
		if l.Root() != fresh.Root() || l.Degraded() != fresh.Degraded() || !bytes.Equal(l.Token(), fresh.Token()) {
			t.Fatalf("renewal %d: lease over %v (degraded %v), a fresh Open over %v (%v)",
				i, l.Root(), l.Degraded(), fresh.Root(), fresh.Degraded())
		}
		if l.Degraded() {
			degraded++
		}
		// Every leaf once, refusals included; or a cell outside the
		// subtree, a leaf inside and the outside cell again; or nothing.
		// Then, every other window, the rest of the cap and one draw past it.
		var calls []loctree.NodeID
		switch i % 3 {
		case 0:
			calls = leaves
		case 1:
			calls = []loctree.NodeID{outside, leaves[2+rng.Intn(len(leaves)-2)], outside}
			missed++
		}
		drawn := 0
		for _, cell := range calls {
			if drawn < n && same(i, l, fresh, cell, 1) {
				drawn++
			}
		}
		if i%3 == 1 && drawn < n {
			// The window's first miss, kept: no later window may rewrite
			// it. A refusal consumes nothing, so the two leases stay aligned.
			var e *mechanism.OutsideSubtreeError
			if !errors.As(l.DrawCellNInto(calls[0], make([]loctree.NodeID, 1)), &e) {
				t.Fatalf("renewal %d: no refusal outside the subtree", i)
			}
			kept = append(kept, keptMiss{e, *e})
		}
		if i%2 == 0 {
			cell := leaves[2+rng.Intn(len(leaves)-2)]
			if drawn < n && !same(i, l, fresh, cell, n-drawn) {
				t.Fatalf("renewal %d: the rest of the cap was refused", i)
			}
			if same(i, l, fresh, cell, 1) {
				t.Fatalf("renewal %d: a draw past the cap was served", i)
			}
			spent++
		}
	}
	if len(kept) == 0 {
		t.Fatal("no window's refusal was kept")
	}
	for _, k := range kept {
		if *k.err != k.read {
			t.Fatalf("a refusal returned as %+v was rewritten to %+v", k.read, *k.err)
		}
	}
	if grew == 0 || shrank == 0 || spent == 0 || missed == 0 || degraded == 0 || slices.Contains(from[:], 0) {
		t.Fatalf("the chain grew its bundle %d times, shrank it %d, spent %d windows, missed in %d, %d were degraded, by source %v: each must happen",
			grew, shrank, spent, missed, degraded, from)
	}
}

// TestOutsideMissesNameTheirOwnCell: the lease keeps the error of its first
// draw outside the subtree and hands it out again for that cell only. Two
// goroutines refused at two outside cells of one lease each get an error
// naming their own cell and the lease's root, and an error once returned
// still names its cell after misses elsewhere. The refusals consume
// nothing.
func TestOutsideMissesNameTheirOwnCell(t *testing.T) {
	w := newLeaseWorld(t, policy.Policy{PrivacyLevel: 1}, nil)
	a, b := w.entryA.Leaves, w.entryB.Leaves
	l := w.open(a[2], 4)
	miss := func(cell loctree.NodeID) (*mechanism.OutsideSubtreeError, error) {
		err := l.DrawCellNInto(cell, make([]loctree.NodeID, 1))
		var out *mechanism.OutsideSubtreeError
		if !errors.As(err, &out) || out.Leaf != cell || out.Root != w.entryA.Root {
			return nil, fmt.Errorf("draw at %v: %v, want an OutsideSubtreeError naming it and %v", cell, err, w.entryA.Root)
		}
		return out, nil
	}

	var wg sync.WaitGroup
	for _, cell := range []loctree.NodeID{b[0], b[1]} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 100 {
				e, err := miss(cell)
				if err != nil {
					t.Error(err)
					return
				}
				if want := fmt.Sprintf("%v: cell %v, subtree %v", ErrOutsideSubtree, cell, w.entryA.Root); e.Error() != want {
					t.Errorf("refusal reads %q, want %q", e.Error(), want)
					return
				}
			}
		}()
	}
	wg.Wait()

	first, err := miss(b[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range []loctree.NodeID{b[1], b[2], b[0]} {
		if _, err := miss(cell); err != nil {
			t.Fatal(err)
		}
	}
	if first.Leaf != b[0] {
		t.Fatalf("a returned refusal was rewritten to name %v", first.Leaf)
	}
	w.same(l, a[2], 4)
}

// TestCapRefusalsAreKept: the lease keeps the error of its window's first
// draw past the cap and hands it out again for an equal refusal only. A
// refusal asking for another count gets its own error, and an error once
// returned reads the same after later refusals and renewals.
func TestCapRefusalsAreKept(t *testing.T) {
	w := newLeaseWorld(t, policy.Policy{PrivacyLevel: 1}, nil)
	leaf := w.entryA.Leaves[2]
	l := w.open(leaf, 4)
	w.same(l, leaf, 3)
	refuse := func(n int) *ExhaustedError {
		t.Helper()
		var e *ExhaustedError
		if err := l.DrawCellNInto(leaf, make([]loctree.NodeID, n)); !errors.As(err, &e) {
			t.Fatalf("%d draws with one left: %v, want an ExhaustedError", n, err)
		}
		return e
	}
	first := refuse(2)
	if again := refuse(2); again != first {
		t.Fatal("an equal refusal in the same window got another error")
	}
	if other := refuse(3); other == first || *other != (ExhaustedError{Used: 3, Cap: 4, Asked: 3}) {
		t.Fatalf("a refusal of 3 draws read %+v (the kept one: %v)", *other, other == first)
	}
	w.same(l, leaf, 1)
	bundle, token := w.grant(leaf, 4)
	if _, err := l.Renew(bundle, token); err != nil {
		t.Fatal(err)
	}
	w.same(l, leaf, 3)
	if next := refuse(2); next == first {
		t.Fatal("a renewed window handed out the last window's refusal")
	}
	if *first != (ExhaustedError{Used: 3, Cap: 4, Asked: 2}) {
		t.Fatalf("a returned refusal was rewritten to %+v", *first)
	}
}

// TestLeaseSharesNothingWithItsCaller: the lease copies what it keeps of a
// grant, so a caller may write over the grant's bytes once Open or Renew
// returns, as a transport that reuses its buffers would. The lease then
// draws what a lease opened from clean copies draws, and Token returns the
// token it was given.
func TestLeaseSharesNothingWithItsCaller(t *testing.T) {
	w := newLeaseWorld(t, policy.Policy{PrivacyLevel: 1}, nil)
	leaf := w.entryA.Leaves[2]
	var l *Lease
	for _, stage := range []string{"Open", "Renew"} {
		bundle, token := w.grant(leaf, 4)
		cleanBundle, cleanToken := bytes.Clone(bundle), bytes.Clone(token)
		var err error
		if l == nil {
			l, err = Open(w.tree, bundle, token)
		} else {
			_, err = l.Renew(bundle, token)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range [][]byte{bundle, token} {
			for i := range b {
				b[i] ^= 0xa5
			}
		}
		ref, err := Open(w.tree, cleanBundle, cleanToken)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(l.Token(), cleanToken) {
			t.Fatalf("after %s the lease's token changed with the caller's bytes", stage)
		}
		got, want := make([]loctree.NodeID, 4), make([]loctree.NodeID, 4)
		if err := l.DrawCellNInto(leaf, got); err != nil {
			t.Fatalf("after %s: %v", stage, err)
		}
		if err := ref.DrawCellNInto(leaf, want); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("after %s the lease drew %v, a lease over clean copies %v", stage, got, want)
		}
	}
}
