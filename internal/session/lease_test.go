package session

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math"
	"sync"
	"testing"

	"corgi/internal/budget"
	"corgi/internal/clientdraw"
	"corgi/internal/codec"
	"corgi/internal/core"
	"corgi/internal/loctree"
	"corgi/internal/obf"
	"corgi/internal/policy"
)

// detachByCopy is DetachLease as it stood while a bundle owned everything
// it pointed at: its own copy of the node lists and one fresh vector per
// row, asked of the binding a row at a time. It burns nothing, so a
// DetachLease right after it stands at the same stream position.
func detachByCopy(s *Session) *codec.LeaseBundle {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.b
	bundle := &codec.LeaseBundle{
		Root:           b.Root(),
		PrecisionLevel: s.pol.PrecisionLevel,
		Degraded:       b.Source().IsDegraded(),
		Seed:           s.seed,
		RNGPos:         s.draws.Load(),
		Pruned:         append([]loctree.NodeID(nil), b.Pruned()...),
		Nodes:          append([]loctree.NodeID(nil), b.Nodes()...),
		Rows:           make([][]float64, len(b.Nodes())),
	}
	rows, _, _ := b.DetachRows(nil, nil)
	for i, w := range rows {
		if w != nil {
			bundle.Rows[i] = append([]float64(nil), w...)
		}
	}
	return bundle
}

// strandRow rebuilds entry with row's whole mass on column col: pruning
// col's leaf leaves that row nothing to renormalize.
func strandRow(t *testing.T, entry *core.ForestEntry, row, col int) *core.ForestEntry {
	t.Helper()
	n := len(entry.Leaves)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = append([]float64(nil), entry.Matrix.Row(i)...)
	}
	for j := range rows[row] {
		rows[row][j] = 0
	}
	rows[row][col] = 1
	m, err := obf.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return &core.ForestEntry{Root: entry.Root, Leaves: entry.Leaves, Matrix: m}
}

// TestLeaseBundleBytesUnchanged: a bundle made of views and one arena
// encodes to the bytes a bundle of per-row copies does, for every kind of
// binding a lease detaches at K=7 and K=49. (Precision grouping needs a
// level between leaf and subtree root, which a K=7 subtree does not have.)
func TestLeaseBundleBytesUnchanged(t *testing.T) {
	for _, level := range []int{1, 2} {
		tree, entry, priors := testWorld(t, level)
		blocked := []loctree.NodeID{entry.Leaves[3]}
		if level == 2 {
			blocked = append(blocked, entry.Leaves[11], entry.Leaves[30])
		}
		type bundleCase struct {
			name      string
			entry     *core.ForestEntry
			pol       policy.Policy
			blocked   []loctree.NodeID
			emptyRows int
		}
		cases := []bundleCase{
			{"plain", entry, policy.Policy{PrivacyLevel: level}, nil, 0},
			{"pruned", entry, blockPolicy(level, 0), blocked, 0},
			{"degenerate row", strandRow(t, entry, 0, 3), blockPolicy(level, 0), blocked, 1},
		}
		if level == 2 {
			cases = append(cases,
				bundleCase{"precision", entry, policy.Policy{PrivacyLevel: 2, PrecisionLevel: 1}, nil, 0},
				bundleCase{"pruned precision", entry, blockPolicy(2, 1), blocked, 0})
		}
		for _, tc := range cases {
			s, err := New(Config{Tree: tree, Entry: tc.entry, Delta: len(tc.blocked), Policy: tc.pol,
				Attrs: blockAttrs(tree, tc.blocked...), Priors: priors, Seed: 5})
			if err != nil {
				t.Fatalf("K=%d %s: %v", len(entry.Leaves), tc.name, err)
			}
			want, err := codec.EncodeLeaseBundle(detachByCopy(s))
			if err != nil {
				t.Fatal(err)
			}
			bundle, err := s.DetachLease(entry.Leaves[1], 32)
			if err != nil {
				t.Fatal(err)
			}
			got, err := codec.EncodeLeaseBundle(bundle)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("K=%d %s: bundle of views encodes to %d bytes that differ from the %d of per-row copies",
					len(entry.Leaves), tc.name, len(got), len(want))
			}
			empty := 0
			for _, row := range bundle.Rows {
				if row == nil {
					empty++
				}
			}
			if empty != tc.emptyRows {
				t.Errorf("K=%d %s: %d unsampleable rows, want %d", len(entry.Leaves), tc.name, empty, tc.emptyRows)
			}
		}
	}
}

// matrixDigest hashes every bit of an entry's matrix.
func matrixDigest(e *core.ForestEntry) [sha256.Size]byte {
	h := sha256.New()
	var b [8]byte
	for i := range e.Leaves {
		for _, v := range e.Matrix.Row(i) {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// TestDetachLeaseLeavesEntryUntouched leases the way a busy server does,
// two workers to a shared session, re-anchoring as they go and each feeding
// a device-side lease chain, over a pair of K=7 entries and one K=49 entry
// whose matrix rows every bundle points into. A thousand leases per session
// later the matrices hold the bits they started with; under -race the same
// run shows nobody writes what the concurrent encoders read. The coda pins
// why a view may outlive the session lock: a bundle detached before a
// Rebind still encodes the rows of the binding it was detached from.
func TestDetachLeaseLeavesEntryUntouched(t *testing.T) {
	tree, e49, priors := testWorld(t, 2)
	roots := tree.LevelNodes(1)
	e7a, e7b := synthEntryAt(t, tree, roots[0], 7), synthEntryAt(t, tree, roots[1], 8)
	entries := []*core.ForestEntry{e7a, e7b, e49}
	var before [][sha256.Size]byte
	for _, e := range entries {
		before = append(before, matrixDigest(e))
	}
	keys, err := budget.NewKeyring([]byte("session lease test"))
	if err != nil {
		t.Fatal(err)
	}

	const workers, leasesEach, draws = 2, 500, 4
	lease := func(s *Session, over []*core.ForestEntry) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var device *clientdraw.Lease
				for i := 0; i < leasesEach; i++ {
					e := over[(i+w)%len(over)]
					leaf := e.Leaves[i%len(e.Leaves)]
					var bundle *codec.LeaseBundle
					for {
						// Re-anchor when the other worker moved the session
						// away, and every third lease regardless.
						root := s.Bound().Root
						if at, _ := tree.AncestorAt(leaf, root.Level); i%3 == 0 || at != root {
							if err := s.Rebind(Rebind{Entry: e}); err != nil {
								t.Error(err)
								return
							}
						}
						var err error
						if bundle, err = s.DetachLease(leaf, draws); err == nil {
							break
						} else if !errors.Is(err, ErrOutsideSubtree) {
							t.Error(err)
							return
						}
					}
					blob, err := codec.EncodeLeaseBundle(bundle)
					if err != nil {
						t.Error(err)
						return
					}
					token := keys.Sign(budget.LeaseToken{UID: int64(w), Region: "r", Root: bundle.Root,
						DrawCap: draws, RNGPos: bundle.RNGPos, ExpiresAt: 1 << 50})
					if device == nil {
						device, err = clientdraw.Open(tree, blob, token)
					} else {
						device, err = device.Renew(blob, token)
					}
					if err != nil {
						t.Error(err)
						return
					}
					if err := device.DrawCellNInto(leaf, make([]loctree.NodeID, 1)); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
	for _, world := range []struct {
		level int
		over  []*core.ForestEntry
	}{{1, []*core.ForestEntry{e7a, e7b}}, {2, []*core.ForestEntry{e49}}} {
		s, err := New(Config{Tree: tree, Entry: world.over[0], Policy: policy.Policy{PrivacyLevel: world.level},
			Priors: priors, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		lease(s, world.over)
		if got := s.Draws(); got != workers*leasesEach*draws {
			t.Errorf("privacy level %d: stream advanced %d positions over %d leases of %d", world.level, got, workers*leasesEach, draws)
		}
	}
	for i, e := range entries {
		if matrixDigest(e) != before[i] {
			t.Errorf("entry %v: matrix changed under leasing", e.Root)
		}
	}

	s, err := New(Config{Tree: tree, Entry: e7a, Policy: policy.Policy{PrivacyLevel: 1}, Priors: priors, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := s.DetachLease(e7a.Leaves[0], draws)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Rebind(Rebind{Entry: e7b}); err != nil {
		t.Fatal(err)
	}
	blob, err := codec.EncodeLeaseBundle(bundle)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := codec.DecodeLeaseBundle(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i, leaf := range e7a.Leaves {
		if decoded.Nodes[i] != leaf {
			t.Fatalf("node %d after the rebind: %v, want %v of the binding detached from", i, decoded.Nodes[i], leaf)
		}
		for j, v := range e7a.Matrix.Row(i) {
			if math.Float64bits(decoded.Rows[i][j]) != math.Float64bits(v) {
				t.Fatalf("row %d col %d after the rebind: %v, want %v", i, j, decoded.Rows[i][j], v)
			}
		}
	}
}
