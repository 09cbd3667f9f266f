package session

import (
	"runtime"
	"slices"
	"testing"

	"corgi/internal/loctree"
	"corgi/internal/policy"
	"corgi/internal/raceon"
	"corgi/internal/sample"
)

// TestFastForwardSeeksToTheOracle: a session's draw at any position is
// the naive oracle's — the entry row's alias table picking with
// sample.Uniform(seed, position) — however far the position lies, and
// reaching it costs one store, where stepping a generator there would take
// 2^40 variates. A detach moves past its window the same way, and a
// fast-forward behind the position does nothing.
func TestFastForwardSeeksToTheOracle(t *testing.T) {
	tree, entry, priors := testWorld(t, 2)
	const seed, far = 5, uint64(1) << 40
	s, err := New(Config{Tree: tree, Entry: entry, Policy: policy.Policy{PrivacyLevel: 2}, Priors: priors, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	leaf := entry.Leaves[3]
	table, err := sample.New(entry.Matrix.Row(3))
	if err != nil {
		t.Fatal(err)
	}
	oracle := func(pos uint64) loctree.NodeID { return entry.Leaves[table.Pick(sample.Uniform(seed, pos))] }
	check := func(pos uint64) {
		t.Helper()
		got, err := drawN(s, leaf, 2)
		if err != nil {
			t.Fatal(err)
		}
		if want := []loctree.NodeID{oracle(pos), oracle(pos + 1)}; !slices.Equal(got, want) {
			t.Fatalf("draws at position %d: %v, oracle %v", pos, got, want)
		}
		if s.Draws() != pos+2 {
			t.Fatalf("position %d after two draws from %d", s.Draws(), pos)
		}
	}

	s.FastForward(far)
	check(far)
	if _, err := s.DetachLease(leaf, 32); err != nil {
		t.Fatal(err)
	}
	check(far + 2 + 32)
	s.FastForward(7)
	check(far + 2 + 32 + 2)
}

// TestNewSessionFootprint: a session over a binding its entry already
// holds is one small allocation. The stream is a seed and a position, so
// there is no generator state to allocate, and a shard holds thousands of
// sessions.
func TestNewSessionFootprint(t *testing.T) {
	if raceon.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	tree, entry, priors := testWorld(t, 2)
	cfg := Config{Tree: tree, Entry: entry, Policy: policy.Policy{PrivacyLevel: 2}, Priors: priors}
	if _, err := New(cfg); err != nil { // warm the entry's shared binding
		t.Fatal(err)
	}
	const n = 1000
	keep := make([]*Session, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		cfg.Seed = int64(i)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		keep[i] = s
	}
	runtime.ReadMemStats(&after)
	bytes, allocs := (after.TotalAlloc-before.TotalAlloc)/n, (after.Mallocs-before.Mallocs)/n
	t.Logf("session.New on a warm binding: %d B in %d allocations each", bytes, allocs)
	if bytes > 256 || allocs > 1 {
		t.Error("want at most 256 B in 1 allocation")
	}
	runtime.KeepAlive(keep)
}
