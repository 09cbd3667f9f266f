package core

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"corgi/internal/geo"
	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
)

func newEngineTestServer(t *testing.T, opts EngineOptions) *Server {
	t.Helper()
	sys, err := hexgrid.NewSystem(geo.SanFrancisco.Center(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := loctree.NewAt(sys, geo.SanFrancisco.Center(), 2)
	if err != nil {
		t.Fatal(err)
	}
	priors := loctree.UniformPriors(tree)
	leaves := tree.LevelNodes(0)
	targets := []geo.LatLng{tree.Center(leaves[0]), tree.Center(leaves[24]), tree.Center(leaves[48])}
	srv, err := NewServerWithOptions(tree, priors, targets, []float64{1, 1, 1}, Params{
		Epsilon: 15, Iterations: 2, UseGraphApprox: true,
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestForestParallelMatchesSequential checks that worker-pool generation is
// a pure scheduling change: the forests from 1 and 4 workers are identical.
func TestForestParallelMatchesSequential(t *testing.T) {
	seq := newEngineTestServer(t, EngineOptions{Workers: 1})
	par := newEngineTestServer(t, EngineOptions{Workers: 4})
	fs, err := seq.GenerateForest(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := par.GenerateForest(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fp.Entries) != len(fs.Entries) {
		t.Fatalf("parallel forest has %d entries, sequential %d", len(fp.Entries), len(fs.Entries))
	}
	for node, es := range fs.Entries {
		ep, ok := fp.Entries[node]
		if !ok {
			t.Fatalf("parallel forest missing %v", node)
		}
		for i := 0; i < es.Matrix.Dim(); i++ {
			for j := 0; j < es.Matrix.Dim(); j++ {
				if d := math.Abs(es.Matrix.At(i, j) - ep.Matrix.At(i, j)); d > 1e-12 {
					t.Fatalf("entry %v (%d,%d) differs by %g", node, i, j, d)
				}
			}
		}
	}
}

// TestWorkerPoolParallelism drives the engine with simulated solves and
// checks 4 workers finish a fan-out at least 2x faster than 1 worker. Sleeps
// overlap regardless of core count, so this holds even on 1-CPU CI runners
// where the LP benchmarks (bench_test.go) cannot show wall-clock scaling.
func TestWorkerPoolParallelism(t *testing.T) {
	const n = 8
	const solveTime = 20 * time.Millisecond
	gen := func(ctx context.Context, key forestKey) (*ForestEntry, error) {
		time.Sleep(solveTime)
		return &ForestEntry{}, nil
	}
	keys := make([]forestKey, n)
	for i := range keys {
		keys[i] = forestKey{delta: i}
	}
	elapsed := func(workers int) time.Duration {
		en := newEngine(EngineOptions{Workers: workers, CacheBytes: 1 << 20}, gen)
		start := time.Now()
		if _, err := en.forest(context.Background(), keys); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	seq := elapsed(1)
	par := elapsed(4)
	// Ideal: 8x20ms sequential vs 2x20ms at 4 workers. Require >= 2x with
	// plenty of scheduling slack.
	if par > seq/2 {
		t.Fatalf("4 workers took %v vs %v sequential: less than 2x speedup", par, seq)
	}
}

// TestSingleflightSurvivesLeaderCancel checks a follower with a healthy
// context is not poisoned when the flight leader's context is canceled
// mid-solve: the follower retries and gets a real result.
func TestSingleflightSurvivesLeaderCancel(t *testing.T) {
	var calls atomic.Int32
	leaderSolving := make(chan struct{})
	gen := func(ctx context.Context, key forestKey) (*ForestEntry, error) {
		if calls.Add(1) == 1 {
			close(leaderSolving)
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return &ForestEntry{}, nil
	}
	en := newEngine(EngineOptions{Workers: 2, CacheBytes: 1 << 20}, gen)
	key := forestKey{delta: 1}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := en.entry(leaderCtx, key)
		leaderErr <- err
	}()
	<-leaderSolving
	followerRes := make(chan error, 1)
	go func() {
		e, err := en.entry(context.Background(), key)
		if err == nil && e == nil {
			err = errors.New("nil entry without error")
		}
		followerRes <- err
	}()
	// Give the follower a moment to join the flight, then kill the leader.
	time.Sleep(20 * time.Millisecond)
	cancelLeader()

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader got %v, want context.Canceled", err)
	}
	if err := <-followerRes; err != nil {
		t.Fatalf("healthy follower inherited leader's fate: %v", err)
	}
}

// TestSingleflightSharesOneSolve fires concurrent identical requests and
// checks that exactly one LP solve ran per (node, delta).
func TestSingleflightSharesOneSolve(t *testing.T) {
	srv := newEngineTestServer(t, EngineOptions{Workers: 4})
	root := srv.Tree().LevelNodes(1)[0]
	const callers = 8
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			_, errs[c] = srv.GenerateEntryCtx(context.Background(), root, 1)
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", c, err)
		}
	}
	if st := srv.Stats(); st.Solves != 1 {
		t.Fatalf("%d concurrent identical requests ran %d solves, want 1", callers, st.Solves)
	}
}

// TestCacheServesRepeatWithoutSolving checks the cache short-circuits a
// repeated forest request.
func TestCacheServesRepeatWithoutSolving(t *testing.T) {
	srv := newEngineTestServer(t, EngineOptions{Workers: 2})
	if _, err := srv.GenerateForest(1, 0); err != nil {
		t.Fatal(err)
	}
	solved := srv.Stats().Solves
	if _, err := srv.GenerateForest(1, 0); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Solves != solved {
		t.Fatalf("repeat request re-solved: %d -> %d", solved, st.Solves)
	}
	if st.Hits == 0 {
		t.Fatal("repeat request recorded no cache hits")
	}
}

// TestCacheRespectsByteBound sweeps deltas through a cache far too small for
// them and checks the bound holds and evictions are counted.
func TestCacheRespectsByteBound(t *testing.T) {
	// One 49x49 root entry alone is ~20 KiB of matrix; bound the cache to
	// roughly two level-1 entries (7x7 matrices plus pair/leaf overhead).
	const bound = 8 << 10
	srv := newEngineTestServer(t, EngineOptions{Workers: 2, CacheBytes: bound})
	for delta := 0; delta <= 3; delta++ {
		if _, err := srv.GenerateForest(1, delta); err != nil {
			t.Fatal(err)
		}
		if st := srv.Stats(); st.CacheBytes > bound {
			t.Fatalf("after delta %d sweep: cache holds %d bytes, bound %d", delta, st.CacheBytes, bound)
		}
	}
	st := srv.Stats()
	if st.Evictions == 0 {
		t.Fatalf("sweep over a %d-byte cache evicted nothing (stats %+v)", bound, st)
	}
	if st.CacheCapacity != bound {
		t.Fatalf("stats report capacity %d, want %d", st.CacheCapacity, bound)
	}
}

// TestWarmupFillsCache precomputes all combinations and checks traffic after
// warmup is served without new solves.
func TestWarmupFillsCache(t *testing.T) {
	srv := newEngineTestServer(t, EngineOptions{Workers: 4})
	if err := srv.Warmup(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	solved := srv.Stats().Solves
	// Height-2 tree: levels 1 and 2 have 7+1 nodes, deltas 0..1 -> 16 solves.
	if solved != 16 {
		t.Fatalf("warmup ran %d solves, want 16", solved)
	}
	for level := 1; level <= 2; level++ {
		for delta := 0; delta <= 1; delta++ {
			if _, err := srv.GenerateForest(level, delta); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := srv.Stats(); st.Solves != solved {
		t.Fatalf("post-warmup traffic re-solved: %d -> %d", solved, st.Solves)
	}
}

// TestGenerateForestCtxCancel checks an expired context aborts generation.
func TestGenerateForestCtxCancel(t *testing.T) {
	srv := newEngineTestServer(t, EngineOptions{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.GenerateForestCtx(ctx, 1, 1); err == nil {
		t.Fatal("canceled context must fail generation")
	}
	if st := srv.Stats(); st.Solves != 0 {
		t.Fatalf("canceled request still ran %d solves", st.Solves)
	}
}

// TestEngineArgumentValidation covers the engine-path argument checks.
func TestEngineArgumentValidation(t *testing.T) {
	srv := newEngineTestServer(t, EngineOptions{})
	if _, err := srv.GenerateForest(0, 0); err == nil {
		t.Error("level 0 must fail")
	}
	if _, err := srv.GenerateForest(9, 0); err == nil {
		t.Error("level beyond height must fail")
	}
	if _, err := srv.GenerateForest(1, -1); err == nil {
		t.Error("negative delta must fail")
	}
	if _, err := srv.GenerateEntryCtx(context.Background(), loctree.NodeID{Level: 7}, 0); err == nil {
		t.Error("foreign node must fail")
	}
	if err := srv.Warmup(context.Background(), -1); err == nil {
		t.Error("negative warmup delta must fail")
	}
}
