package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

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

// TestWorkerPoolParallelism counts the simulated solves in flight: the
// first ones hold until as many as the pool has workers have arrived, and
// from then on each is let go only once the next has arrived, so exactly
// that many are in flight at every arrival — whatever the core count,
// where the LP benchmarks (bench_test.go) cannot show wall-clock scaling
// on 1-CPU CI runners.
func TestWorkerPoolParallelism(t *testing.T) {
	keys := make([]forestKey, 8)
	for i := range keys {
		keys[i] = forestKey{delta: i}
	}
	for _, workers := range []int{1, 4} {
		arrived, release := make(chan struct{}), make(chan struct{})
		en := newEngine(EngineOptions{Workers: workers, CacheBytes: 1 << 20}, func(context.Context, forestKey) (*ForestEntry, error) {
			arrived <- struct{}{}
			<-release
			return &ForestEntry{}, nil
		})
		done := make(chan error, 1)
		go func() {
			_, err := en.forest(context.Background(), keys)
			done <- err
		}()
		for i := range keys {
			<-arrived
			if i < workers-1 {
				continue
			}
			if n := en.inFlight.Load(); n != int64(workers) {
				t.Errorf("%d workers: %d solves in flight at arrival %d", workers, n, i+1)
			}
			if i < len(keys)-1 {
				release <- struct{}{}
			}
		}
		close(release)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
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
	// The follower's first look at its context is the select that waits
	// on the leader's flight: by then it has joined it.
	follower := &joinWatch{Context: context.Background(), joined: make(chan struct{})}
	followerRes := make(chan error, 1)
	go func() {
		e, err := en.entry(follower, key)
		if err == nil && e == nil {
			err = errors.New("nil entry without error")
		}
		followerRes <- err
	}()
	<-follower.joined
	cancelLeader()

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader got %v, want context.Canceled", err)
	}
	if err := <-followerRes; err != nil {
		t.Fatalf("healthy follower inherited leader's fate: %v", err)
	}
}

// joinWatch is a context that closes joined the first time a waiter asks
// for its Done channel.
type joinWatch struct {
	context.Context
	once   sync.Once
	joined chan struct{}
}

func (w *joinWatch) Done() <-chan struct{} {
	w.once.Do(func() { close(w.joined) })
	return w.Context.Done()
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

// failOneSubtree makes srv's generation of fail return errBoom once every
// other generation in the fan-out has started, and every other generation
// wait for its ctx to end and count that it did.
func failOneSubtree(srv *Server, fail forestKey, others int, cancelled *atomic.Int32) {
	started := make(chan struct{}, others)
	srv.engine.generate = func(ctx context.Context, key forestKey) (*ForestEntry, error) {
		if key == fail {
			for i := 0; i < others; i++ {
				<-started
			}
			return nil, errBoom
		}
		started <- struct{}{}
		<-ctx.Done()
		cancelled.Add(1)
		return nil, ctx.Err()
	}
}

var errBoom = errors.New("boom")

// TestForestFirstErrorCancelsSiblings fails one subtree of a level-1
// forest while its six siblings are solving: their ctx is cancelled, and
// GenerateForestCtx returns the failing subtree's error, not a sibling's
// cancellation.
func TestForestFirstErrorCancelsSiblings(t *testing.T) {
	srv := newEngineTestServer(t, EngineOptions{Workers: 7})
	nodes := srv.Tree().LevelNodes(1)
	var cancelled atomic.Int32
	failOneSubtree(srv, forestKey{node: nodes[3], delta: 1}, len(nodes)-1, &cancelled)
	if _, err := srv.GenerateForestCtx(context.Background(), 1, 1); !errors.Is(err, errBoom) {
		t.Fatalf("forest with a failing subtree returned %v, want errBoom", err)
	}
	if n := cancelled.Load(); n != int32(len(nodes)-1) {
		t.Fatalf("%d of %d siblings saw their ctx cancelled", n, len(nodes)-1)
	}
	if st := srv.Stats(); st.Solves != 0 {
		t.Fatalf("failed forest counted %d solves", st.Solves)
	}
}

// TestWarmupFirstErrorCancelsTheRest fails one subtree of one warmup
// forest while every other subtree of every forest is solving: all of
// them are cancelled and Warmup returns the failure, naming its forest.
func TestWarmupFirstErrorCancelsTheRest(t *testing.T) {
	// Height 2, deltas 0..1: (7 + 1) subtrees x 2 deltas, all at once.
	srv := newEngineTestServer(t, EngineOptions{Workers: 16})
	var cancelled atomic.Int32
	failOneSubtree(srv, forestKey{node: srv.Tree().Root(), delta: 1}, 15, &cancelled)
	err := srv.Warmup(context.Background(), 1)
	if !errors.Is(err, errBoom) {
		t.Fatalf("warmup with a failing subtree returned %v, want errBoom", err)
	}
	if want := "warmup level 2 delta 1"; !strings.Contains(err.Error(), want) {
		t.Errorf("warmup error %q does not name its forest (%q)", err, want)
	}
	if n := cancelled.Load(); n != 15 {
		t.Fatalf("%d of 15 other subtrees saw their ctx cancelled", n)
	}
}

// TestDeltaBoundRefusedBeforeSolving: a subtree of K leaves takes deltas
// in [0, K) on every entry point, and a refused delta runs no solve;
// Warmup past a level's bound warms what the level allows.
func TestDeltaBoundRefusedBeforeSolving(t *testing.T) {
	srv := newEngineTestServer(t, EngineOptions{Workers: 2})
	ctx := context.Background()
	sub, root := srv.Tree().LevelNodes(1)[0], srv.Tree().Root()
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"forest L1 delta 7", func() error { _, err := srv.GenerateForestCtx(ctx, 1, 7); return err }},
		{"forest L2 delta 49", func() error { _, err := srv.GenerateForestCtx(ctx, 2, 49); return err }},
		{"entry L1 delta 7", func() error { _, err := srv.GenerateEntryCtx(ctx, sub, 7); return err }},
		{"entry L2 delta 1<<30", func() error { _, err := srv.GenerateEntryCtx(ctx, root, 1<<30); return err }},
		{"serve L1 delta 7", func() error { _, err := srv.ServeEntryCtx(ctx, sub, 7); return err }},
		{"serve L1 delta -1", func() error { _, err := srv.ServeEntryCtx(ctx, sub, -1); return err }},
	} {
		if err := tc.call(); !errors.Is(err, ErrDeltaRange) {
			t.Errorf("%s: %v, want ErrDeltaRange", tc.name, err)
		}
	}
	if st := srv.Stats(); st.Solves != 0 || st.Misses != 0 {
		t.Fatalf("refused deltas reached the engine: %d solves, %d misses", st.Solves, st.Misses)
	}

	// Level 1 subtrees have 7 leaves, so warming deltas 0..7 solves 0..6
	// there (7 x 7) and 0..7 at the root (8). What a solve returns does
	// not matter here, only which keys are asked for.
	srv.engine.generate = func(context.Context, forestKey) (*ForestEntry, error) { return &ForestEntry{}, nil }
	if err := srv.Warmup(ctx, 7); err != nil {
		t.Fatalf("warmup past level 1's bound: %v", err)
	}
	if st := srv.Stats(); st.Solves != 7*7+8 {
		t.Fatalf("warmup to delta 7 ran %d solves, want %d", st.Solves, 7*7+8)
	}
}
