package flight

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// joinWatch is a context that closes joined the first time a waiter asks
// for its Done channel: Do asks only once it has joined a running call.
type joinWatch struct {
	context.Context
	once   sync.Once
	joined chan struct{}
}

func newJoinWatch(ctx context.Context) *joinWatch {
	return &joinWatch{Context: ctx, joined: make(chan struct{})}
}

func (w *joinWatch) Done() <-chan struct{} {
	w.once.Do(func() { close(w.joined) })
	return w.Context.Done()
}

var errBoom = errors.New("boom")

// TestConcurrentCallersShareOneRun starts a leader, joins N-1 waiters onto
// its call while fn is held, then lets fn return: fn ran once and every
// caller saw its value and its error.
func TestConcurrentCallersShareOneRun(t *testing.T) {
	for _, want := range []struct {
		val int
		err error
	}{{42, nil}, {0, errBoom}} {
		var g Group[string, int]
		var runs atomic.Int32
		running, release := make(chan struct{}), make(chan struct{})
		fn := func() (int, error) {
			runs.Add(1)
			close(running)
			<-release
			return want.val, want.err
		}
		const callers = 8
		type result struct {
			val int
			err error
		}
		results := make(chan result, callers)
		call := func(ctx context.Context) {
			v, err := g.Do(ctx, "k", fn)
			results <- result{v, err}
		}
		go call(context.Background())
		<-running
		for i := 1; i < callers; i++ {
			w := newJoinWatch(context.Background())
			go call(w)
			<-w.joined
		}
		close(release)
		for i := 0; i < callers; i++ {
			if r := <-results; r.val != want.val || !errors.Is(r.err, want.err) || (want.err == nil) != (r.err == nil) {
				t.Errorf("caller got (%d, %v), want (%d, %v)", r.val, r.err, want.val, want.err)
			}
		}
		if n := runs.Load(); n != 1 {
			t.Errorf("%d concurrent callers ran fn %d times, want 1", callers, n)
		}
	}
}

// TestWaiterLeavesOnItsOwnContext cancels one waiter while fn runs: that
// waiter returns its ctx's error at once, and fn still completes for the
// leader and for a waiter that stayed.
func TestWaiterLeavesOnItsOwnContext(t *testing.T) {
	var g Group[int, string]
	running, release := make(chan struct{}), make(chan struct{})
	fn := func() (string, error) {
		close(running)
		<-release
		return "done", nil
	}
	leader := make(chan string, 1)
	go func() {
		v, _ := g.Do(context.Background(), 1, fn)
		leader <- v
	}()
	<-running

	stayer := newJoinWatch(context.Background())
	stayed := make(chan string, 1)
	go func() {
		v, _ := g.Do(stayer, 1, fn)
		stayed <- v
	}()
	<-stayer.joined

	ctx, cancel := context.WithCancel(context.Background())
	leaver := newJoinWatch(ctx)
	left := make(chan error, 1)
	go func() {
		_, err := g.Do(leaver, 1, fn)
		left <- err
	}()
	<-leaver.joined
	cancel()
	if err := <-left; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter got %v, want context.Canceled", err)
	}

	close(release)
	if v := <-leader; v != "done" {
		t.Errorf("leader got %q after a waiter left, want done", v)
	}
	if v := <-stayed; v != "done" {
		t.Errorf("remaining waiter got %q after another left, want done", v)
	}
}

// TestKeyFreesWhenFnReturns runs Do twice in a row for one key, after a
// value and after an error: each call runs fn again. A second key runs
// while the first is held.
func TestKeyFreesWhenFnReturns(t *testing.T) {
	var g Group[string, int]
	var runs int
	count := func() (int, error) {
		runs++
		return runs, nil
	}
	fail := func() (int, error) {
		runs++
		return 0, errBoom
	}
	if _, err := g.Do(context.Background(), "k", fail); !errors.Is(err, errBoom) {
		t.Fatalf("first call: %v, want errBoom", err)
	}
	for want := 2; want <= 3; want++ {
		if v, err := g.Do(context.Background(), "k", count); err != nil || v != want {
			t.Fatalf("call %d: (%d, %v), want (%d, nil): the key stayed taken", want, v, err, want)
		}
	}

	held, release := make(chan struct{}), make(chan struct{})
	go g.Do(context.Background(), "a", func() (int, error) {
		close(held)
		<-release
		return 0, nil
	})
	<-held
	if v, err := g.Do(context.Background(), "b", func() (int, error) { return 7, nil }); v != 7 || err != nil {
		t.Errorf("key b while a is held: (%d, %v), want (7, nil)", v, err)
	}
	close(release)
}

// TestPanickingCallFreesItsKey panics in fn while a waiter is joined: the
// panic reaches the leader with its own value, the waiter gets an error
// saying the call panicked, and the next Do for the key runs its fn. The
// next Do goes first, under an already-cancelled ctx: a key left taken
// would make it join the dead call and return the ctx's error at once.
func TestPanickingCallFreesItsKey(t *testing.T) {
	var g Group[string, int]
	running, release := make(chan struct{}), make(chan struct{})
	leader := make(chan any, 1)
	go func() {
		defer func() { leader <- recover() }()
		g.Do(context.Background(), "k", func() (int, error) {
			close(running)
			<-release
			panic("solve blew up")
		})
	}()
	<-running
	w := newJoinWatch(context.Background())
	waiter := make(chan error, 1)
	go func() {
		_, err := g.Do(w, "k", func() (int, error) { return 0, nil })
		waiter <- err
	}()
	<-w.joined
	close(release)
	if p := <-leader; p != "solve blew up" {
		t.Fatalf("leader recovered %v, want the fn's own panic value", p)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if v, err := g.Do(cancelled, "k", func() (int, error) { return 7, nil }); v != 7 || err != nil {
		t.Fatalf("Do after a panic: (%d, %v), want (7, nil): the key stayed taken", v, err)
	}
	if err := <-waiter; !errors.Is(err, errPanicked) {
		t.Errorf("waiter on a panicking call got %v, want errPanicked", err)
	}
}

// TestFanOutHoldsItsBound runs 6 calls 2 at a time: the first 2 are seen
// running together before any returns, no more than 2 ever run at once,
// and all 6 run.
func TestFanOutHoldsItsBound(t *testing.T) {
	const n, limit = 6, 2
	var cur, peak, ran atomic.Int32
	started, release := make(chan struct{}, n), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- FanOut(context.Background(), n, limit, func(ctx context.Context, i int) error {
			c := cur.Add(1)
			for p := peak.Load(); c > p && !peak.CompareAndSwap(p, c); p = peak.Load() {
			}
			started <- struct{}{}
			<-release
			cur.Add(-1)
			ran.Add(1)
			return nil
		})
	}()
	for i := 0; i < limit; i++ {
		<-started
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if p, r := peak.Load(), ran.Load(); p != limit || r != n {
		t.Errorf("peak %d concurrent, %d ran; want %d and %d", p, r, limit, n)
	}
}

// TestFanOutSkipsCallsAfterItsFirstError runs 5 calls one at a time, the
// first of which fails: no other call starts and the failure is returned.
// Under a ctx cancelled before the start, the calls that fit the bound
// still start and the rest are skipped with the ctx's error.
func TestFanOutSkipsCallsAfterItsFirstError(t *testing.T) {
	var ran atomic.Int32
	err := FanOut(context.Background(), 5, 1, func(ctx context.Context, i int) error {
		ran.Add(1)
		if i == 0 {
			return errBoom
		}
		return nil
	})
	if !errors.Is(err, errBoom) || ran.Load() != 1 {
		t.Errorf("first call failing: (%v, %d ran), want (errBoom, 1 ran)", err, ran.Load())
	}

	ran.Store(0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = FanOut(ctx, 5, 2, func(ctx context.Context, i int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) || ran.Load() != 2 {
		t.Errorf("cancelled ctx: (%v, %d ran), want (context.Canceled, 2 ran)", err, ran.Load())
	}
}
