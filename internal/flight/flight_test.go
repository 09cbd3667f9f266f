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
