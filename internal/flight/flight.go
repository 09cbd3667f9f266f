// Package flight runs the serving spine's concurrent calls. Group joins
// concurrent calls for one key into one in-flight call: region
// bootstraps, per-key subtree solves and per-forest snapshot loads each run
// once however many requests ask for them at the same time. FanOut runs a
// batch of calls side by side, at most a bound at once, and stops the
// batch at its first error: a forest's subtree solves, a warm-up's forests
// and an eager start's region bootstraps.
package flight

import (
	"context"
	"errors"
	"sync"
)

// errPanicked is what the callers waiting on a call get when its fn
// panicked (or exited its goroutine) instead of returning.
var errPanicked = errors.New("flight: the call for this key panicked")

// Group dedupes calls by key. The zero value is ready to use.
type Group[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*call[V]
}

// call is one in-progress fn that later callers for its key wait on.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Do runs fn once per key at a time. The first caller for a key runs fn
// and returns its result; a caller that arrives while it runs waits for
// that result or for its own ctx, whichever comes first, and a waiter that
// leaves early does not stop fn for the others. The key is free again once
// fn has returned, so the next Do runs fn anew: anything a later caller
// should find instead (a cache entry, a published shard) fn must publish
// before it returns. If fn panics, the key is freed all the same, the
// callers waiting on it get an error saying so, and the panic goes on up
// the first caller's stack.
func (g *Group[K, V]) Do(ctx context.Context, key K, fn func() (V, error)) (V, error) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.val, c.err
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		}
	}
	if g.calls == nil {
		g.calls = map[K]*call[V]{}
	}
	c := &call[V]{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	returned := false
	defer func() {
		if !returned {
			c.err = errPanicked
		}
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn()
	returned = true
	return c.val, c.err
}

// FanOut runs fn(ctx, i) for every i in [0, n), at most limit at a time,
// and returns the first error, whose arrival cancels the ctx the others
// run under. The first limit calls start at once; each later one starts
// when a running call returns, unless ctx is done by then, in which case
// it and the rest are skipped and FanOut returns the first error or, if
// none came, ctx's. With limit >= n every call starts at once. FanOut
// returns only after every call it started has returned.
func FanOut(ctx context.Context, n, limit int, fn func(ctx context.Context, i int) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	fail := func(err error) {
		once.Do(func() {
			first = err
			cancel()
		})
	}
	slots := make(chan struct{}, max(limit, 1))
	for i := 0; i < n; i++ {
		slots <- struct{}{}
		if i >= limit && ctx.Err() != nil {
			fail(ctx.Err())
			break
		}
		wg.Add(1)
		go func(i int) {
			defer func() {
				<-slots
				wg.Done()
			}()
			if err := fn(ctx, i); err != nil {
				fail(err)
			}
		}(i)
	}
	wg.Wait()
	return first
}
