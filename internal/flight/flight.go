// Package flight joins concurrent calls for one key into one in-flight
// call: the serving spine's region bootstraps, per-key subtree solves and
// per-forest snapshot loads each run once however many requests ask for
// them at the same time.
package flight

import (
	"context"
	"sync"
)

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
// before it returns.
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

	c.val, c.err = fn()
	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
	return c.val, c.err
}
