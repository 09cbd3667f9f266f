package stream_test

import (
	"runtime"
	"testing"
	"time"

	"corgi/internal/policy"
	"corgi/internal/raceon"
	"corgi/internal/registry"
	"corgi/internal/stream"
)

// TestRoundTripAllocationBudgets pins the transport hot path: a warm
// REPORT, with and without preferences, and a LEASE renewal, client and
// server in this process over loopback, so the figure is everything a round
// trip allocates on both sides of the wire (frame codec, handler, registry
// pipeline, client decode). The client cuts what it keeps from its
// connection's slabs: a warm REPORT's decoded response, with its report
// inside it and the request's region string, is one slot of a
// sixteen-slot slab, and a renewal's token and bundle are one cut of a
// 16 KiB chunk, the grant itself being the caller's value. Preferences add
// nothing: the connection decoded the same list before and hands out that
// one. The server side holds nothing past the frame it wrote. So each
// exchange costs a share of a slab, under 0.1 allocations, which
// testing.AllocsPerRun would round down to 0: allocsPer counts the
// fraction.
func TestRoundTripAllocationBudgets(t *testing.T) {
	if raceon.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	reg := newRegistry(t, registry.Options{}, "ra")
	_, leafNodes := leaves(t, reg, "ra")
	_, addr := startStream(t, reg)
	c := stream.NewClient(addr, stream.ClientConfig{Timeout: 10 * time.Second})
	defer c.Close()
	req := stream.Request{
		Region: "ra", Cell: [2]int{leafNodes[0].Coord.Q, leafNodes[0].Coord.R},
		UID: 5, Policy: policy.Policy{PrivacyLevel: 1}, Seed: 11, Count: 1,
	}
	const runs, budget = 800, 0.1

	// The first exchange dials, solves the entry and builds the session.
	if _, err := c.Report(req); err != nil {
		t.Fatal(err)
	}
	if got := allocsPer(runs, func() {
		if _, err := c.Report(req); err != nil {
			t.Fatal(err)
		}
	}); got >= budget {
		t.Errorf("warm REPORT round trip: %.3f allocs, budget %v", got, budget)
	}

	home, err := policy.ParsePredicate("home = false")
	if err != nil {
		t.Fatal(err)
	}
	prefs := req
	prefs.UID, prefs.Policy.Preferences = 6, []policy.Predicate{home}
	if _, err := c.Report(prefs); err != nil {
		t.Fatal(err)
	}
	if got := allocsPer(runs, func() {
		if _, err := c.Report(prefs); err != nil {
			t.Fatal(err)
		}
	}); got >= budget {
		t.Errorf("warm home = false REPORT round trip: %.3f allocs, budget %v", got, budget)
	}

	grant, err := c.Lease(req, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := allocsPer(runs, func() {
		if grant, err = c.Lease(req, 4, grant.Token); err != nil {
			t.Fatal(err)
		}
	}); got >= budget {
		t.Errorf("LEASE renewal round trip: %.3f allocs, budget %v", got, budget)
	}
}

// allocsPer is testing.AllocsPerRun without its rounding down: the mean
// number of heap allocations per call of f, over runs calls after one
// warm-up, on one P.
func allocsPer(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}
