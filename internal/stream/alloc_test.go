package stream_test

import (
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
// pipeline, client decode). A warm REPORT costs the one object the client
// keeps: the decoded response with its report inside it, the region string
// being the request's own. Preferences add nothing: the connection decoded
// the same list before and hands out that one. A renewal costs the two the
// client keeps: the grant, and one buffer holding the token and the bundle.
// The server side holds nothing past the frame it wrote.
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

	// The first exchange dials, solves the entry and builds the session.
	if _, err := c.Report(req); err != nil {
		t.Fatal(err)
	}
	report := testing.AllocsPerRun(200, func() {
		if _, err := c.Report(req); err != nil {
			t.Fatal(err)
		}
	})
	if report > 1 {
		t.Errorf("warm REPORT round trip: %v allocs, budget 1", report)
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
	if got := testing.AllocsPerRun(200, func() {
		if _, err := c.Report(prefs); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Errorf("warm home = false REPORT round trip: %v allocs, budget 1", got)
	}

	grant, err := c.Lease(req, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	lease := testing.AllocsPerRun(200, func() {
		if grant, err = c.Lease(req, 4, grant.Token); err != nil {
			t.Fatal(err)
		}
	})
	if lease > 2 {
		t.Errorf("LEASE renewal round trip: %v allocs, budget 2", lease)
	}
}
