package stream_test

import (
	"errors"
	"net"
	"testing"
	"time"

	"corgi/internal/clock"
	"corgi/internal/policy"
	"corgi/internal/registry"
	"corgi/internal/stream"
)

// TestClientReconnectBackoff exercises the fail-fast breaker end to end:
// two consecutive dial failures open it (ErrNodeDown in microseconds, no
// dial timeout spent), the half-open probe closes it once the node is
// back on the same address, and traffic returns — the recovery half of
// cluster failover. The breaker reads a manual clock, so the backoff
// expires when the test advances it, not after a wait.
func TestClientReconnectBackoff(t *testing.T) {
	reg := newRegistry(t, registry.Options{}, "ra")
	_, leafNodes := leaves(t, reg, "ra")
	leaf := leafNodes[0]
	req := stream.Request{
		Region: "ra", Cell: [2]int{leaf.Coord.Q, leaf.Coord.R}, UID: 5,
		Policy: policy.Policy{PrivacyLevel: 1}, Seed: 3, Count: 1,
	}

	// Reserve an address with nothing listening on it.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()

	// The first failure backs off 250ms, the second twice that.
	backoff := 250 * time.Millisecond
	clk := clock.NewManual()
	c := stream.NewClient(addr, stream.ClientConfig{
		Timeout:     5 * time.Second,
		DialTimeout: time.Second,
		Now:         clk.Now,
	})
	defer c.Close()

	if !c.Healthy() {
		t.Fatal("fresh client reports unhealthy")
	}
	// Two dial failures open the breaker (one alone must not: it may be a
	// node restarting mid-exchange, which the retry-once policy handles).
	for i := 0; i < 2; i++ {
		if _, err := c.Report(req); err == nil {
			t.Fatal("report succeeded with nothing listening")
		} else if errors.Is(err, stream.ErrNodeDown) {
			t.Fatalf("dial attempt %d failed fast before the breaker should open", i+1)
		}
	}
	if c.Healthy() {
		t.Fatal("client healthy after two refused dials")
	}

	// Breaker open: refusals are immediate, no dial spent.
	dialsBefore := c.Stats().Dials
	start := time.Now()
	if _, err := c.Report(req); !errors.Is(err, stream.ErrNodeDown) {
		t.Fatalf("want ErrNodeDown inside backoff, got %v", err)
	}
	if d := time.Since(start); d > backoff {
		t.Fatalf("fail-fast took %v, longer than the backoff itself", d)
	}
	st := c.Stats()
	if st.Dials != dialsBefore {
		t.Fatalf("fail-fast spent a dial: %d -> %d", dialsBefore, st.Dials)
	}
	if st.FailFast == 0 {
		t.Fatal("fail-fast counter not incremented")
	}

	// Revive the node on the same address.
	serveStream(t, reg, addr)

	// The node is back, but the clock has not moved: the breaker holds.
	if _, err := c.Report(req); !errors.Is(err, stream.ErrNodeDown) {
		t.Fatalf("breaker let a dial through before its backoff expired: %v", err)
	}
	// Once the backoff has expired, the next call is the half-open probe
	// and must find the recovered node.
	clk.Advance(2 * backoff)
	if _, err := c.Report(req); errors.Is(err, stream.ErrNodeDown) {
		t.Fatal("client never returned to a recovered node")
	} else if err != nil {
		t.Fatalf("probe hit recovered node and failed: %v", err)
	}
	if !c.Healthy() {
		t.Fatal("client unhealthy after successful exchange")
	}
	if st := c.Stats(); st.Probes != 1 {
		t.Fatalf("recovery did not go through exactly one half-open probe: %+v", st)
	}

	// The breaker is closed: the next exchange works without waiting.
	if _, err := c.Report(req); err != nil {
		t.Fatalf("report after recovery: %v", err)
	}
}
