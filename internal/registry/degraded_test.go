package registry

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"corgi/internal/core"
	"corgi/internal/policy"
	"corgi/internal/store"
)

// degradedTestRegistry serves degraded with the background solve held back:
// a solve consults the store before it runs, the store consults its peer
// hook on a local miss, and the hook here lets the first ask through (the
// report's own, on its way to the fallback) and parks every later one (the
// solve's) until land is called. So a report made before land() cannot see
// the optimal entry, whatever the scheduler does.
func degradedTestRegistry(t *testing.T) (reg *Registry, land func()) {
	t.Helper()
	st := openStore(t, t.TempDir())
	release := make(chan struct{})
	var asks atomic.Int32
	st.SetPeerFetch(func(store.Key) ([]byte, error) {
		if asks.Add(1) > 1 {
			<-release
		}
		return nil, store.ErrNotFound
	})
	var once sync.Once
	land = func() { once.Do(func() { close(release) }) }
	t.Cleanup(land) // a failed test must not leave the solve parked
	// WarmupDelta -1 keeps bootstrap from precomputing the (level, 0)
	// forests — the whole point is hitting the cold path.
	reg, err := New(fastSpecs("deg-a"), Options{
		Engine:      core.EngineOptions{DegradedServing: true},
		WarmupDelta: -1,
		Store:       st,
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg, land
}

// TestReportDegradedColdThenUpgraded drives the degraded fast path through
// the full report pipeline: the first cold report is flagged degraded and
// served from the planar fallback; once the background solve lands, the
// resident session upgrades in place and reports stop being degraded.
func TestReportDegradedColdThenUpgraded(t *testing.T) {
	reg, land := degradedTestRegistry(t)
	ctx := context.Background()
	req := ReportRequest{
		Region: "deg-a",
		Cell:   centerCell(t, reg, "deg-a"),
		UID:    3,
		Policy: policy.Policy{PrivacyLevel: 1},
		Seed:   99,
	}
	res, err := reg.Report(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("cold report on a degraded-serving shard was not flagged degraded")
	}
	sh, _ := reg.Shard(ctx, "deg-a")
	land()
	sh.Server.WaitUpgrades()
	res2, err := reg.Report(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Degraded {
		t.Fatal("report still degraded after the background solve landed")
	}
	if st := sh.Server.Stats(); st.DegradedBuilds != 1 || st.DegradedUpgrades != 1 {
		t.Fatalf("counters: builds=%d upgrades=%d, want 1/1", st.DegradedBuilds, st.DegradedUpgrades)
	}
}

// TestReportDegradedUpgradeKeepsStreamAligned is the trajectory-equivalence
// guarantee for degraded serving: a session that starts on the planar
// fallback and upgrades mid-stream produces the same post-upgrade draw
// sequence as one that was optimal from the first report. Each alias draw
// consumes exactly one RNG variate regardless of which matrix backs it, so
// the upgrade shifts no positions — draw k is draw k on both sessions.
func TestReportDegradedUpgradeKeepsStreamAligned(t *testing.T) {
	ctx := context.Background()
	mkReq := func() ReportRequest {
		return ReportRequest{
			UID:    11,
			Policy: policy.Policy{PrivacyLevel: 1},
			Seed:   1234,
			Count:  4,
		}
	}

	// Degraded stream: first request served from the fallback, then the
	// upgrade lands, then more draws.
	degReg, land := degradedTestRegistry(t)
	dreq := mkReq()
	dreq.Region = "deg-a"
	dreq.Cell = centerCell(t, degReg, "deg-a")
	first, err := degReg.Report(ctx, dreq)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Degraded {
		t.Fatal("first report was not degraded; test precondition broken")
	}
	sh, _ := degReg.Shard(ctx, "deg-a")
	land()
	sh.Server.WaitUpgrades()
	var degraded []string
	for i := 0; i < 3; i++ {
		res, err := degReg.Report(ctx, dreq)
		if err != nil {
			t.Fatal(err)
		}
		if res.Degraded {
			t.Fatalf("post-upgrade request %d still degraded", i)
		}
		for _, n := range res.Reports {
			degraded = append(degraded, n.String())
		}
	}

	// Optimal-from-the-start stream: same region spec (the registry derives
	// the seed from the name, so specs must match), same uid/seed/policy,
	// same request shape — but no degraded serving.
	optReg, err := New(fastSpecs("deg-a"), Options{WarmupDelta: -1})
	if err != nil {
		t.Fatal(err)
	}
	oreq := mkReq()
	oreq.Region = "deg-a"
	oreq.Cell = centerCell(t, optReg, "deg-a")
	if _, err := optReg.Report(ctx, oreq); err != nil { // burn request 1
		t.Fatal(err)
	}
	var optimal []string
	for i := 0; i < 3; i++ {
		res, err := optReg.Report(ctx, oreq)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range res.Reports {
			optimal = append(optimal, n.String())
		}
	}

	if len(degraded) != len(optimal) {
		t.Fatalf("draw counts differ: %d vs %d", len(degraded), len(optimal))
	}
	for i := range degraded {
		if degraded[i] != optimal[i] {
			t.Fatalf("post-upgrade draw %d differs: %s (upgraded stream) vs %s (optimal stream)",
				i, degraded[i], optimal[i])
		}
	}
}
