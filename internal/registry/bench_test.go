package registry

import (
	"context"
	"testing"
	"time"

	"corgi/internal/budget"
	"corgi/internal/loctree"
	"corgi/internal/policy"
	"corgi/internal/store"
)

// benchStoreDir precomputes a store for specs once per benchmark run.
func benchStoreDir(b *testing.B, specs []Spec, maxDelta int) string {
	b.Helper()
	dir := b.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	reg, err := New(specs, Options{WarmupDelta: maxDelta, Store: st})
	if err != nil {
		b.Fatal(err)
	}
	if err := reg.BootstrapAll(context.Background()); err != nil {
		b.Fatal(err)
	}
	reg.FlushStores()
	return dir
}

func benchSpecs(names ...string) []Spec {
	specs := make([]Spec, len(names))
	for i, name := range names {
		specs[i] = Spec{
			Name:      name,
			CenterLat: 37.765 + float64(i),
			CenterLng: -122.435,
			Height:    2, Iterations: 1, Targets: 3,
			UniformPriors: true,
		}
	}
	return specs
}

// BenchmarkWarmRestartFirstForest measures the full restart-to-first-byte
// path: bootstrap a shard over a populated store and serve one forest,
// with zero LP solves allowed.
func BenchmarkWarmRestartFirstForest(b *testing.B) {
	specs := benchSpecs("bench-restart")
	dir := benchStoreDir(b, specs, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		reg, err := New(specs, Options{Store: st})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		sh, err := reg.Shard(context.Background(), specs[0].Name)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sh.Server.GenerateForest(1, 0); err != nil {
			b.Fatal(err)
		}
		if est := sh.Server.Stats(); est.Solves != 0 {
			b.Fatalf("warm restart ran %d solves", est.Solves)
		}
	}
}

// mobilityBenchWorld bootstraps one region and returns a leaf from each of
// two level-1 subtrees, warming both forest entries so the measured loops
// see no LP solves.
func mobilityBenchWorld(tb testing.TB, opts Options) (*Registry, loctree.NodeID, loctree.NodeID) {
	tb.Helper()
	reg, err := New(fastSpecs("bench-mob"), opts)
	if err != nil {
		tb.Fatal(err)
	}
	ctx := context.Background()
	sh, err := reg.Shard(ctx, "bench-mob")
	if err != nil {
		tb.Fatal(err)
	}
	tree := sh.Server.Tree()
	roots := tree.LevelNodes(1)
	leafA := tree.LeavesUnder(roots[0])[0]
	leafB := tree.LeavesUnder(roots[1])[0]
	for _, leaf := range []loctree.NodeID{leafA, leafB} {
		if _, err := reg.Report(ctx, ReportRequest{
			Region: "bench-mob", Cell: leaf.Coord, UID: 999,
			Policy: policy.Policy{PrivacyLevel: 1}, Seed: 999,
		}); err != nil {
			tb.Fatal(err)
		}
	}
	return reg, leafA, leafB
}

// BenchmarkReportBudgeted is the warm path with epsilon accounting on —
// the per-report cost of the sliding-window accountant in situ.
func BenchmarkReportBudgeted(b *testing.B) {
	reg, leafA, _ := mobilityBenchWorld(b, Options{
		Budget: budget.Config{LimitEps: 1e18, Window: time.Hour},
	})
	ctx := context.Background()
	req := ReportRequest{
		Region: "bench-mob", Cell: leafA.Coord, UID: 1,
		Policy: policy.Policy{PrivacyLevel: 1}, Seed: 1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Report(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}
