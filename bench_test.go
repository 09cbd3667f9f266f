// Benchmarks regenerating the paper's evaluation, one per figure (the
// experiments themselves are documented in internal/eval). Each
// benchmark runs the corresponding experiment at quick scale per
// iteration; run with
//
//	go test -bench=. -benchmem
//
// plus micro-benchmarks of the pipeline stages (matrix generation, pruning,
// precision reduction, sampling).
package corgi

import (
	"encoding/json"
	"testing"

	"corgi/internal/eval"
	"corgi/internal/mechanism"
	"corgi/internal/obf"
	"corgi/internal/proto"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	run, ok := eval.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	cfg := &eval.Config{Quick: true, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9Convergence regenerates Fig. 9 (Algorithm-1 convergence).
func BenchmarkFig9Convergence(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10aGraphApproxTime regenerates Fig. 10(a) (runtime with vs
// without the graph approximation).
func BenchmarkFig10aGraphApproxTime(b *testing.B) { benchExperiment(b, "fig10a") }

// BenchmarkFig10bConstraintCount regenerates Fig. 10(b) (constraint counts).
func BenchmarkFig10bConstraintCount(b *testing.B) { benchExperiment(b, "fig10b") }

// BenchmarkFig11PrivacyParams regenerates Fig. 11 (quality loss vs epsilon
// and delta).
func BenchmarkFig11PrivacyParams(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkFig12PruneViolations regenerates Fig. 12 (violations vs pruned
// locations).
func BenchmarkFig12PruneViolations(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkFig13PrivacyLevel regenerates Fig. 13 (quality loss vs privacy
// level).
func BenchmarkFig13PrivacyLevel(b *testing.B) { benchExperiment(b, "fig13") }

// BenchmarkFig14PrecisionReduction regenerates Fig. 14 (precision reduction
// vs matrix recalculation).
func BenchmarkFig14PrecisionReduction(b *testing.B) { benchExperiment(b, "fig14") }

// BenchmarkHeadline regenerates the abstract's headline violation numbers.
func BenchmarkHeadline(b *testing.B) { benchExperiment(b, "headline") }

// --- micro-benchmarks of the pipeline stages ---

func benchSetup(b *testing.B) (*Region, *Priors, *Forest) {
	b.Helper()
	region, err := NewRegion(SanFrancisco.Center(), 0.1, 2)
	if err != nil {
		b.Fatal(err)
	}
	priors := UniformPriors(region.Tree)
	targets, err := RandomLeafTargets(region.Tree, 10, 1)
	if err != nil {
		b.Fatal(err)
	}
	server, err := NewServer(region, priors, targets, Params{
		Epsilon: 15, Iterations: 2, UseGraphApprox: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	forest, err := server.GenerateForest(1, 2)
	if err != nil {
		b.Fatal(err)
	}
	return region, priors, forest
}

// BenchmarkGenerateMatrixK7 measures one non-robust matrix generation for a
// 7-cell subtree (the privacy-level-1 unit of work).
func BenchmarkGenerateMatrixK7(b *testing.B) {
	region, priors, _ := benchSetup(b)
	targets, _ := RandomLeafTargets(region.Tree, 10, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		server, err := NewServer(region, priors, targets, Params{
			Epsilon: 15, Iterations: 1, UseGraphApprox: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := server.GenerateEntry(region.Tree.LevelNodes(1)[0], 0); err != nil {
			b.Fatal(err)
		}
	}
}

// benchGenerateForest measures a full privacy-level-1 forest generation
// (7 independent subtree LP solves on the height-2 tree) at a given engine
// worker count. A fresh server per iteration defeats the cache, so each
// iteration pays the real solve cost; comparing Workers=1 against Workers=4
// shows the worker-pool speedup.
func benchGenerateForest(b *testing.B, workers int) {
	region, err := NewRegion(SanFrancisco.Center(), 0.1, 2)
	if err != nil {
		b.Fatal(err)
	}
	priors := UniformPriors(region.Tree)
	targets, err := RandomLeafTargets(region.Tree, 10, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := ServerConfig{
		Params: Params{Epsilon: 15, Iterations: 2, UseGraphApprox: true},
		Engine: EngineOptions{Workers: workers},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		server, err := NewServerWithConfig(region, priors, targets, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := server.GenerateForest(1, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateForestWorkers1(b *testing.B) { benchGenerateForest(b, 1) }
func BenchmarkGenerateForestWorkers2(b *testing.B) { benchGenerateForest(b, 2) }
func BenchmarkGenerateForestWorkers4(b *testing.B) { benchGenerateForest(b, 4) }

// BenchmarkGenerateForestCached measures the warm path: the whole forest is
// served from the engine's cache.
func BenchmarkGenerateForestCached(b *testing.B) {
	region, priors, _ := benchSetup(b)
	targets, _ := RandomLeafTargets(region.Tree, 10, 1)
	server, err := NewServer(region, priors, targets, Params{
		Epsilon: 15, Iterations: 2, UseGraphApprox: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := server.GenerateForest(1, 2); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := server.GenerateForest(1, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWireSetup builds the 49x49 root forest for encoding benchmarks.
func benchWireSetup(b *testing.B) (*Region, *Forest) {
	b.Helper()
	region, priors, _ := benchSetup(b)
	targets, _ := RandomLeafTargets(region.Tree, 10, 1)
	server, err := NewServer(region, priors, targets, Params{
		Epsilon: 15, Iterations: 1, UseGraphApprox: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	forest, err := server.GenerateForest(2, 1)
	if err != nil {
		b.Fatal(err)
	}
	return region, forest
}

// BenchmarkWireEncodeV1 measures dense-JSON forest encoding and reports the
// payload size.
func BenchmarkWireEncodeV1(b *testing.B) {
	region, forest := benchWireSetup(b)
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		resp, err := proto.EncodeForestV1(region.Tree, forest)
		if err != nil {
			b.Fatal(err)
		}
		buf, err := json.Marshal(resp)
		if err != nil {
			b.Fatal(err)
		}
		n = len(buf)
	}
	b.ReportMetric(float64(n), "payload-bytes")
}

// BenchmarkWireEncodeV2 measures the compact quantized row-sparse encoding
// and reports the payload size for comparison with v1.
func BenchmarkWireEncodeV2(b *testing.B) {
	region, forest := benchWireSetup(b)
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		resp, err := proto.EncodeForestV2(region.Tree, forest)
		if err != nil {
			b.Fatal(err)
		}
		buf, err := json.Marshal(resp)
		if err != nil {
			b.Fatal(err)
		}
		n = len(buf)
	}
	b.ReportMetric(float64(n), "payload-bytes")
}

// BenchmarkMatrixPrune measures pruning 2 of 49 locations.
func BenchmarkMatrixPrune(b *testing.B) {
	region, priors, _ := benchSetup(b)
	targets, _ := RandomLeafTargets(region.Tree, 10, 1)
	server, err := NewServer(region, priors, targets, Params{
		Epsilon: 15, Iterations: 1, UseGraphApprox: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	entry, err := server.GenerateEntry(region.Tree.Root(), 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := entry.Matrix.Prune([]int{3, 17}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrecisionReduce measures Equ. (17) for 49 leaves -> 7 nodes.
func BenchmarkPrecisionReduce(b *testing.B) {
	region, priors, _ := benchSetup(b)
	targets, _ := RandomLeafTargets(region.Tree, 10, 1)
	server, err := NewServer(region, priors, targets, Params{
		Epsilon: 15, Iterations: 1, UseGraphApprox: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	entry, err := server.GenerateEntry(region.Tree.Root(), 0)
	if err != nil {
		b.Fatal(err)
	}
	groups, _, err := mechanism.GroupByAncestor(region.Tree, entry.Leaves, 1)
	if err != nil {
		b.Fatal(err)
	}
	leafPriors, err := priors.Subset(region.Tree, entry.Leaves, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := obf.PrecisionReduce(entry.Matrix, groups, leafPriors); err != nil {
			b.Fatal(err)
		}
	}
}
