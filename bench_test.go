// Micro-benchmarks of the pipeline stages corgi-bench does not measure
// (forest generation by worker count, v1 encoding, dense pruning,
// precision reduction); run with
//
//	go test -bench=. -benchmem
package corgi

import (
	"context"
	"encoding/json"
	"testing"

	"corgi/internal/core"
	"corgi/internal/mechanism"
	"corgi/internal/obf"
	"corgi/internal/proto"
)

func benchSetup(b *testing.B) (*Region, *Priors) {
	b.Helper()
	region, err := NewRegion(SanFrancisco.Center(), 0.1, 2)
	if err != nil {
		b.Fatal(err)
	}
	return region, UniformPriors(region.Tree)
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
	probs := make([]float64, len(targets))
	for i := range probs {
		probs[i] = 1
	}
	params := Params{Epsilon: 15, Iterations: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		server, err := core.NewServerWithOptions(region.Tree, priors, targets, probs, params, core.EngineOptions{Workers: workers})
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

// benchWireSetup builds the 49x49 root forest for encoding benchmarks.
func benchWireSetup(b *testing.B) (*Region, *Forest) {
	b.Helper()
	region, priors := benchSetup(b)
	targets, _ := RandomLeafTargets(region.Tree, 10, 1)
	server, err := NewServer(region, priors, targets, Params{
		Epsilon: 15, Iterations: 1,
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

// BenchmarkMatrixPrune measures pruning 2 of 49 locations.
func BenchmarkMatrixPrune(b *testing.B) {
	region, priors := benchSetup(b)
	targets, _ := RandomLeafTargets(region.Tree, 10, 1)
	server, err := NewServer(region, priors, targets, Params{
		Epsilon: 15, Iterations: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	entry, err := server.GenerateEntryCtx(context.Background(), region.Tree.Root(), 2)
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
	region, priors := benchSetup(b)
	targets, _ := RandomLeafTargets(region.Tree, 10, 1)
	server, err := NewServer(region, priors, targets, Params{
		Epsilon: 15, Iterations: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	entry, err := server.GenerateEntryCtx(context.Background(), region.Tree.Root(), 0)
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
