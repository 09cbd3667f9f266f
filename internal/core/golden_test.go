package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"corgi/internal/proto"
	"corgi/internal/registry"
)

// goldenForests pins the SHA-256 of the wire-v2 body of forests generated
// from scratch: the whole solve side (equilibration, pivots, Dantzig-Wolfe
// rounds, Algorithm-1 iterations, assembly, matrix codec) has to repeat bit
// for bit for a hash to hold. `sf` is corgi-bench's replay region and rNN
// region NN of its cold_forest pool; level 1 is seven K=7 direct solves,
// level 2 one K=49 decomposition. The first six hashes were recorded at the
// commit before the array factorisation and the per-generation solver
// (PR 14); the four delta-2 rows (the delta cold_forest runs) at the commit
// before warm installs began to keep their factorisation and workspaces to
// cross generations (PR 19).
var goldenForests = []struct {
	spec         registry.Spec
	level, delta int
	sha          string
}{
	{sfSpec, 1, 1, "2a0f0ffff06c241954d248f3a118428aa9b2aa020c792b79e59e6270b3d084ac"},
	{sfSpec, 1, 3, "6eb103f33aa25069a88e160721e77b4736f431772fabd8c09912c07db0bb2ac8"},
	{sfSpec, 2, 1, "e0ba9294ce649b1bc904ed31562c3bfdd86555a2ec732c1d0b04b3245163392c"},
	{sfSpec, 2, 3, "5fb526b594d06ac90e7f179955ee42c53f6bce3a94bbd6002f4cad860087b007"},
	{poolSpec(1), 2, 1, "604a71a2e2fc7e7a69676510b5c8e72b47acec8b50f94d071d89b1d03a5ebcd3"},
	{poolSpec(1), 2, 3, "a859a5ee18b43c3e13204f69f70f6f18212fd014c45087d5b6eee03dca329535"},
	{sfSpec, 2, 2, "d31cfc916660ee992bace881b22c636e2e91f978117c7195b56ef77dc42d2074"},
	{poolSpec(3), 2, 2, "2c6097f750d2dea4f3a475d62d5ecd45fdb3bbe08aed837f57191787e4cb7282"},
	{poolSpec(5), 2, 2, "83369f3c0846b0b9e0bf5175ffe9876c18d6d40c4a51a9d80377e7d141d2f097"},
	{poolSpec(6), 2, 2, "73a4c93b35436a0208eb98f737d7df469dd58a63684a7d351b08b09184592b65"},
}

var sfSpec = registry.Spec{Name: "sf", CenterLat: 37.765, CenterLng: -122.435, Height: 2}

// poolSpec is region j of corgi-bench's cold_forest pool (bench/forest.go).
func poolSpec(j int) registry.Spec {
	return registry.Spec{
		Name:      fmt.Sprintf("r%02d", j),
		CenterLat: 37.765 + 0.05*float64(j), CenterLng: -122.435,
		Height: 2, Seed: int64(100 + j),
	}
}

// goldenRegistry is a fresh registry over every golden region: nothing
// solved, nothing cached, shards bootstrapping on first use.
func goldenRegistry(t *testing.T) *registry.Registry {
	t.Helper()
	var specs []registry.Spec
	seen := map[string]bool{}
	for _, g := range goldenForests {
		if !seen[g.spec.Name] {
			seen[g.spec.Name] = true
			specs = append(specs, g.spec)
		}
	}
	reg, err := registry.New(specs, registry.Options{WarmupDelta: -1})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// forestSHA generates one forest on reg and hashes its wire-v2 body.
func forestSHA(ctx context.Context, reg *registry.Registry, region string, level, delta int) (string, error) {
	sh, err := reg.Shard(ctx, region)
	if err != nil {
		return "", err
	}
	forest, err := sh.Server.GenerateForestCtx(ctx, level, delta)
	if err != nil {
		return "", err
	}
	wire, err := proto.EncodeForestV2(sh.Server.Tree(), forest)
	if err != nil {
		return "", err
	}
	body, err := json.Marshal(wire)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:]), nil
}

func TestForestGolden(t *testing.T) {
	ctx := context.Background()
	reg := goldenRegistry(t)
	for _, g := range goldenForests {
		t.Run(fmt.Sprintf("%s/l%d/d%d", g.spec.Name, g.level, g.delta), func(t *testing.T) {
			got, err := forestSHA(ctx, reg, g.spec.Name, g.level, g.delta)
			if err != nil {
				t.Fatal(err)
			}
			if got != g.sha {
				t.Errorf("wire-v2 body hashes to %s, want %s", got, g.sha)
			}
		})
	}
}

// TestConcurrentGenerationsGolden runs four goroutines of three K=49
// generations each, all drawing their LP workspaces from the one pool
// GenerateCtx keeps. A workspace handed back by one generation and picked up
// by another (or, the bug this guards against, by two at once) must leave no
// trace: every forest hashes to its golden row. Each goroutine has its own
// registry so that no forest comes from an engine cache, and starts at a
// different row so that the pool sees workspaces of every history.
func TestConcurrentGenerationsGolden(t *testing.T) {
	var k49 []int
	for i, g := range goldenForests {
		if g.level == 2 {
			k49 = append(k49, i)
		}
	}
	ctx := context.Background()
	const workers, each = 4, 3
	errs := make(chan error, workers*each)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		reg := goldenRegistry(t)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				g := goldenForests[k49[(2*w+i)%len(k49)]]
				got, err := forestSHA(ctx, reg, g.spec.Name, g.level, g.delta)
				if err == nil && got != g.sha {
					err = fmt.Errorf("hashes to %s, want %s", got, g.sha)
				}
				if err != nil {
					errs <- fmt.Errorf("worker %d, %s delta %d: %w", w, g.spec.Name, g.delta, err)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
