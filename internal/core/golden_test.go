package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"corgi/internal/proto"
	"corgi/internal/registry"
)

// goldenForests pins the SHA-256 of the wire-v2 body of forests generated
// from scratch: the whole solve side (equilibration, pivots, Dantzig-Wolfe
// rounds, Algorithm-1 iterations, assembly, matrix codec) has to repeat bit
// for bit for a hash to hold. `sf` is corgi-bench's replay region and r01 the
// first region of its cold_forest pool; level 1 is seven K=7 direct solves,
// level 2 one K=49 decomposition. The hashes were recorded at the commit
// before the array factorisation and the per-generation solver (PR 14).
var goldenForests = []struct {
	spec         registry.Spec
	level, delta int
	sha          string
}{
	{sfSpec, 1, 1, "2a0f0ffff06c241954d248f3a118428aa9b2aa020c792b79e59e6270b3d084ac"},
	{sfSpec, 1, 3, "6eb103f33aa25069a88e160721e77b4736f431772fabd8c09912c07db0bb2ac8"},
	{sfSpec, 2, 1, "e0ba9294ce649b1bc904ed31562c3bfdd86555a2ec732c1d0b04b3245163392c"},
	{sfSpec, 2, 3, "5fb526b594d06ac90e7f179955ee42c53f6bce3a94bbd6002f4cad860087b007"},
	{r01Spec, 2, 1, "604a71a2e2fc7e7a69676510b5c8e72b47acec8b50f94d071d89b1d03a5ebcd3"},
	{r01Spec, 2, 3, "a859a5ee18b43c3e13204f69f70f6f18212fd014c45087d5b6eee03dca329535"},
}

var (
	sfSpec  = registry.Spec{Name: "sf", CenterLat: 37.765, CenterLng: -122.435, Height: 2}
	r01Spec = registry.Spec{Name: "r01", CenterLat: 37.765 + 0.05, CenterLng: -122.435, Height: 2, Seed: 101}
)

func TestForestGolden(t *testing.T) {
	ctx := context.Background()
	reg, err := registry.New([]registry.Spec{sfSpec, r01Spec}, registry.Options{WarmupDelta: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range goldenForests {
		t.Run(fmt.Sprintf("%s/l%d/d%d", g.spec.Name, g.level, g.delta), func(t *testing.T) {
			sh, err := reg.Shard(ctx, g.spec.Name)
			if err != nil {
				t.Fatal(err)
			}
			forest, err := sh.Server.GenerateForestCtx(ctx, g.level, g.delta)
			if err != nil {
				t.Fatal(err)
			}
			wire, err := proto.EncodeForestV2(sh.Server.Tree(), forest)
			if err != nil {
				t.Fatal(err)
			}
			body, err := json.Marshal(wire)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(body)
			if got := hex.EncodeToString(sum[:]); got != g.sha {
				t.Errorf("wire-v2 body hashes to %s, want %s", got, g.sha)
			}
		})
	}
}
