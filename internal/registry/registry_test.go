package registry

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// fastSpecs returns n cheap-to-bootstrap region specs (uniform priors, so
// no synthetic check-in generation runs).
func fastSpecs(names ...string) []Spec {
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

func TestSpecDefaultsAndValidation(t *testing.T) {
	s := Spec{Name: "x", CenterLat: 37.7, CenterLng: -122.4}.withDefaults()
	if s.LeafSpacingKm != 0.1 || s.Height != 2 || s.Epsilon != 15 ||
		s.Iterations != 5 || s.Targets != 20 || s.SyntheticCheckIns != 38523 {
		t.Errorf("defaults not applied: %+v", s)
	}
	if s.Seed == 0 {
		t.Error("default seed must be nonzero")
	}
	if other := (Spec{Name: "y", CenterLat: 37.7, CenterLng: -122.4}).withDefaults(); other.Seed == s.Seed {
		t.Error("distinct names must derive distinct seeds")
	}

	for _, bad := range []Spec{
		{CenterLat: 1, CenterLng: 1},               // no name
		{Name: "a b", CenterLat: 1, CenterLng: 1},  // reserved char
		{Name: "q?x", CenterLat: 1, CenterLng: 1},  // reserved char
		{Name: "far", CenterLat: 91, CenterLng: 0}, // bad center
		{Name: "neg", CenterLat: 1, CenterLng: 1, Height: -1},
		{Name: "many", CenterLat: 1, CenterLng: 1, Height: 1, Targets: 8}, // 8 targets, 7 leaves
		{Name: "short", CenterLat: 1, CenterLng: 1, Height: 1},            // the default 20 targets, 7 leaves
		// Non-finite values pass the sign checks and break Hash.
		{Name: "nan-eps", CenterLat: 1, CenterLng: 1, Epsilon: math.NaN()},
		{Name: "inf-eps", CenterLat: 1, CenterLng: 1, Epsilon: math.Inf(1)},
		{Name: "nan-spacing", CenterLat: 1, CenterLng: 1, LeafSpacingKm: math.NaN()},
		{Name: "inf-spacing", CenterLat: 1, CenterLng: 1, LeafSpacingKm: math.Inf(1)},
		// Uniform priors skip the sample, but the metadata of a
		// preference-bearing report is still synthesized from it.
		{Name: "few", CenterLat: 1, CenterLng: 1, UniformPriors: true, SyntheticCheckIns: 100},
	} {
		if err := bad.withDefaults().validate(); err == nil {
			t.Errorf("spec %+v must fail validation", bad)
		}
	}
}

func TestNewRejectsDuplicatesAndEmpty(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Error("empty spec list must fail")
	}
	if _, err := New(fastSpecs("a", "a"), Options{}); err == nil {
		t.Error("duplicate names must fail")
	}
}

func TestUnknownRegionErrorListsAvailable(t *testing.T) {
	r, err := New(fastSpecs("sf", "nyc"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Shard(context.Background(), "atlantis")
	if !errors.Is(err, ErrUnknownRegion) {
		t.Fatalf("want ErrUnknownRegion, got %v", err)
	}
	if !strings.Contains(err.Error(), "sf") || !strings.Contains(err.Error(), "nyc") {
		t.Errorf("error must list available regions: %v", err)
	}
}

func TestLazyBootstrapSingleflight(t *testing.T) {
	r, err := New(fastSpecs("sf", "nyc"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Ready("sf") {
		t.Fatal("no shard may exist before first use")
	}
	if names := r.Names(); r.DefaultRegion() != "sf" || strings.Join(names, ",") != "sf,nyc" {
		t.Fatalf("names %v default %q, want [sf nyc] default sf", names, r.DefaultRegion())
	}

	const waiters = 32
	shards := make([]*Shard, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sh, err := r.Shard(context.Background(), "sf")
			if err != nil {
				t.Error(err)
				return
			}
			shards[i] = sh
		}(i)
	}
	wg.Wait()
	for i := 1; i < waiters; i++ {
		if shards[i] != shards[0] {
			t.Fatal("concurrent first requests must share one shard")
		}
	}
	if got := r.Bootstraps(); got != 1 {
		t.Fatalf("32 concurrent first requests ran %d bootstraps, want 1", got)
	}
	if !r.Ready("sf") || r.Ready("nyc") {
		t.Error("only the requested region may be bootstrapped")
	}

	// Default region resolution: empty name means the first spec.
	sh, err := r.Shard(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	if sh.Spec.Name != "sf" {
		t.Errorf("default region resolved to %q, want sf", sh.Spec.Name)
	}
}

func TestShardWaiterHonorsContext(t *testing.T) {
	r, err := New(fastSpecs("sf"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := r.Shard(ctx, "sf"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired context must fail fast, got %v", err)
	}
	// The region remains bootstrappable afterwards.
	if _, err := r.Shard(context.Background(), "sf"); err != nil {
		t.Fatal(err)
	}
}

func TestBootstrapAllAndStats(t *testing.T) {
	r, err := New(fastSpecs("a", "b", "c"), Options{WarmupDelta: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.BootstrapAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := r.Bootstraps(); got != 3 {
		t.Fatalf("bootstraps = %d, want 3", got)
	}
	stats := r.Stats()
	if len(stats) != 3 {
		t.Fatalf("stats over %d shards, want 3", len(stats))
	}
	var wantSolves uint64
	for name, s := range stats {
		if s.Solves == 0 {
			t.Errorf("region %q warmed up with 0 solves", name)
		}
		wantSolves += s.Solves
	}
	agg := r.AggregateStats()
	if agg.Solves != wantSolves {
		t.Errorf("aggregate solves %d, want %d", agg.Solves, wantSolves)
	}
	if agg.Workers != 3*stats["a"].Workers {
		t.Errorf("aggregate workers %d, want 3x shard's %d", agg.Workers, stats["a"].Workers)
	}
}

func TestSyntheticPriorsDifferPerRegion(t *testing.T) {
	specs := fastSpecs("p", "q")
	for i := range specs {
		specs[i].UniformPriors = false
		specs[i].SyntheticCheckIns = 2000
	}
	r, err := New(specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	shP, err := r.Shard(context.Background(), "p")
	if err != nil {
		t.Fatal(err)
	}
	shQ, err := r.Shard(context.Background(), "q")
	if err != nil {
		t.Fatal(err)
	}
	pTree, qTree := shP.Server.Tree(), shQ.Server.Tree()
	pl, err := shP.Server.Priors().Subset(pTree, pTree.LevelNodes(0), false)
	if err != nil {
		t.Fatal(err)
	}
	ql, err := shQ.Server.Priors().Subset(qTree, qTree.LevelNodes(0), false)
	if err != nil {
		t.Fatal(err)
	}
	if pTree.NumLeaves() != qTree.NumLeaves() {
		t.Fatal("same height regions must match in leaf count")
	}
	same := true
	for i := range pl {
		if pl[i] != ql[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("distinct regions produced identical synthetic priors")
	}
}

func TestParseSpecs(t *testing.T) {
	specs, err := ParseSpecs([]byte(`[
		{"name": "sf", "center_lat": 37.765, "center_lng": -122.435, "height": 3},
		{"name": "nyc", "center_lat": 40.71, "center_lng": -74.0, "epsilon": 10}
	]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Height != 3 || specs[1].Epsilon != 10 {
		t.Errorf("parsed %+v", specs)
	}
	if _, err := ParseSpecs([]byte(`[]`)); err == nil {
		t.Error("empty config must fail")
	}
	if _, err := ParseSpecs([]byte(`{`)); err == nil {
		t.Error("malformed config must fail")
	}
}

func TestBuiltins(t *testing.T) {
	names := BuiltinNames()
	if len(names) == 0 || names[0] != "sf" {
		t.Fatalf("builtin names: %v", names)
	}
	for _, name := range names {
		s, ok := BuiltinSpec(name)
		if !ok {
			t.Fatalf("builtin %q missing", name)
		}
		if err := s.withDefaults().validate(); err != nil {
			t.Errorf("builtin %q invalid: %v", name, err)
		}
	}
	if _, ok := BuiltinSpec("atlantis"); ok {
		t.Error("unknown builtin must miss")
	}
}
