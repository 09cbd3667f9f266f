package registry

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"corgi/internal/core"
	"corgi/internal/store"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// precompute bootstraps every region with warmup over a store directory
// and flushes the write-backs — exactly what cmd/corgi-gen does.
func precompute(t *testing.T, dir string, specs []Spec, maxDelta int) {
	t.Helper()
	reg, err := New(specs, Options{WarmupDelta: maxDelta, Store: openStore(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.BootstrapAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	reg.FlushStores()
}

// restart opens a brand-new registry over dir's store, as a restarted
// process would. A forest it solves is written back asynchronously, and a
// write-back still running when the test returns races the removal of the
// test's TempDir; cleanups run last-registered first and dir came from
// t.TempDir() before this call, so the drain registered here runs first.
func restart(t *testing.T, dir string, specs []Spec) *Registry {
	t.Helper()
	reg, err := New(specs, Options{Store: openStore(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.FlushStores)
	return reg
}

// TestNewRejectsRawEngineStore guards against a caller wiring one
// un-namespaced store into every shard: bare (level, delta) keys would
// cross-serve forests between regions.
func TestNewRejectsRawEngineStore(t *testing.T) {
	ms := struct{ core.ForestStore }{}
	_, err := New(fastSpecs("a", "b"), Options{Engine: core.EngineOptions{Store: ms}})
	if err == nil || !strings.Contains(err.Error(), "Options.Store") {
		t.Fatalf("raw Engine.Store accepted: %v", err)
	}
}

func TestSpecHashStableAndSensitive(t *testing.T) {
	a := Spec{Name: "x", CenterLat: 37.7, CenterLng: -122.4}
	if a.Hash() != a.Hash() {
		t.Fatal("hash not deterministic")
	}
	// Defaults are applied before hashing, so a spec written tersely and
	// one written with its defaults spelled out address the same
	// snapshots.
	explicit := a.withDefaults()
	if a.Hash() != explicit.Hash() {
		t.Error("defaulted and explicit specs must hash identically")
	}
	for _, changed := range []Spec{
		{Name: "y", CenterLat: 37.7, CenterLng: -122.4},
		{Name: "x", CenterLat: 37.8, CenterLng: -122.4},
		{Name: "x", CenterLat: 37.7, CenterLng: -122.4, Epsilon: 10},
		{Name: "x", CenterLat: 37.7, CenterLng: -122.4, Height: 3},
		{Name: "x", CenterLat: 37.7, CenterLng: -122.4, Seed: 99},
		{Name: "x", CenterLat: 37.7, CenterLng: -122.4, UniformPriors: true},
	} {
		if changed.Hash() == a.Hash() {
			t.Errorf("spec change %+v did not change the hash", changed)
		}
	}
	if len(a.Hash()) != 64 {
		t.Errorf("hash %q is not 64 hex chars", a.Hash())
	}
}

// TestWarmRestartServesWithZeroSolves is the acceptance test: a registry
// started over a store populated for its exact specs serves the first
// forest request for every precomputed (region, level, delta) with zero LP
// solves.
func TestWarmRestartServesWithZeroSolves(t *testing.T) {
	dir := t.TempDir()
	specs := fastSpecs("wr-a", "wr-b")
	const maxDelta = 1
	precompute(t, dir, specs, maxDelta)

	reg := restart(t, dir, specs)
	ctx := context.Background()
	for _, name := range reg.Names() {
		sh, err := reg.Shard(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		for level := 1; level <= sh.Server.Tree().Height(); level++ {
			for delta := 0; delta <= maxDelta; delta++ {
				if _, err := sh.Server.GenerateForest(level, delta); err != nil {
					t.Fatalf("%s L%d d%d: %v", name, level, delta, err)
				}
			}
		}
		st := sh.Server.Stats()
		if st.Solves != 0 {
			t.Fatalf("region %s ran %d LP solves on a warm restart, want 0 (stats %+v)",
				name, st.Solves, st)
		}
		if st.StoreHydrated == 0 {
			t.Fatalf("region %s hydrated nothing from the store", name)
		}
	}
	// Beyond the precomputed range, the engine must still compute.
	sh, err := reg.Shard(ctx, specs[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Server.GenerateForest(1, maxDelta+1); err != nil {
		t.Fatal(err)
	}
	if st := sh.Server.Stats(); st.Solves == 0 {
		t.Fatal("un-precomputed delta must fall through to compute")
	}
}

// TestChangedSpecInvalidatesSnapshots changes a region's priors (seed)
// between precompute and restart and checks the stale snapshots are not
// served: the new spec hash addresses an empty corner of the store, so the
// engine recomputes everything.
func TestChangedSpecInvalidatesSnapshots(t *testing.T) {
	dir := t.TempDir()
	specs := fastSpecs("inv")
	precompute(t, dir, specs, 0)

	changed := fastSpecs("inv")
	changed[0].UniformPriors = false
	changed[0].SyntheticCheckIns = 600
	changed[0].Seed = 4242 // different priors -> different mechanisms
	if changed[0].Hash() == specs[0].Hash() {
		t.Fatal("test premise broken: spec change did not change hash")
	}
	reg := restart(t, dir, changed)
	sh, err := reg.Shard(context.Background(), "inv")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Server.GenerateForest(1, 0); err != nil {
		t.Fatal(err)
	}
	st := sh.Server.Stats()
	if st.StoreHydrated != 0 {
		t.Fatalf("stale snapshots hydrated under a changed spec: %+v", st)
	}
	if st.Solves == 0 {
		t.Fatalf("changed spec served stale snapshots instead of recomputing: %+v", st)
	}
}

// TestCorruptSnapshotFallsThroughToCompute truncates one snapshot on disk
// and checks a restarted registry recomputes that forest (and only
// re-persists it), while intact snapshots still hydrate.
func TestCorruptSnapshotFallsThroughToCompute(t *testing.T) {
	dir := t.TempDir()
	specs := fastSpecs("cor")
	precompute(t, dir, specs, 0)

	// Truncate the level-1 snapshot behind the store's back.
	specDir := filepath.Join(dir, specs[0].Hash()[:16])
	snapPath := filepath.Join(specDir, "L1_d0.snap")
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapPath, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	reg := restart(t, dir, specs)
	sh, err := reg.Shard(context.Background(), "cor")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Server.GenerateForest(1, 0); err != nil {
		t.Fatal(err)
	}
	st := sh.Server.Stats()
	if st.Solves == 0 {
		t.Fatal("corrupt snapshot must fall through to compute")
	}
	// The height-2 tree has a level-2 snapshot too; that one must have
	// hydrated normally.
	if st.StoreHydrated == 0 {
		t.Fatalf("intact sibling snapshot did not hydrate: %+v", st)
	}
	// The recomputed forest write-back replaces the corrupt file.
	sh.Server.FlushStore()
	st2 := openStore(t, dir)
	if _, err := st2.Load(store.Key{SpecHash: specs[0].Hash(), Level: 1, Delta: 0}); err != nil {
		t.Fatalf("recomputed snapshot not re-persisted cleanly: %v", err)
	}
}

// TestPrecomputeIsIncremental reruns precompute over a populated store and
// checks nothing is re-solved — the corgi-gen rerun path.
func TestPrecomputeIsIncremental(t *testing.T) {
	dir := t.TempDir()
	specs := fastSpecs("inc")
	precompute(t, dir, specs, 0)

	reg, err := New(specs, Options{WarmupDelta: 0, Store: openStore(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.BootstrapAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	reg.FlushStores()
	if st := reg.AggregateStats(); st.Solves != 0 {
		t.Fatalf("precompute rerun re-solved %d forests", st.Solves)
	}
}
