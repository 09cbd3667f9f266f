// Command corgi-gen precomputes privacy forests offline and populates a
// persistent forest store directory that corgi-server mounts with -store.
// The iterated LP solves behind every robust matrix are the deployment
// bottleneck, and the mechanisms are static per (prior, epsilon, delta) —
// so they are paid here, once, instead of on the serving path: a server
// started over a populated store serves every precomputed (region, level,
// delta) forest with zero LP solves.
//
// Regions come from -regions (builtin metro names) or -region-config (the
// same JSON spec file corgi-server takes), and the generation-default
// flags (-eps, -height, -spacing, -iters, -targets, -seed, -checkins,
// -uniform-priors) are corgi-server's own: both binaries declare them
// through registry.SpecDefaults.Bind and assemble specs through
// registry.BuildSpecs, so precomputing and serving with the same flags
// addresses the same spec hashes by construction. For every
// region, every privacy level of its tree is generated for deltas
// 0..-max-delta and written as checksummed snapshots keyed by the
// region's spec hash — rerunning after a spec change recomputes only
// under the new hash, leaving nothing stale to serve.
//
// The original synthetic check-in generator lives on behind -checkins-out:
// it writes a Gowalla-format sample (user <TAB> RFC3339-time <TAB> lat
// <TAB> lng <TAB> place-id) so the toolchain can run without the real
// dataset.
//
// Usage:
//
//	corgi-gen -store ./forests [region and generation flags, -max-delta, -workers]
//	corgi-gen -checkins-out checkins.txt [-n, -users, -places, -gen-seed]
//
// corgi-gen -h lists every flag with its default.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"corgi/internal/core"
	"corgi/internal/gowalla"
	"corgi/internal/registry"
	"corgi/internal/store"
)

// options is corgi-gen's flags, one field each.
type options struct {
	storeDir          string
	spec              registry.SpecDefaults
	maxDelta, workers int

	checkinsOut      string
	n, users, places int
	genSeed          int64
}

// bind declares corgi-gen's flags on fs. The region flags are the ones
// corgi-server declares, through the same binder: the precomputed spec
// hashes match a server started with the same values.
func (o *options) bind(fs *flag.FlagSet) {
	fs.StringVar(&o.storeDir, "store", "", "forest store directory to populate (required for precompute)")
	o.spec.Bind(fs, "precompute")
	fs.IntVar(&o.maxDelta, "max-delta", 3, "precompute deltas 0..N for every privacy level")
	fs.IntVar(&o.workers, "workers", 0, "parallel subtree solves per region (0: GOMAXPROCS)")

	fs.StringVar(&o.checkinsOut, "checkins-out", "", "write a synthetic Gowalla-style check-in file instead of precomputing")
	fs.IntVar(&o.n, "n", 38523, "check-ins to generate (paper's SF sample size)")
	fs.IntVar(&o.users, "users", 500, "users in the synthetic sample")
	fs.IntVar(&o.places, "places", 2000, "venues in the synthetic sample")
	fs.Int64Var(&o.genSeed, "gen-seed", 1, "synthetic-sample generator seed (for -checkins-out)")
}

func main() {
	var o options
	o.bind(flag.CommandLine)
	flag.Parse()

	if o.checkinsOut != "" {
		genCheckins(o.checkinsOut, o.n, o.users, o.places, o.genSeed)
		return
	}
	if o.storeDir == "" {
		log.Fatalf("-store is required (or -checkins-out for the synthetic dataset mode)")
	}
	if o.maxDelta < 0 {
		log.Fatalf("-max-delta must be >= 0, got %d", o.maxDelta)
	}

	specs, err := registry.BuildSpecs(o.spec)
	if err != nil {
		log.Fatalf("regions: %v", err)
	}
	st, err := store.Open(o.storeDir)
	if err != nil {
		log.Fatalf("store: %v", err)
	}
	// The registry already implements precompute as "bootstrap every shard
	// with warmup and a store attached": warmup generates every (level,
	// delta <= max-delta) forest and the engine writes each back as a
	// snapshot. Rerunning over a populated store hydrates first, so only
	// missing forests are solved.
	reg, err := registry.New(specs, registry.Options{
		Engine:      core.EngineOptions{Workers: o.workers},
		WarmupDelta: o.maxDelta,
		Store:       st,
	})
	if err != nil {
		log.Fatalf("registry: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	start := time.Now()
	for _, name := range reg.Names() {
		regionStart := time.Now()
		sh, err := reg.Shard(ctx, name)
		if err != nil {
			log.Fatalf("precompute %q: %v", name, err)
		}
		sh.Server.FlushStore()
		est := sh.Server.Stats()
		log.Printf("region %s (spec %s): %d solves, %d hydrated, %d snapshots written in %v",
			name, sh.Spec.Hash()[:16], est.Solves, est.StoreHydrated, est.StoreWrites,
			time.Since(regionStart).Round(time.Millisecond))
	}
	reg.FlushStores()

	agg := reg.AggregateStats()
	size, err := st.SizeBytes()
	if err != nil {
		log.Printf("sizing store: %v", err)
	}
	log.Printf("done: %d regions, %d solves, %d snapshots written, store %s = %.2f MiB in %v",
		len(reg.Names()), agg.Solves, agg.StoreWrites, st.Dir(), float64(size)/(1<<20),
		time.Since(start).Round(time.Millisecond))
}

// genCheckins is the legacy synthetic-dataset mode.
func genCheckins(out string, n, users, places int, seed int64) {
	ds, err := gowalla.Generate(gowalla.GenConfig{
		Seed: seed, NumUsers: users, NumPlaces: places, NumCheckIns: n,
	})
	if err != nil {
		log.Fatalf("generate: %v", err)
	}
	w := os.Stdout
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			log.Fatalf("create %s: %v", out, err)
		}
		defer f.Close()
		w = f
	}
	if err := gowalla.Save(w, ds.CheckIns); err != nil {
		log.Fatalf("save: %v", err)
	}
	log.Printf("wrote %d check-ins (%d users, %d places, seed %d)",
		len(ds.CheckIns), users, places, seed)
}
