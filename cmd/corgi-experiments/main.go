// Command corgi-experiments regenerates the paper's evaluation (Figs. 9-14,
// the abstract's headline numbers) and the extension studies; -list names
// each experiment with the paper figure it maps to, and each runner's doc
// comment in internal/experiments states the shape it is expected to show.
//
// Usage:
//
//	corgi-experiments -list
//	corgi-experiments -run fig12 [-full] [-seed 1]
//	corgi-experiments -run all
//	corgi-experiments -frontier [-frontier-out FRONTIER.json] [-full] [-seed 1]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"corgi/internal/eval"
	"corgi/internal/experiments"
)

func main() {
	runID := flag.String("run", "", "experiment id (or 'all')")
	list := flag.Bool("list", false, "list experiments")
	full := flag.Bool("full", false, "paper-scale sweeps (slower)")
	seed := flag.Int64("seed", 1, "master seed")
	frontier := flag.Bool("frontier", false, "run the utility-vs-privacy frontier sweep (internal/eval)")
	frontierOut := flag.String("frontier-out", "", "write the frontier JSON artifact here (default stdout only)")
	flag.Parse()

	if *frontier {
		runFrontier(*full, *seed, *frontierOut)
		return
	}

	if *list || *runID == "" {
		fmt.Println("experiments:")
		for _, id := range experiments.IDs() {
			fmt.Printf("  %-20s %s\n", id, experiments.Describe(id))
		}
		return
	}
	cfg := &experiments.Config{Quick: !*full, Seed: *seed}
	ids := []string{*runID}
	if *runID == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		run, ok := experiments.Lookup(id)
		if !ok {
			log.Fatalf("unknown experiment %q (try -list)", id)
		}
		fmt.Printf("--- %s: %s\n", id, experiments.Describe(id))
		start := time.Now()
		tables, err := run(cfg)
		if err != nil {
			log.Fatalf("%s: %v", id, err)
		}
		for _, t := range tables {
			t.Fprint(os.Stdout)
		}
		fmt.Printf("--- %s done in %v\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}

// runFrontier executes the internal/eval sweep (both adversaries over every
// registered mechanism), prints a summary, and optionally writes the JSON
// artifact CI uploads.
func runFrontier(full bool, seed int64, out string) {
	start := time.Now()
	f, err := eval.Run(eval.Config{Seed: seed, Quick: !full})
	if err != nil {
		log.Fatalf("frontier: %v", err)
	}
	fmt.Printf("frontier %s: %d cells, delta=%d, robust_dominates=%v\n",
		f.Schema, f.Cells, f.Delta, f.RobustDominates)
	for _, m := range f.Mechanisms {
		fmt.Printf("  %-18s robust=%-5v", m.Name, m.Robust)
		for _, p := range m.Points {
			fmt.Printf("  eps=%g loss=%.3fkm remap=%.3fkm pruned=%.3fkm", p.Epsilon,
				p.UtilityLossKm, p.RemapErrorKm, p.PrunedRemapErrorKm)
			if p.PruneFailed {
				fmt.Printf(" PRUNE-FAILED")
			}
		}
		fmt.Println()
	}
	for _, tp := range f.Trajectory {
		fmt.Printf("  traj %-18s eps=%g users=%d steps=%d reanchors=%d traj=%.3fkm indep=%.3fkm gain=%.2fx eps-budget=%.1f comp-ratio=%.3f holds=%v\n",
			tp.Mechanism, tp.Epsilon, tp.Users, tp.Steps, tp.Reanchors,
			tp.TrajErrorKm, tp.IndepErrorKm, tp.CorrelationGain,
			tp.LinearEpsBudget, tp.CompositionRatio, tp.CompositionHolds)
	}
	fmt.Printf("frontier done in %v\n", time.Since(start).Round(time.Millisecond))
	if out != "" {
		data, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			log.Fatalf("frontier: %v", err)
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			log.Fatalf("frontier: %v", err)
		}
		fmt.Printf("wrote %s\n", out)
	}
}
