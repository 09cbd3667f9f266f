// Command corgi-experiments regenerates the paper's evaluation (Figs. 9-14,
// the abstract's headline numbers), the extension studies and the
// utility-vs-privacy frontier; -list names each experiment with the paper
// figure it maps to, and each runner's doc comment in internal/eval states
// the shape it is expected to show.
//
// Usage:
//
//	corgi-experiments -list
//	corgi-experiments -run fig12 [-full] [-seed 1]
//	corgi-experiments -run all
//	corgi-experiments -run frontier -out FRONTIER.json [-full] [-seed 1]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"corgi/internal/eval"
)

// options is corgi-experiments' flags, one field each.
type options struct {
	runID, out string
	list, full bool
	seed       int64
}

// bind declares corgi-experiments' flags on fs.
func (o *options) bind(fs *flag.FlagSet) {
	fs.StringVar(&o.runID, "run", "", "experiment id (or 'all')")
	fs.BoolVar(&o.list, "list", false, "list experiments")
	fs.BoolVar(&o.full, "full", false, "paper-scale sweeps (slower)")
	fs.Int64Var(&o.seed, "seed", 1, "master seed")
	fs.StringVar(&o.out, "out", "", "write the JSON artifact of the runner that produces one (frontier) here")
}

func main() {
	var o options
	o.bind(flag.CommandLine)
	flag.Parse()

	if o.list || o.runID == "" {
		fmt.Println("experiments:")
		for _, id := range eval.IDs() {
			fmt.Printf("  %-20s %s\n", id, eval.Describe(id))
		}
		return
	}
	cfg := &eval.Config{Quick: !o.full, Seed: o.seed}
	ids := []string{o.runID}
	if o.runID == "all" {
		ids = eval.IDs()
	}
	var artifact any
	for _, id := range ids {
		run, ok := eval.Lookup(id)
		if !ok {
			log.Fatalf("unknown experiment %q (try -list)", id)
		}
		fmt.Printf("--- %s: %s\n", id, eval.Describe(id))
		start := time.Now()
		res, err := run(cfg)
		if err != nil {
			log.Fatalf("%s: %v", id, err)
		}
		for _, t := range res.Tables {
			t.Fprint(os.Stdout)
		}
		if res.Artifact != nil {
			artifact = res.Artifact
		}
		fmt.Printf("--- %s done in %v\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if o.out == "" {
		return
	}
	if artifact == nil {
		log.Fatalf("-out: %s produces no artifact (frontier does)", o.runID)
	}
	data, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		log.Fatalf("-out: %v", err)
	}
	if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
		log.Fatalf("-out: %v", err)
	}
	fmt.Printf("wrote %s\n", o.out)
}
