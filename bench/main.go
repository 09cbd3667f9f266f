// Command bench is corgi-bench: the one benchmark every performance or
// simplicity change to CORGI is judged by. One invocation sets up
// in-process servers, runs one named workload (or all four) as a closed
// loop of two clients, checks every output against a reference replay,
// and prints every metric by name with its unit; the last line of standard
// output is the result as one JSON object.
//
//	go run ./bench -workload replay_inproc -seed 1 -seconds 20
//	go run ./bench -workload cold_forest -seed 1 -seconds 20 -trace 1 -out spans.jsonl
//	go run ./bench -seed 1 -json run1.json        # all four workloads
//	go run ./bench -compare run1.json run2.json
//
// An untraced run reports the end-to-end metrics; -trace 1 reports the
// per-layer metrics instead, from spans the harness records around the
// calls it makes into each layer's public API. BENCHMARK.json at the
// repository root declares the workloads, the metrics and their bounds;
// README.md in this directory says why each was chosen and which layer
// metric should move which end-to-end metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: replay_inproc, replay_stream, replay_lease, cold_forest or all")
	seed := fs.Int64("seed", 1, "workload seed: equal seeds generate equal inputs")
	seconds := fs.Float64("seconds", runSeconds, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	out := fs.String("out", "", "with -trace 1: write the spans to this file as JSON lines")
	jsonOut := fs.String("json", "", "append each run's result to this results file (the input of -compare)")
	smoke := fs.Bool("smoke", false, "tiny inputs: checks the harness, measures nothing worth keeping")
	tmp := fs.String("tmp", filepath.Join(".bench_build", "tmp"), "directory for cold_forest's on-disk store")
	spec := fs.Bool("spec", false, "print BENCHMARK.json as the harness's metric tables define it, and exit")
	compare := fs.Bool("compare", false, "compare two results files given as arguments; non-zero exit on a regressed or unresolved row")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *spec {
		data, err := json.MarshalIndent(currentSpec(), "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Printf("%s\n", data)
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two results files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments; see -help")
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for _, w := range workloadSpecs {
			names = append(names, w.Name)
		}
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke, tmpRoot: *tmp, spanOut: *out}
	code := 0
	for _, name := range names {
		res, err := runWorkload(context.Background(), name, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		if *jsonOut != "" {
			if err := appendRun(*jsonOut, res); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
		}
		if err := report(res); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// report prints a run for a reader, then the one-line JSON object the
// benchmark contract asks for as the last line of standard output.
func report(res *result) error {
	kind := "end-to-end"
	if res.Trace {
		kind = "per-layer"
	}
	fmt.Printf("== %s seed %d: %s metrics\n", res.Workload, res.Seed, kind)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-42s %16.4f %s\n", name, m.Value, m.Unit)
	}
	for _, spec := range ungated {
		if m, ok := res.Also[spec.Name]; ok {
			fmt.Printf("%-42s %16.4f %s (not gated)\n", spec.Name, m.Value, m.Unit)
		}
	}
	fmt.Printf("ops attempted %d, failed %d", res.Attempted, res.Failed)
	if res.Samples > 0 {
		fmt.Printf("; op_tail_us is p%.4g of %d samples", res.TailPercentile*100, res.Samples)
	}
	if res.Digest != "" {
		fmt.Printf("; first-pass digest %s", res.Digest)
	}
	fmt.Println()
	for _, e := range res.Errors {
		fmt.Printf("CHECK FAILED: %s\n", e)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", line)
	return err
}

func compareFiles(pathA, pathB string) int {
	a, err := readRunSet(pathA)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readRunSet(pathB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	if bad := compareSets(os.Stdout, a, b); bad != 0 {
		fmt.Printf("%d rows regressed or unresolved\n", bad)
		return 1
	}
	fmt.Println("no row regressed or unresolved")
	return 0
}
