package main

import (
	"context"
	"fmt"
	"runtime"
	"time"
)

// config is one benchmark invocation.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
	// tmpRoot is where cold_forest puts its store; it stays inside the
	// working directory so a run writes nowhere else.
	tmpRoot string
	// spanOut, when set on a traced run, receives the span file.
	spanOut string
}

func (c config) sizes() sizes {
	if c.smoke {
		return smokeSizes
	}
	return benchSizes
}

// setups is how many times an untraced run sets up: setup_s is their median,
// because one set-up is a single sample of a noisy interval. cold_forest's
// set-up is 60 ms of bootstraps (its solves are the timed phase), short
// enough to be noisier still and cheap enough to repeat more often.
func (c config) setups(name string) int {
	switch {
	case c.smoke:
		return 1
	case name == coldForest:
		return 9
	}
	return 3
}

func (c config) duration(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

// result is one run of one workload: the contract's last-line object plus
// what -compare and a human reader want next to it.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Digest folds the first pass's draws (replay workloads); equal seeds
	// give equal digests on every server-side draw path.
	Digest string `json:"digest,omitempty"`
	// Also holds what an untraced run measured besides the gated metrics
	// (every timing: see ungated): printed, kept in results files, not part
	// of the contract line.
	Also map[string]metricValue `json:"also,omitempty"`
	// TailPercentile and Samples say what op_tail_us is a percentile of.
	TailPercentile float64 `json:"tail_percentile,omitempty"`
	Samples        int64   `json:"samples,omitempty"`
	// Errors lists every output check that failed.
	Errors []string `json:"errors,omitempty"`
}

func (r *result) fail(format string, args ...any) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// world is a workload's set-up state: it can run a timed phase, verify what
// the phase produced, and shut down.
type world interface {
	run(ctx context.Context, dur time.Duration, traced bool) (*phase, error)
	verify(ctx context.Context, p *phase) error
	close()
}

type replayRun struct {
	*replayWorld
	kind string
}

func (r replayRun) run(ctx context.Context, dur time.Duration, traced bool) (*phase, error) {
	return r.runReplay(ctx, r.kind, dur, 0, traced)
}

func (r replayRun) verify(_ context.Context, p *phase) error {
	if r.kind != replayLease {
		return nil
	}
	over, err := r.checkLeaseAccounting(p)
	if err == nil && over != 0 {
		err = fmt.Errorf("%d users' epsilon spend differs from their leases' pre-paid epsilon", over)
	}
	return err
}

// setUp builds the named workload's world.
func setUp(ctx context.Context, name string, cfg config) (world, error) {
	switch name {
	case replayInproc, replayStream, replayLease:
		w, err := newReplayWorld(ctx, cfg.seed, cfg.sizes(), transports{stream: name != replayInproc})
		if err != nil {
			return nil, err
		}
		return replayRun{w, name}, nil
	case coldForest:
		phases := 1
		if cfg.trace {
			phases = 2
		}
		return newForestWorld(ctx, cfg.seed, cfg.sizes(), cfg.tmpRoot, phases)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s, %s, %s, %s)", name, replayInproc, replayStream, replayLease, coldForest)
}

// rates returns what a timed phase's throughput is read from: the slice rates
// when the phase ran against a window of equal time slices (the replays), the
// clients' own rates when it did not (cold_forest, whose few long ops do not
// fill slices evenly).
func (p *phase) rates() []float64 {
	if p.window > 0 {
		return p.sliceRates()
	}
	return p.clientRates()
}

// opsPerSec is a timed phase's throughput: the median slice rate, or the sum
// of the clients' own rates.
func opsPerSec(p *phase) float64 {
	if p.window > 0 {
		return median(p.rates())
	}
	sum := 0.0
	for _, r := range p.rates() {
		sum += r
	}
	return sum
}

// spreadRatio is (max-min)/median of the rates opsPerSec summarizes.
func spreadRatio(p *phase) float64 {
	rates := p.rates()
	lo, hi := rates[0], rates[0]
	for _, r := range rates {
		lo, hi = min(lo, r), max(hi, r)
	}
	if m := median(rates); m > 0 {
		return (hi - lo) / m
	}
	return 0
}

// runWorkload performs one invocation: an untraced run reports the
// end-to-end metrics, a traced run the per-layer ones.
func runWorkload(ctx context.Context, name string, cfg config) (*result, error) {
	if cfg.trace {
		return runTraced(ctx, name, cfg)
	}
	res := &result{Workload: name, Seed: cfg.seed}
	var w world
	setupTimes := make([]float64, cfg.setups(name))
	for i := range setupTimes {
		if w != nil {
			w.close()
		}
		start := nanos()
		var err error
		if w, err = setUp(ctx, name, cfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes[i] = float64(nanos()-start) / 1e9
	}
	defer w.close()

	// Collect the earlier set-ups' worlds now, not inside the timed phase.
	runtime.GC()
	p, err := w.run(ctx, cfg.duration(1), false)
	if err != nil {
		return nil, err
	}
	heap := liveHeapMiB()
	runtime.KeepAlive(w)
	if err := w.verify(ctx, p); err != nil {
		res.fail("%v", err)
	}

	res.Attempted, res.Failed = p.ops(), p.failed()
	if res.Attempted == 0 {
		return nil, fmt.Errorf("%s completed no op in %v", name, cfg.duration(1))
	}
	if res.Failed != 0 {
		res.fail("%d of %d ops failed or drew outside what the reference allows; first: %v", res.Failed, res.Attempted, p.firstErr())
	}
	if name != coldForest {
		res.Digest = fmt.Sprintf("%016x", p.digest())
	}
	values := phaseValues(p, res)
	values["setup_s"] = median(setupTimes)
	values["live_heap_mb"] = heap
	var missing []string
	if res.Metrics, missing = withUnits(endToEnd, values); len(missing) != 0 {
		return nil, fmt.Errorf("harness bug: no value for %v", missing)
	}
	res.Also, _ = withUnits(ungated, values)
	res.Correct = len(res.Errors) == 0
	return res, nil
}

// midLow and midHigh bound op_mid_us: the mean latency of the ops between
// the 10th and the 90th percentile.
const midLow, midHigh = 0.10, 0.90

// phaseValues derives from one timed phase every metric that describes the
// workload itself, under the names the metric tables use, and records in res
// what op_tail_us is a percentile of.
func phaseValues(p *phase, res *result) map[string]float64 {
	lat := p.latencies()
	ops := float64(p.ops())
	cpu := p.after.cpu - p.before.cpu
	res.TailPercentile, res.Samples = tailPercentile(lat.n), int64(lat.n)
	return map[string]float64{
		"ops_per_s":              opsPerSec(p),
		"op_mid_us":              lat.trimmedMean(midLow, midHigh) / 1e3,
		"op_p50_us":              lat.quantile(0.5) / 1e3,
		"op_tail_us":             lat.quantile(res.TailPercentile) / 1e3,
		"cpu_us_per_op":          cpu * 1e6 / ops,
		"fail_ratio":             float64(p.failed()) / ops,
		"wire_bytes_per_op":      float64(p.wireBytes) / ops,
		"run.slice_spread_ratio": spreadRatio(p),
		"allocs_per_op":          float64(p.after.mallocs-p.before.mallocs) / ops,
		"alloc_bytes_per_op":     float64(p.after.allocated-p.before.allocated) / ops,
		"runtime.gc_cpu_ratio":   (p.after.gcCPU - p.before.gcCPU) / cpu,
	}
}
