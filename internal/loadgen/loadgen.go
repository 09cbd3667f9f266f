// Package loadgen drives a corgi-server with a multi-region request mix
// and reports latency and throughput, so scale claims about the sharded
// serving layer are measurable instead of anecdotal. cmd/corgi-loadgen is
// its flags; Run is everything a run does, top to bottom:
//
//	trace → target → driver → summary
//
// The trace is a replayable request stream (buildTrace). Three workloads
// exist:
//
//   - forest: the matrix-distribution path — GET /v1/forest requests for
//     (region, privacy level, delta) keys;
//   - report: the per-report hot path — requests carrying a true cell, an
//     inline policy, a user id and a seed, exercising the server-side
//     session + alias sampling pipeline end to end;
//   - mobility: moving-user report streams — per-user trajectories
//     (Gowalla check-in sequences, or synthetic random-waypoint walks over
//     the leaf lattice) replayed from one session stream per user,
//     measuring re-anchor rate, budget-rejection rate (429s under
//     -budget-eps servers), and latency split warm / re-anchor / cold.
//
// Its entries come from a trace file ("region privacy_level delta" lines
// for forests, "region privacy_level q r" for reports, replayed in order,
// cycling), from a Gowalla-format check-in file (each check-in assigned to
// the nearest serving region's center: per-region weights for a synthetic
// mix, or whole per-user trajectories for mobility), or from a synthetic
// mix: regions weighted uniformly or by a Zipf law (the few-hot-metros
// shape of real traffic) over the configured privacy levels and prune
// allowances, true cells uniform or Zipf-weighted per region, user ids
// spread over a pool. Each region's tree is fetched once per run (worlds),
// whoever asks: a trace builder or the lease transport.
//
// A target carries one round trip's entries to the server and says what
// came back: the HTTP-equivalent status, the bytes read, one outcome per
// entry. There are two. The forest target sends raw GETs and discards
// the bodies (a generator must not spend its cores decoding forests it
// throws away). The report target goes through one
// registry.ReportHandler — the JSON client, the stream client
// (persistent TCP, length-prefixed frames), a per-uid cluster router over
// either, or the lease wrapper (device.Leased) — so running one workload over two
// transports on the same server measures the wire cost directly: same
// sessions, same draws, different encoding and connection model. The
// lease wrapper moves the draws onto the client: each user stream holds a
// clientdraw lease (one POST /v1/lease pre-pays a cap of draws' epsilon
// and carries the customized rows home) and resolves trace entries
// on-device, renewing when the cap runs out or a trajectory leaves the
// leased subtree, so most entries cost no server round trip at all.
//
// The driver (drive) is the one place a round trip is accounted, whatever
// the target:
//
//   - the first request per cold key — (region, level, delta) for forests,
//     (region, level, subtree) for reports — across all workers is cold,
//     everything after is warm. A cold request may absorb a lazy region
//     bootstrap and the key's first LP solves, so its latency is reported
//     in its own slice instead of polluting warm p99/max. An entry that
//     fails releases its claim, so the request that actually absorbs the
//     work — not a pre-listen connection refusal — is the one labeled
//     cold;
//   - a 429 is a budget rejection, never an error and never cold: an
//     expected outcome of budget-capped runs, and the server charges
//     before any session or entry work. Any other non-200 is an error;
//   - reanchored (the session moved onto a new subtree: the middle latency
//     tier between warm O(1) draws and cold session builds) and degraded
//     (served from the planar-Laplace fallback of a -degraded-serving
//     server while the LP optimum solves in the background) come from the
//     entries' outcomes; for a batch, any entry.
//
// Workers run closed-loop (each issues its next request as soon as the
// previous completes) or open-loop at a fixed arrival rate. Open-loop
// arrivals are computed from elapsed time, not counted off a ticker, so
// every arrival due is either queued for a worker or counted dropped, and
// a request's latency runs from when it was due: the wait for a free
// worker is inside it.
//
// The summary (Report) is JSON: request and per-item counts, error
// breakdown, req/s (and drawn reports/s for report workloads),
// p50/p90/p95/p99/max latency overall and per slice, a log-scaled latency
// histogram, and per-region (and under a cluster, per-node) counts.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"log"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"corgi/internal/device"
	"corgi/internal/proto"
)

// Config is one run's parameters: one field per corgi-loadgen flag.
type Config struct {
	Server       string        // corgi-server base URL
	Duration     time.Duration // how long to drive load
	Workload     string        // forest, report, or mobility
	Concurrency  int           // worker count (max in-flight requests)
	Rate         float64       // open-loop arrival rate in req/s (0: closed loop)
	Regions      string        // comma-separated regions to hit (empty: ask /v1/regions)
	Levels       string        // comma-separated privacy levels to mix
	Deltas       string        // comma-separated prune allowances to mix (forest)
	Mix          string        // region weighting: uniform or zipf
	CellMix      string        // report true-cell weighting: uniform or zipf
	Users        int           // report/mobility distinct user-id pool
	Moves        int           // mobility random-waypoint steps per synthetic user
	ReportCount  int           // draws per report request
	Precision    int           // report precision level
	Batch        int           // trace entries per batched round trip (0: single requests)
	TracePath    string        // trace file to replay
	CheckinsPath string        // Gowalla check-in file
	Transport    string        // report/mobility transport: http, stream, or lease
	StreamAddr   string        // corgi-stream address, host:port
	LeaseDraws   int           // draw cap pre-paid per lease
	Cluster      string        // cluster member list, streamAddr[=httpURL] entries
	Seed         int64         // mix/shuffle seed
}

// validate refuses flag combinations no run can serve.
func (c Config) validate() error {
	report := c.Workload == "report" || c.Workload == "mobility"
	switch {
	case c.Concurrency < 1:
		return errors.New("-concurrency must be >= 1")
	case c.Workload != "forest" && !report:
		return errors.New("-workload must be forest, report, or mobility")
	case c.Workload == "forest" && c.Batch > 0:
		return errors.New("-batch is not supported by the forest workload (a forest is one cacheable GET; -batch packs report batches)")
	case c.Workload == "mobility" && c.Batch > 0:
		return errors.New("-batch is not supported by the mobility workload (per-response re-anchor parsing)")
	case c.Workload == "mobility" && c.TracePath != "":
		return errors.New("the mobility workload replays -checkins trajectories or synthesizes random-waypoint walks; -trace is for forest/report")
	case c.Transport != "http" && c.Transport != "stream" && c.Transport != "lease":
		return errors.New("-transport must be http, stream, or lease")
	case c.Transport == "stream" && !report:
		return errors.New("-transport stream serves the report pipeline; use -workload report or mobility")
	case c.Transport == "stream" && c.StreamAddr == "" && c.Cluster == "":
		return errors.New("-transport stream needs -stream-addr (the server's corgi-stream listener; trace building still uses the HTTP -server) or -cluster")
	case c.Cluster != "" && !report:
		return errors.New("-cluster routes the report pipeline; use -workload report or mobility")
	case c.Cluster != "" && c.Batch > 0:
		return errors.New("-batch is not supported with -cluster (batches span users, per-uid routing is per-request)")
	case c.Cluster != "" && c.Transport == "lease":
		return errors.New("-transport lease is not supported with -cluster yet")
	case c.Transport == "lease" && !report:
		return errors.New("-transport lease serves the report pipeline; use -workload report or mobility")
	case c.Transport == "lease" && c.Batch > 0:
		return errors.New("-batch is not supported by -transport lease (leases are per-user draw streams)")
	case c.Transport == "lease" && c.LeaseDraws < 1:
		return errors.New("-lease-draws must be >= 1")
	}
	return nil
}

// Run drives cfg's workload against its server for cfg.Duration and
// summarizes what came back. ctx cancels the run early; requests in flight
// at the deadline complete and count.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	regions, err := resolveRegions(cfg.Server, cfg.Regions)
	if err != nil {
		return nil, fmt.Errorf("regions: %w", err)
	}
	w := &worlds{server: cfg.Server, regions: map[string]*regionWorld{}}
	trace, source, err := buildTrace(cfg, regions, w)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	log.Printf("trace: %d %s entries (%s) over regions [%s]", len(trace), cfg.Workload, source, strings.Join(regions, ", "))
	echo := RunConfig{
		Server: cfg.Server, Workload: cfg.Workload, Transport: cfg.Transport, Regions: regions,
		DurationS:   cfg.Duration.Seconds(),
		Concurrency: cfg.Concurrency, RateRPS: cfg.Rate, Batch: cfg.Batch,
		Mix: cfg.Mix, CellMix: cfg.CellMix, ReportCount: cfg.ReportCount,
		TraceSource: source,
	}

	// Every report and mobility request goes through one
	// registry.ReportHandler; the flags only decide which one. -cluster
	// routes each uid to its owner node's client over the same ring the
	// servers run; otherwise the one -server / -stream-addr client carries
	// everything, and -transport lease wraps it so most requests are drawn
	// on-device.
	var (
		cl  clients
		ct  *clusterTargets
		tgt target
	)
	defer cl.Close()
	switch {
	case cfg.Workload == "forest":
		tgt = forestTarget(cfg.Server, cfg.Concurrency)
	case cfg.Cluster != "":
		if ct, err = newClusterTargets(&cl, cfg.Cluster, cfg.Transport, cfg.Concurrency); err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		tgt = reportTarget(ct, cfg.Precision, cfg.ReportCount)
	default:
		reports := cl.open(cfg.Transport, cfg.StreamAddr, cfg.Server, cfg.Concurrency)
		if cfg.Transport == "lease" {
			// A lease must cover at least one request's draws or no cap
			// could ever serve it.
			echo.LeaseDraws = max(cfg.LeaseDraws, cfg.ReportCount)
			reports = &device.Leased{Remote: reports, Tree: w.tree, Draws: echo.LeaseDraws}
		}
		tgt = reportTarget(reports, cfg.Precision, cfg.ReportCount)
	}

	workers, arr, elapsed := runLoop(ctx, cfg, trace, tgt)
	rep := summarize(workers, elapsed, echo)
	rep.DroppedArrivals = arr.dropped
	// Per-sample byte counts are a forest-workload concept; the report
	// clients account transfer themselves, so report their totals.
	cs := cl.stats()
	rep.BytesReceived += int64(cs.BytesIn)
	rep.StreamDials = int64(cs.Dials)
	rep.StreamRetries = int64(cs.Retries)
	if ct != nil {
		rep.PerNode = ct.nodeCounts()
	}
	return rep, nil
}

// resolveRegions uses the -regions flag, or asks the server.
func resolveRegions(server, flagVal string) ([]string, error) {
	var regions []string
	if flagVal != "" {
		for _, r := range strings.Split(flagVal, ",") {
			if r = strings.TrimSpace(r); r != "" {
				regions = append(regions, r)
			}
		}
		if len(regions) == 0 {
			return nil, fmt.Errorf("-regions named no regions")
		}
		return regions, nil
	}
	rr, err := proto.NewClient(server).FetchRegions()
	if err != nil {
		return nil, fmt.Errorf("GET %s/v1/regions: %w", server, err)
	}
	for _, info := range rr.Regions {
		regions = append(regions, info.Name)
	}
	if len(regions) == 0 {
		return nil, fmt.Errorf("server lists no regions")
	}
	return regions, nil
}

// worker accumulates samples and per-item outcomes locally to avoid lock
// contention on the hot path; results merge after the run.
type worker struct {
	samples  []sample
	itemsOK  int64
	itemsErr int64
}

func (w *worker) record(s sample, itemsOK, itemsErr int64) {
	w.samples = append(w.samples, s)
	w.itemsOK += itemsOK
	w.itemsErr += itemsErr
}

// arrivalsDue is how many arrivals an open-loop process at rate req/s has
// produced once elapsed has passed.
func arrivalsDue(elapsed time.Duration, rate float64) int64 {
	return int64(elapsed.Seconds() * rate)
}

// arrivals is the open-loop arrival count: every arrival offered was
// either queued for a worker or dropped.
type arrivals struct{ offered, dropped int64 }

// runLoop issues trace entries through tgt from cfg.Concurrency workers
// until cfg.Duration has passed (or ctx is cancelled), closed-loop or, with
// cfg.Rate, open-loop.
func runLoop(ctx context.Context, cfg Config, trace []request, tgt target) ([]*worker, arrivals, time.Duration) {
	workers := make([]*worker, cfg.Concurrency)
	for i := range workers {
		workers[i] = &worker{}
	}
	var (
		next atomic.Int64 // next trace index to issue
		cold coldTracker
		wg   sync.WaitGroup
		arr  arrivals
	)
	issue := func(w *worker, from time.Time) {
		idx := next.Add(1) - 1
		w.record(drive(ctx, tgt, entriesAt(trace, idx, max(cfg.Batch, 1)), &cold, from))
	}
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	if cfg.Rate > 0 {
		// Open loop: workers drain a small queue of arrivals, each stamped
		// with the time it was due. A full queue drops the arrival instead
		// of stalling the clock, so overload shows up as drops + tail
		// latency.
		queue := make(chan time.Time, cfg.Concurrency)
		for _, w := range workers {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				for due := range queue {
					issue(w, due)
				}
			}(w)
		}
		// The ticker only wakes this goroutine; it drops ticks when the
		// box is busy, so the arrivals owed are worked out from the clock.
		offer := func(now time.Time) {
			for due := arrivalsDue(now.Sub(start), cfg.Rate); arr.offered < due; arr.offered++ {
				at := start.Add(time.Duration(float64(arr.offered+1) / cfg.Rate * float64(time.Second)))
				select {
				case queue <- at:
				default:
					arr.dropped++
				}
			}
		}
		ticker := time.NewTicker(max(time.Duration(float64(time.Second)/cfg.Rate), time.Microsecond))
		timer := time.NewTimer(cfg.Duration)
	loop:
		for {
			// Racing the ticker against the deadline keeps low rates from
			// overshooting -duration by a whole interval.
			select {
			case now := <-ticker.C:
				offer(now)
			case <-timer.C:
				offer(deadline)
				break loop
			case <-ctx.Done():
				break loop
			}
		}
		ticker.Stop()
		timer.Stop()
		close(queue)
	} else {
		// Closed loop: each worker issues back-to-back requests.
		for _, w := range workers {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				for now := time.Now(); now.Before(deadline) && ctx.Err() == nil; now = time.Now() {
					issue(w, now)
				}
			}(w)
		}
	}
	wg.Wait()
	return workers, arr, time.Since(start)
}
