// Command corgi-loadgen drives a corgi-server with a multi-region request
// mix and reports latency and throughput, so scale claims about the
// sharded serving layer are measurable instead of anecdotal.
//
// Three workloads exist (-workload):
//
//   - forest (default): the matrix-distribution path — POST /v1/forest
//     (or batched /v1/forests) requests for (region, privacy level,
//     delta) keys;
//   - report: the per-report hot path — POST /v1/report (or batched
//     /v1/reports) requests carrying a true cell, an inline policy, a
//     user id, and a seed, exercising the server-side session + alias
//     sampling pipeline end to end;
//   - mobility: moving-user report streams — per-user trajectories
//     (Gowalla check-in sequences via -checkins, or synthetic
//     random-waypoint walks over the leaf lattice, -users x -moves steps)
//     replayed as /v1/report requests from one session stream per user,
//     measuring re-anchor rate, budget-rejection rate (429s under
//     -budget-eps servers), and latency split warm / re-anchor / cold.
//
// Against a -degraded-serving server, every workload additionally counts
// responses flagged degraded (served from the planar-Laplace fallback
// while the LP optimum solved in the background) and slices their latency
// out — driving a cold region shows the degraded-vs-optimal split
// directly: degraded_reports with millisecond latency up front, then the
// degraded rate decaying to zero as background solves land.
//
// The request stream is a replayable trace. It comes from one of:
//
//   - a trace file (-trace): whitespace-separated lines of
//     "region privacy_level delta" (forest workload) or
//     "region privacy_level q r" (report workload), replayed in order
//     (cycling);
//   - a Gowalla-format check-in file (-checkins): each check-in is
//     assigned to the nearest serving region's center, and the resulting
//     per-region weights drive a synthetic mix — a data-derived workload;
//   - a synthetic mix (default): regions weighted uniformly or by a Zipf
//     law (-mix zipf, mimicking the few-hot-metros shape of real traffic)
//     over the privacy levels of -levels and prune allowances of -deltas.
//     For the report workload, true cells are drawn per region uniformly
//     or Zipf-weighted (-cell-mix zipf: a few hot cells dominate, the
//     shape of real check-in data), user ids spread over -users, and each
//     request draws -report-count reports.
//
// The generator runs closed-loop by default (-concurrency workers, each
// issuing the next request as soon as the previous completes) or open-loop
// with -rate R (arrivals at R req/s dispatched to the worker pool;
// arrivals that find no free worker within the queue bound count as
// dropped, keeping the arrival process honest under overload). -batch N
// packs N consecutive trace entries into one batched round trip.
//
// The report is JSON (stdout, or -out FILE): request and per-item counts,
// error breakdown, req/s (and drawn reports/s for the report workload),
// p50/p90/p95/p99/max latency, a log-scaled latency histogram, and
// per-region counts. Latency is additionally split into a cold slice (the
// first request per key — (region, level, delta) for forests, (region,
// level, subtree) for reports — which absorbs lazy bootstraps and first
// LP solves) and a warm slice (steady state), so bootstrap absorption
// stops polluting p99/max.
//
// Usage:
//
//	corgi-loadgen [-server http://127.0.0.1:8080] [-duration 10s]
//	              [-workload forest|report|mobility] [-concurrency 8] [-rate 0]
//	              [-regions sf,nyc,la] [-levels 1,2] [-deltas 0,1,2]
//	              [-mix uniform|zipf] [-cell-mix uniform|zipf]
//	              [-users 1000] [-moves 64] [-report-count 1] [-precision 0]
//	              [-batch 0] [-trace FILE | -checkins FILE]
//	              [-transport http|stream|lease] [-stream-addr host:port]
//	              [-lease-draws 256] [-seed 1] [-out report.json]
//
// -transport stream sends report and mobility requests over the
// corgi-stream binary transport (persistent TCP, length-prefixed frames)
// instead of HTTP+JSON, against a server started with -stream-addr. Trace
// construction (region listing, tree metadata) still uses the HTTP
// -server. Running the same workload under both transports on the same
// server measures the wire-protocol cost directly — same sessions, same
// draws, different encoding and connection model.
//
// Whatever the transport, every report and mobility request goes through
// one function over one registry.ReportHandler — the JSON client, the
// stream client, a per-uid cluster router over either (-cluster), or the
// lease wrapper below — so a response is classified identically on all of
// them: a 429 is a budget rejection, never an error.
//
// -transport lease moves the draws onto the client: each user stream
// holds a clientdraw lease (one POST /v1/lease pre-pays -lease-draws
// draws' epsilon and carries the customized rows home) and resolves trace
// entries on-device, renewing when the cap runs out or a mobility
// trajectory leaves the leased subtree. Most entries then cost no server
// round trip at all — the per-entry latency histogram shows the
// amortization directly, and 429s on renewal surface as budget
// rejections just like the other transports.
//
// To measure the persistent forest store's effect on cold starts, drive a
// store-backed server and compare latency_cold against a storeless run —
// precomputed keys skip their LP solves entirely:
//
//	corgi-gen -store ./forests -regions sf,nyc,la -max-delta 2
//	corgi-server -addr :18080 -regions sf,nyc,la -store ./forests &
//	corgi-loadgen -server http://127.0.0.1:18080 -duration 15s \
//	              -levels 1,2 -deltas 0,1,2 -out report-store.json
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"corgi/internal/clientdraw"
	"corgi/internal/geo"
	"corgi/internal/gowalla"
	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
	"corgi/internal/policy"
	"corgi/internal/proto"
	"corgi/internal/registry"
	"corgi/internal/stream"
)

// request is one trace entry. Forest entries use (Region, Level, Delta);
// report entries use (Region, Level, Cell, UID, Seed) and carry ColdKey,
// the subtree identity the first-request cold split keys on.
type request struct {
	Region  string
	Level   int
	Delta   int
	Cell    [2]int
	UID     int64
	Seed    int64
	ColdKey string
}

// sample is one measured HTTP round trip.
type sample struct {
	latency time.Duration
	status  int
	bytes   int64
	region  string // "" for batch requests (they span regions)
	err     bool
	// cold marks the first request touching a (region, level, delta) key
	// (any key in the batch, for batch requests): it may absorb a region
	// bootstrap and the key's LP solves, so its latency is reported in a
	// separate slice instead of polluting warm p99/max.
	cold bool
	// reanchored marks a mobility-workload response whose server-side
	// session re-anchored onto a new subtree — the middle latency tier
	// between warm O(1) draws and cold session builds.
	reanchored bool
	// budgetRejected marks a 429: the user's sliding-window epsilon budget
	// was spent. An expected outcome of budget-capped runs, reported as a
	// rate rather than an error.
	budgetRejected bool
	// degraded marks a response served from a planar-Laplace fallback
	// entry (-degraded-serving servers): same epsilon bound, utility below
	// the LP optimum until the background solve lands. For batch requests
	// it means at least one item in the batch was degraded.
	degraded bool
}

// coldTracker decides request temperature: the first request per (region,
// level, delta) across all workers is cold, everything after is warm. A
// failed first request releases its claim (forget), so the request that
// actually absorbs the bootstrap — not a pre-listen connection refusal —
// is the one labeled cold.
type coldTracker struct{ seen sync.Map }

func (t *coldTracker) first(r request) bool {
	_, loaded := t.seen.LoadOrStore(t.key(r), struct{}{})
	return !loaded
}

func (t *coldTracker) forget(r request) { t.seen.Delete(t.key(r)) }

func (t *coldTracker) key(r request) string {
	if r.ColdKey != "" {
		return r.ColdKey
	}
	return fmt.Sprintf("%s|%d|%d", r.Region, r.Level, r.Delta)
}

// worker accumulates samples and per-item outcomes locally to avoid lock
// contention on the hot path; results merge after the run.
type worker struct {
	samples  []sample
	itemsOK  int64
	itemsErr int64
}

func main() {
	server := flag.String("server", "http://127.0.0.1:8080", "corgi-server base URL")
	duration := flag.Duration("duration", 10*time.Second, "how long to drive load")
	workload := flag.String("workload", "forest", "request type: forest (matrix distribution), report (server-side draws), or mobility (moving-user report streams)")
	concurrency := flag.Int("concurrency", 8, "worker count (max in-flight requests)")
	rate := flag.Float64("rate", 0, "open-loop arrival rate in req/s (0: closed loop)")
	regionsFlag := flag.String("regions", "", "comma-separated regions to hit (empty: ask /v1/regions)")
	levelsFlag := flag.String("levels", "1", "comma-separated privacy levels to mix")
	deltasFlag := flag.String("deltas", "0,1", "comma-separated prune allowances to mix (forest workload)")
	mix := flag.String("mix", "uniform", "region weighting: uniform or zipf")
	cellMix := flag.String("cell-mix", "uniform", "report workload true-cell weighting: uniform or zipf")
	users := flag.Int("users", 1000, "report/mobility workload distinct user-id pool")
	moves := flag.Int("moves", 64, "mobility workload random-waypoint steps per synthetic user")
	reportCount := flag.Int("report-count", 1, "draws per report request")
	precisionFlag := flag.Int("precision", 0, "report workload precision level")
	batch := flag.Int("batch", 0, "pack N trace entries per batched round trip (0: single requests)")
	tracePath := flag.String("trace", "", "trace file: 'region level delta' (forest) or 'region level q r' (report) lines")
	checkinsPath := flag.String("checkins", "", "Gowalla check-in file; per-region weights follow its geography")
	transport := flag.String("transport", "http", "report/mobility transport: http (JSON round trips), stream (corgi-stream binary frames), or lease (client-side draws against POST /v1/lease)")
	streamAddr := flag.String("stream-addr", "", "corgi-stream address, host:port (required with -transport stream)")
	leaseDraws := flag.Int("lease-draws", 256, "draw cap pre-paid per lease (-transport lease)")
	clusterSpec := flag.String("cluster", "",
		"cluster member list, comma-separated streamAddr[=httpURL] entries matching the servers' -cluster-peers: each request routes to its uid's owner node over the same consistent-hash ring (report/mobility workloads, no -batch)")
	seed := flag.Int64("seed", 1, "mix/shuffle seed")
	out := flag.String("out", "", "write the JSON report here (empty: stdout)")
	flag.Parse()

	if *concurrency < 1 {
		log.Fatalf("-concurrency must be >= 1")
	}
	if *workload != "forest" && *workload != "report" && *workload != "mobility" {
		log.Fatalf("-workload must be forest, report, or mobility")
	}
	if *workload == "mobility" && *batch > 0 {
		log.Fatalf("-batch is not supported by the mobility workload (per-response re-anchor parsing)")
	}
	if *workload == "mobility" && *tracePath != "" {
		log.Fatalf("the mobility workload replays -checkins trajectories or synthesizes random-waypoint walks; -trace is for forest/report")
	}
	if *transport != "http" && *transport != "stream" && *transport != "lease" {
		log.Fatalf("-transport must be http, stream, or lease")
	}
	if *transport == "stream" {
		if *workload == "forest" {
			log.Fatalf("-transport stream serves the report pipeline; use -workload report or mobility")
		}
		if *streamAddr == "" && *clusterSpec == "" {
			log.Fatalf("-transport stream needs -stream-addr (the server's corgi-stream listener; trace building still uses the HTTP -server) or -cluster")
		}
	}
	if *clusterSpec != "" {
		if *workload == "forest" {
			log.Fatalf("-cluster routes the report pipeline; use -workload report or mobility")
		}
		if *batch > 0 {
			log.Fatalf("-batch is not supported with -cluster (batches span users, per-uid routing is per-request)")
		}
		if *transport == "lease" {
			log.Fatalf("-transport lease is not supported with -cluster yet")
		}
	}
	if *transport == "lease" {
		if *workload == "forest" {
			log.Fatalf("-transport lease serves the report pipeline; use -workload report or mobility")
		}
		if *batch > 0 {
			log.Fatalf("-batch is not supported by -transport lease (leases are per-user draw streams)")
		}
		if *leaseDraws < 1 {
			log.Fatalf("-lease-draws must be >= 1")
		}
	}

	// The idle pool must cover every worker or keep-alive connections are
	// torn down and re-dialed constantly (DefaultTransport keeps only 2
	// idle conns per host).
	client := &http.Client{
		Timeout: 10 * time.Minute,
		Transport: &http.Transport{
			MaxIdleConns:        *concurrency + 8,
			MaxIdleConnsPerHost: *concurrency + 8,
			IdleConnTimeout:     90 * time.Second,
		},
	}
	regions, err := resolveRegions(*server, *regionsFlag)
	if err != nil {
		log.Fatalf("regions: %v", err)
	}
	var trace []request
	var traceSource string
	if *workload == "mobility" {
		trace, traceSource, err = buildMobilityTrace(*server, regions, mobilityTraceConfig{
			CheckinsPath: *checkinsPath, Levels: *levelsFlag,
			Users: *users, Moves: *moves, Seed: *seed,
		})
	} else if *workload == "report" {
		trace, traceSource, err = buildReportTrace(*server, regions, reportTraceConfig{
			TracePath: *tracePath, CheckinsPath: *checkinsPath,
			Levels: *levelsFlag, Mix: *mix, CellMix: *cellMix,
			Users: *users, Precision: *precisionFlag, Seed: *seed,
		})
	} else {
		trace, traceSource, err = buildTrace(regions, *tracePath, *checkinsPath, *levelsFlag, *deltasFlag, *mix, *seed)
	}
	if err != nil {
		log.Fatalf("trace: %v", err)
	}
	log.Printf("trace: %d %s entries (%s) over regions [%s]", len(trace), *workload, traceSource, strings.Join(regions, ", "))

	// Every report and mobility request goes through one registry.ReportHandler;
	// the flags only decide which one. -cluster routes each uid to its
	// owner node's client over the same ring the servers run; otherwise the
	// one -server / -stream-addr client carries everything, and -transport
	// lease wraps it so most requests are drawn on-device.
	var (
		reports      registry.ReportHandler
		ct           *clusterTargets
		httpClient   *proto.Client
		streamClient *stream.Client
		leaseMgr     *leaseManager
	)
	switch {
	case *workload == "forest":
	case *clusterSpec != "":
		if ct, err = newClusterTargets(*clusterSpec, *transport, *concurrency); err != nil {
			log.Fatalf("cluster: %v", err)
		}
		defer ct.Close()
		reports = ct
	case *transport == "stream":
		// The stream client pools persistent connections; every worker
		// shares it, and each in-flight exchange checks out its own.
		streamClient = stream.NewClient(*streamAddr, stream.ClientConfig{
			Timeout:      10 * time.Minute,
			MaxIdleConns: *concurrency,
		})
		defer streamClient.Close()
		reports = streamClient.Remote()
	default:
		httpClient = proto.NewClient(*server)
		reports = httpClient.Remote()
	}
	if *transport == "lease" {
		// On-device draws need each region's tree to open leases against.
		trees := make(map[string]*loctree.Tree, len(regions))
		for _, r := range regions {
			w, err := fetchRegionWorld(*server, r)
			if err != nil {
				log.Fatalf("lease trees: %v", err)
			}
			trees[r] = w.tree
		}
		// A lease must cover at least one request's draws or no cap could
		// ever serve it.
		leaseMgr = &leaseManager{
			remote: reports,
			trees:  trees,
			draws:  max(*leaseDraws, *reportCount),
			states: make(map[string]*leaseState),
		}
		reports = leaseMgr
	}

	workers := make([]*worker, *concurrency)
	for i := range workers {
		workers[i] = &worker{}
	}

	var (
		next    atomic.Int64 // next trace index to issue
		dropped atomic.Int64 // open-loop arrivals that found the queue full
		cold    coldTracker
		wg      sync.WaitGroup
	)
	deadline := time.Now().Add(*duration)
	ctx := context.Background()
	issue := func(w *worker) {
		idx := next.Add(1) - 1
		switch {
		case reports != nil:
			w.record(doReports(ctx, reports, entriesAt(trace, idx, max(*batch, 1)), *precisionFlag, *reportCount, &cold))
		case *batch > 0:
			w.record(doBatch(client, *server, trace, idx, *batch, &cold))
		default:
			entry := trace[int(idx)%len(trace)]
			w.record(doSingle(client, *server, entry, &cold))
		}
	}

	start := time.Now()
	if *rate > 0 {
		// Open loop: a ticker models the arrival process; workers drain a
		// small queue. A full queue drops the arrival instead of stalling
		// the clock, so overload shows up as drops + tail latency.
		queue := make(chan struct{}, *concurrency)
		for _, w := range workers {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				for range queue {
					issue(w)
				}
			}(w)
		}
		interval := time.Duration(float64(time.Second) / *rate)
		if interval <= 0 {
			interval = time.Microsecond
		}
		ticker := time.NewTicker(interval)
		timer := time.NewTimer(time.Until(deadline))
	arrivals:
		for {
			// Racing the ticker against the deadline keeps low rates from
			// overshooting -duration by a whole interval.
			select {
			case <-ticker.C:
				select {
				case queue <- struct{}{}:
				default:
					dropped.Add(1)
				}
			case <-timer.C:
				break arrivals
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
				for time.Now().Before(deadline) {
					issue(w)
				}
			}(w)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	report := summarize(workers, elapsed, config{
		Server: *server, Workload: *workload, Transport: *transport, Regions: regions,
		DurationS:   duration.Seconds(),
		Concurrency: *concurrency, RateRPS: *rate, Batch: *batch,
		Mix: *mix, CellMix: *cellMix, ReportCount: *reportCount,
		TraceSource: traceSource,
	})
	if leaseMgr != nil {
		report.Config.LeaseDraws = leaseMgr.draws
	}
	report.DroppedArrivals = dropped.Load()
	// Per-sample byte counts are a forest-workload concept; the report
	// clients account transfer themselves, so report their totals.
	var cs stream.ClientStats
	switch {
	case ct != nil:
		report.PerNode = ct.nodeCounts()
		cs = ct.stats()
	case streamClient != nil:
		cs = streamClient.Stats()
	case httpClient != nil:
		cs.BytesIn = uint64(httpClient.BytesIn())
	}
	report.BytesReceived += int64(cs.BytesIn)
	report.StreamDials = int64(cs.Dials)
	report.StreamRetries = int64(cs.Retries)

	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatalf("report: %v", err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			log.Fatalf("writing %s: %v", *out, err)
		}
		log.Printf("report written to %s", *out)
	}
	if report.Requests == 0 {
		log.Fatalf("no requests completed inside %v", *duration)
	}
}

func (w *worker) record(s sample, itemsOK, itemsErr int64) {
	w.samples = append(w.samples, s)
	w.itemsOK += itemsOK
	w.itemsErr += itemsErr
}

// resolveRegions uses the -regions flag, or asks the server.
func resolveRegions(server, flagVal string) ([]string, error) {
	if flagVal != "" {
		var regions []string
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
	if statusOf(err) == http.StatusNotFound {
		// Pre-sharding server: drive its single implicit region.
		return []string{""}, nil
	}
	if err != nil {
		return nil, err
	}
	regions := make([]string, len(rr.Regions))
	for i, info := range rr.Regions {
		regions[i] = info.Name
	}
	if len(regions) == 0 {
		return nil, fmt.Errorf("server lists no regions")
	}
	return regions, nil
}

// buildTrace materializes the replay trace (bounded; it cycles during the
// run) and names its source for the report.
func buildTrace(regions []string, tracePath, checkinsPath, levelsFlag, deltasFlag, mix string, seed int64) ([]request, string, error) {
	if tracePath != "" && checkinsPath != "" {
		return nil, "", fmt.Errorf("use either -trace or -checkins, not both")
	}
	if tracePath != "" {
		trace, err := loadTrace(tracePath)
		return trace, "replay:" + tracePath, err
	}
	levels, err := parseIntList(levelsFlag)
	if err != nil {
		return nil, "", fmt.Errorf("-levels: %w", err)
	}
	deltas, err := parseIntList(deltasFlag)
	if err != nil {
		return nil, "", fmt.Errorf("-deltas: %w", err)
	}
	weights, source, err := regionWeights(regions, checkinsPath, mix)
	if err != nil {
		return nil, "", err
	}
	const traceLen = 65536
	rng := rand.New(rand.NewSource(seed))
	trace := make([]request, traceLen)
	for i := range trace {
		trace[i] = request{
			Region: regions[weightedPick(rng, weights)],
			Level:  levels[rng.Intn(len(levels))],
			Delta:  deltas[rng.Intn(len(deltas))],
		}
	}
	return trace, source, nil
}

// mixWeights are n weights in the named shape: uniform, or Zipf s=1 over
// index order (a few hot regions or cells dominate, the shape of real
// check-in data).
func mixWeights(flagName, mix string, n int) ([]float64, error) {
	weights := make([]float64, n)
	for i := range weights {
		switch mix {
		case "zipf":
			weights[i] = 1 / float64(i+1)
		case "uniform":
			weights[i] = 1
		default:
			return nil, fmt.Errorf("unknown %s %q (uniform or zipf)", flagName, mix)
		}
	}
	return weights, nil
}

// regionWeights resolves the per-region mix of a synthetic trace and names
// its source: a check-in file's geography when one is given, -mix
// otherwise.
func regionWeights(regions []string, checkinsPath, mix string) ([]float64, string, error) {
	if checkinsPath != "" {
		weights := make([]float64, len(regions))
		err := checkinWeights(checkinsPath, regions, weights)
		return weights, "gowalla:" + checkinsPath, err
	}
	weights, err := mixWeights("-mix", mix, len(regions))
	return weights, "synthetic:" + mix, err
}

// reportTraceConfig bundles the report-workload trace parameters.
type reportTraceConfig struct {
	TracePath    string
	CheckinsPath string
	Levels       string
	Mix          string
	CellMix      string
	Users        int
	Precision    int
	Seed         int64
}

// regionWorld is one region's client-side view for trace building: its
// rebuilt tree and leaf list.
type regionWorld struct {
	tree   *loctree.Tree
	leaves []loctree.NodeID
}

// fetchRegionWorld rebuilds one region's tree from /v1/tree.
func fetchRegionWorld(server, region string) (*regionWorld, error) {
	tree, _, err := proto.NewRegionClient(server, region).FetchTree()
	if err != nil {
		return nil, fmt.Errorf("region %q tree: %w", region, err)
	}
	return &regionWorld{tree: tree, leaves: tree.LevelNodes(0)}, nil
}

// reportColdKey identifies the server work a report request can be the
// first to absorb: the (region, level, subtree) whose forest entry must be
// solved. Distinct cells of one subtree share the key, so only the true
// first solve lands in the cold latency slice.
func reportColdKey(w *regionWorld, region string, level int, leaf loctree.NodeID) string {
	if root, ok := w.tree.AncestorAt(leaf, level); ok {
		return fmt.Sprintf("%s|%d|%v", region, level, root)
	}
	return fmt.Sprintf("%s|%d|%v", region, level, leaf)
}

// buildReportTrace materializes the report-workload trace: every entry
// carries a true cell (uniform or Zipf-weighted over the region's leaves),
// a user id from the -users pool with a per-user seed (so one user's
// repeat requests hit one server session), and the privacy level mix.
func buildReportTrace(server string, regions []string, cfg reportTraceConfig) ([]request, string, error) {
	if cfg.TracePath != "" && cfg.CheckinsPath != "" {
		return nil, "", fmt.Errorf("use either -trace or -checkins, not both")
	}
	worlds := map[string]*regionWorld{}
	world := func(region string) (*regionWorld, error) {
		if w, ok := worlds[region]; ok {
			return w, nil
		}
		w, err := fetchRegionWorld(server, region)
		if err != nil {
			return nil, err
		}
		worlds[region] = w
		return w, nil
	}

	if cfg.TracePath != "" {
		entries, err := loadReportTrace(cfg.TracePath, cfg.Users, cfg.Seed, world)
		return entries, "replay:" + cfg.TracePath, err
	}

	levels, err := parseIntList(cfg.Levels)
	if err != nil {
		return nil, "", fmt.Errorf("-levels: %w", err)
	}
	weights, source, err := regionWeights(regions, cfg.CheckinsPath, cfg.Mix)
	if err != nil {
		return nil, "", err
	}
	source += "/cells:" + cfg.CellMix
	cellWeights := map[string][]float64{}
	for _, region := range regions {
		w, err := world(region)
		if err != nil {
			return nil, "", err
		}
		if cellWeights[region], err = mixWeights("-cell-mix", cfg.CellMix, len(w.leaves)); err != nil {
			return nil, "", err
		}
	}
	users := cfg.Users
	if users < 1 {
		users = 1
	}
	const traceLen = 65536
	rng := rand.New(rand.NewSource(cfg.Seed))
	trace := make([]request, traceLen)
	for i := range trace {
		region := regions[weightedPick(rng, weights)]
		w := worlds[region]
		leaf := w.leaves[weightedPick(rng, cellWeights[region])]
		level := levels[rng.Intn(len(levels))]
		uid := int64(rng.Intn(users))
		trace[i] = mobilityRequest(w, region, level, leaf, uid)
	}
	return trace, source, nil
}

// mobilityTraceConfig bundles the mobility-workload trace parameters.
type mobilityTraceConfig struct {
	CheckinsPath string
	Levels       string
	Users        int
	Moves        int
	Seed         int64
}

// buildMobilityTrace materializes a moving-user trace: an interleaved
// timeline of per-user cell sequences. Each user keeps one privacy level
// and one session stream (uid-derived seed) for their whole trajectory, so
// the server re-anchors the resident session whenever the trajectory
// crosses a subtree boundary — the mobility hot path under test.
//
// Sources:
//
//   - a Gowalla check-in file (-checkins): each user's check-ins become
//     their trajectory (time-ordered), mapped to the nearest region and
//     that region's leaf cells; the global timeline interleaves users in
//     true timestamp order, the shape of real mobile traffic;
//   - synthetic (default): a random-waypoint walk per user — pick a
//     waypoint leaf, step through the leaf lattice toward it, pick the
//     next — interleaved round-robin.
func buildMobilityTrace(server string, regions []string, cfg mobilityTraceConfig) ([]request, string, error) {
	levels, err := parseIntList(cfg.Levels)
	if err != nil {
		return nil, "", fmt.Errorf("-levels: %w", err)
	}
	worlds := map[string]*regionWorld{}
	for _, region := range regions {
		w, err := fetchRegionWorld(server, region)
		if err != nil {
			return nil, "", err
		}
		worlds[region] = w
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.CheckinsPath != "" {
		trace, err := gowallaMobilityTrace(cfg.CheckinsPath, regions, worlds, levels, rng)
		return trace, "gowalla-trajectories:" + cfg.CheckinsPath, err
	}
	trace, err := waypointMobilityTrace(regions, worlds, levels, cfg.Users, cfg.Moves, rng)
	return trace, "synthetic:random-waypoint", err
}

// mobilityRequest assembles one report or mobility trace entry for a user
// standing at leaf. The seed is per user, so one user's requests share one
// server session stream.
func mobilityRequest(w *regionWorld, region string, level int, leaf loctree.NodeID, uid int64) request {
	return request{
		Region:  region,
		Level:   level,
		Cell:    [2]int{leaf.Coord.Q, leaf.Coord.R},
		UID:     uid,
		Seed:    uid*1000003 + 7,
		ColdKey: reportColdKey(w, region, level, leaf),
	}
}

// gowallaMobilityTrace replays real per-user check-in sequences: each
// check-in maps to the nearest region's tree (points outside every tree
// are dropped), users become uid streams, and the flat trace preserves the
// corpus's global time order — so per-user move order survives replay.
func gowallaMobilityTrace(path string, regions []string, worlds map[string]*regionWorld,
	levels []int, rng *rand.Rand) ([]request, error) {
	cs, err := gowalla.LoadFile(path)
	if err != nil {
		return nil, err
	}
	centers, err := regionCenters(regions)
	if err != nil {
		return nil, err
	}
	type point struct {
		ts    time.Time
		req   request
		order int
	}
	var points []point
	dropped := 0
	for _, traj := range gowalla.Trajectories(cs) {
		// One privacy level per user, fixed for their whole trajectory
		// (Trajectories yields each user exactly once).
		lvl := levels[rng.Intn(len(levels))]
		for _, c := range traj.Points {
			region := regions[nearest(centers, c.Loc)]
			w := worlds[region]
			leaf, ok := w.tree.Locate(c.Loc, 0)
			if !ok {
				dropped++
				continue
			}
			points = append(points, point{
				ts:    c.Time,
				req:   mobilityRequest(w, region, lvl, leaf, int64(traj.UserID)),
				order: len(points),
			})
		}
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("%s: no check-ins landed inside any serving region", path)
	}
	if dropped > 0 {
		log.Printf("mobility trace: dropped %d of %d check-ins outside every region's tree",
			dropped, dropped+len(points))
	}
	sort.SliceStable(points, func(a, b int) bool {
		if !points[a].ts.Equal(points[b].ts) {
			return points[a].ts.Before(points[b].ts)
		}
		return points[a].order < points[b].order
	})
	trace := make([]request, len(points))
	for i, p := range points {
		trace[i] = p.req
	}
	return trace, nil
}

// waypointMobilityTrace synthesizes random-waypoint walks: each user
// starts at a random leaf of their region, repeatedly picks a waypoint
// leaf, and steps through the lattice toward it (greedy neighbor descent
// on hex grid distance), reporting from every cell visited. User timelines
// interleave round-robin.
func waypointMobilityTrace(regions []string, worlds map[string]*regionWorld,
	levels []int, users, moves int, rng *rand.Rand) ([]request, error) {
	if users < 1 {
		users = 1
	}
	if moves < 1 {
		moves = 1
	}
	// One leaf-coordinate index per region, shared by every walker in it.
	leafSets := make(map[string]map[hexgrid.Coord]loctree.NodeID, len(regions))
	for _, region := range regions {
		w := worlds[region]
		leafSet := make(map[hexgrid.Coord]loctree.NodeID, len(w.leaves))
		for _, l := range w.leaves {
			leafSet[l.Coord] = l
		}
		leafSets[region] = leafSet
	}
	type walker struct {
		region   string
		level    int
		at       loctree.NodeID
		waypoint loctree.NodeID
	}
	walkers := make([]*walker, users)
	for u := range walkers {
		region := regions[u%len(regions)]
		w := worlds[region]
		walkers[u] = &walker{
			region:   region,
			level:    levels[rng.Intn(len(levels))],
			at:       w.leaves[rng.Intn(len(w.leaves))],
			waypoint: w.leaves[rng.Intn(len(w.leaves))],
		}
	}
	trace := make([]request, 0, users*moves)
	for step := 0; step < moves; step++ {
		for u, wk := range walkers {
			w := worlds[wk.region]
			trace = append(trace, mobilityRequest(w, wk.region, wk.level, wk.at, int64(u)))
			if wk.at == wk.waypoint {
				wk.waypoint = w.leaves[rng.Intn(len(w.leaves))]
			}
			wk.at = stepToward(wk.at, wk.waypoint, leafSets[wk.region])
		}
	}
	return trace, nil
}

// stepToward moves one lattice step from at toward waypoint, restricted to
// leaves that exist in the region (the tree's hull is not convex in axial
// coordinates, so a neighbor on the straight line may not exist). When no
// neighboring leaf gets closer, it jumps to the waypoint — trading one
// teleport for guaranteed progress.
func stepToward(at, waypoint loctree.NodeID, leafSet map[hexgrid.Coord]loctree.NodeID) loctree.NodeID {
	if at == waypoint {
		return at
	}
	best := at
	bestDist := hexgrid.GridDist(at.Coord, waypoint.Coord)
	for _, nb := range hexgrid.Neighbors(at.Coord) {
		leaf, ok := leafSet[nb]
		if !ok {
			continue
		}
		if d := hexgrid.GridDist(nb, waypoint.Coord); d < bestDist {
			best, bestDist = leaf, d
		}
	}
	if best == at {
		return waypoint
	}
	return best
}

// loadReportTrace parses "region level q r" lines; '#' starts a comment.
func loadReportTrace(path string, users int, seed int64, world func(string) (*regionWorld, error)) ([]request, error) {
	if users < 1 {
		users = 1
	}
	rng := rand.New(rand.NewSource(seed))
	return scanTrace(path, "region level q r", func(region string, v []int) (request, error) {
		w, err := world(region)
		if err != nil {
			return request{}, err
		}
		leaf := loctree.NodeID{Level: 0, Coord: hexgrid.Coord{Q: v[1], R: v[2]}}
		return mobilityRequest(w, region, v[0], leaf, int64(rng.Intn(users))), nil
	})
}

// checkinWeights assigns each check-in to the nearest serving region
// center (resolved via /v1/regions metadata is unavailable here, so the
// builtin metro table and the check-in geography decide) and normalizes
// the counts into mix weights.
func checkinWeights(path string, regions []string, weights []float64) error {
	cs, err := gowalla.LoadFile(path)
	if err != nil {
		return err
	}
	centers, err := regionCenters(regions)
	if err != nil {
		return err
	}
	if len(cs) == 0 {
		return fmt.Errorf("%s: no check-ins matched any region", path)
	}
	for _, c := range cs {
		weights[nearest(centers, c.Loc)]++
	}
	for i, w := range weights {
		if w == 0 {
			weights[i] = 1 // keep every region reachable
		}
	}
	return nil
}

// nearest is the index of the center closest to loc.
func nearest(centers []geo.LatLng, loc geo.LatLng) int {
	best, bestDist := 0, math.MaxFloat64
	for i, center := range centers {
		if d := geo.Haversine(loc, center); d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// regionCenters resolves region names to builtin metro centers for
// check-in assignment.
func regionCenters(regions []string) ([]geo.LatLng, error) {
	centers := make([]geo.LatLng, len(regions))
	for i, name := range regions {
		spec, ok := registry.BuiltinSpec(name)
		if !ok {
			return nil, fmt.Errorf("region %q is not a builtin metro; -checkins weighting needs builtin regions", name)
		}
		centers[i] = spec.Center()
	}
	return centers, nil
}

// loadTrace parses "region level delta" lines; '#' starts a comment.
func loadTrace(path string) ([]request, error) {
	return scanTrace(path, "region level delta", func(region string, v []int) (request, error) {
		return request{Region: region, Level: v[0], Delta: v[1]}, nil
	})
}

// scanTrace reads a trace file of whitespace-separated lines shaped like
// format — a region name, then integers — handing each line's region and
// integers to entry. Blank lines and '#' comments are skipped; an empty
// trace is an error.
func scanTrace(path, format string, entry func(region string, v []int) (request, error)) ([]request, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	nfields := len(strings.Fields(format))
	var trace []request
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != nfields {
			return nil, fmt.Errorf("%s:%d: want '%s', got %q", path, line, format, text)
		}
		v := make([]int, nfields-1)
		for i := range v {
			if v[i], err = strconv.Atoi(fields[i+1]); err != nil {
				return nil, fmt.Errorf("%s:%d: bad integers in %q", path, line, text)
			}
		}
		req, err := entry(fields[0], v)
		if err != nil {
			return nil, err
		}
		trace = append(trace, req)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(trace) == 0 {
		return nil, fmt.Errorf("%s: empty trace", path)
	}
	return trace, nil
}

func parseIntList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func weightedPick(rng *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	x := rng.Float64() * total
	for i, w := range weights {
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1
}

// doSingle issues one region-addressed forest request, asking for the v2
// forest encoding as proto.Client does.
func doSingle(client *http.Client, server string, entry request, cold *coldTracker) (sample, int64, int64) {
	isCold := cold.first(entry)
	body, _ := json.Marshal(proto.MatrixRequest{PrivacyLevel: entry.Level, Delta: entry.Delta})
	target := server + "/v1/forest"
	if entry.Region != "" {
		target += "?region=" + url.QueryEscape(entry.Region)
	}
	req, err := http.NewRequest(http.MethodPost, target, bytes.NewReader(body))
	if err != nil {
		if isCold {
			cold.forget(entry)
		}
		return sample{region: entry.Region, err: true, cold: isCold}, 0, 1
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept-Encoding", "gzip")
	req.Header.Set("Accept", proto.ContentTypeForestV2+", application/json")
	s := roundTrip(client, req)
	s.region = entry.Region
	s.cold = isCold
	if s.err {
		if isCold {
			cold.forget(entry)
		}
		return s, 0, 1
	}
	return s, 1, 0
}

// doBatch packs n consecutive trace entries into one /v1/forests request
// and counts per-item outcomes from the envelope.
func doBatch(client *http.Client, server string, trace []request, idx int64, n int, cold *coldTracker) (sample, int64, int64) {
	items := make([]proto.BatchItem, n)
	entries := make([]request, n)
	claimed := make([]bool, n) // this batch first-saw entry i's key
	isCold := false
	for i := 0; i < n; i++ {
		entries[i] = trace[int(idx*int64(n)+int64(i))%len(trace)]
		items[i] = proto.BatchItem{Region: entries[i].Region, PrivacyLevel: entries[i].Level, Delta: entries[i].Delta}
		if cold.first(entries[i]) {
			claimed[i] = true
			isCold = true
		}
	}
	// A failed request — or a failed item inside a 200 envelope — releases
	// its cold claims so the request that really absorbs each key's
	// bootstrap gets the cold label.
	forgetAll := func() {
		for i, c := range claimed {
			if c {
				cold.forget(entries[i])
			}
		}
	}
	body, _ := json.Marshal(proto.BatchForestRequest{Items: items})
	req, err := http.NewRequest(http.MethodPost, server+"/v1/forests", bytes.NewReader(body))
	if err != nil {
		forgetAll()
		return sample{err: true, cold: isCold}, 0, int64(n)
	}
	req.Header.Set("Content-Type", "application/json")
	// No explicit Accept-Encoding here: the transport negotiates gzip on
	// its own and transparently decompresses, which the envelope decode
	// below relies on.
	req.Header.Set("Accept", proto.ContentTypeForestV2+", application/json")

	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		forgetAll()
		return sample{latency: time.Since(start), err: true, cold: isCold}, 0, int64(n)
	}
	defer resp.Body.Close()
	var envelope proto.BatchForestResponse
	dec := json.NewDecoder(resp.Body)
	decodeErr := dec.Decode(&envelope)
	s := sample{latency: time.Since(start), status: resp.StatusCode, cold: isCold}
	if resp.StatusCode != http.StatusOK || decodeErr != nil {
		forgetAll()
		s.err = true
		return s, 0, int64(n)
	}
	var ok, bad int64
	for i, item := range envelope.Items {
		if item.Status == http.StatusOK {
			ok++
		} else {
			bad++
			if i < len(claimed) && claimed[i] {
				cold.forget(entries[i])
			}
		}
	}
	return s, ok, bad
}

// reportRequest translates a trace entry into the report pipeline's
// request type, whichever handler then carries it.
func reportRequest(entry request, precision, count int) registry.ReportRequest {
	return registry.ReportRequest{
		Region: entry.Region,
		Cell:   hexgrid.Coord{Q: entry.Cell[0], R: entry.Cell[1]},
		UID:    entry.UID,
		Policy: policy.Policy{PrivacyLevel: entry.Level, PrecisionLevel: precision},
		Seed:   entry.Seed,
		Count:  count,
	}
}

// batcher is what a handler must add to carry -batch round trips; both
// remote clients' handler views (stream.Remote, proto.Remote) do.
type batcher interface {
	ReportBatch(context.Context, []registry.ReportRequest) ([]stream.BatchResult, error)
}

// statusOf is the HTTP-equivalent status a handler answered with: 200 for
// a result, the server's classification for a rejection, and 0 when no
// answer arrived at all (a transport fault).
func statusOf(err error) int {
	var se *stream.StatusError
	switch {
	case err == nil:
		return http.StatusOK
	case errors.As(err, &se):
		return se.Status
	}
	return 0
}

// doReports resolves entries in one round trip through h — a Report for
// one entry, a ReportBatch for several — and classifies the answer. It is
// the one place report and mobility outcomes are accounted, so a response
// means the same thing whatever h is (the JSON client, the stream client,
// per-uid cluster routing, or on-device lease draws):
//
//   - any failed entry releases its cold claim, so the request that really
//     absorbs the subtree's first solve gets the cold label;
//   - a 429 is a budget rejection, never an error: an expected outcome of
//     budget-capped runs. The server charges before any session or entry
//     work, so the cheap rejection round trip stays out of the cold slice;
//   - reanchored and degraded come from the result (for a batch: any item).
//
// A batch is one sample whose status is the envelope's; its items count
// individually in items_ok / items_err.
func doReports(ctx context.Context, h registry.ReportHandler, entries []request, precision, count int, cold *coldTracker) (sample, int64, int64) {
	reqs := make([]registry.ReportRequest, len(entries))
	claimed := make([]bool, len(entries))
	var s sample
	for i, entry := range entries {
		reqs[i] = reportRequest(entry, precision, count)
		claimed[i] = cold.first(entry)
		s.cold = s.cold || claimed[i]
	}
	start := time.Now()
	var (
		results []stream.BatchResult
		err     error
	)
	if len(reqs) == 1 {
		res, rerr := h.Report(ctx, reqs[0])
		results, err = []stream.BatchResult{{Result: res, Err: rerr}}, rerr
		s.region = entries[0].Region
	} else if b, ok := h.(batcher); ok {
		results, err = b.ReportBatch(ctx, reqs)
	} else {
		err = fmt.Errorf("%T cannot batch", h)
	}
	s.latency = time.Since(start)
	s.status = statusOf(err)
	if results == nil {
		// The batch envelope itself failed: every item failed with it.
		results = make([]stream.BatchResult, len(reqs))
		for i := range results {
			results[i].Err = err
		}
	}
	var ok, bad int64
	for i, r := range results {
		if r.Err != nil {
			bad++
			if claimed[i] {
				cold.forget(entries[i])
			}
			continue
		}
		ok++
		s.reanchored = s.reanchored || r.Result.Reanchored
		s.degraded = s.degraded || r.Result.Degraded
	}
	switch {
	case s.status == http.StatusTooManyRequests:
		s.budgetRejected, s.cold = true, false
	case s.status != http.StatusOK:
		s.err = true
	}
	return s, ok, bad
}

// entriesAt returns the n consecutive trace entries of issue index idx
// (cycling).
func entriesAt(trace []request, idx int64, n int) []request {
	entries := make([]request, n)
	for i := range entries {
		entries[i] = trace[int(idx*int64(n)+int64(i))%len(trace)]
	}
	return entries
}

// leaseManager is the lease transport seen as a report handler: Report
// draws on-device from the user's clientdraw lease and only goes to the
// remote handler's Lease when that lease has to be opened or renewed. It
// holds one lease per (region, uid, seed, policy) session stream, keyed
// exactly like server-side sessions, so one loadgen user maps onto one
// server RNG stream.
type leaseManager struct {
	remote registry.ReportHandler
	trees  map[string]*loctree.Tree
	draws  int

	mu     sync.Mutex
	states map[string]*leaseState
}

// leaseState is one user stream's lease; its mutex serializes that
// stream's draws and renewals (matching the per-connection FIFO ordering
// the stream transport gives a user), while distinct users proceed in
// parallel.
type leaseState struct {
	mu    sync.Mutex
	lease *clientdraw.Lease
}

func (m *leaseManager) state(key string) *leaseState {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.states[key]
	if !ok {
		st = &leaseState{}
		m.states[key] = st
	}
	return st
}

// Report implements registry.ReportHandler with on-device draws.
func (m *leaseManager) Report(ctx context.Context, req registry.ReportRequest) (*registry.ReportResult, error) {
	return doReportLease(ctx, m, req)
}

// Lease implements registry.ReportHandler by asking the remote.
func (m *leaseManager) Lease(ctx context.Context, req registry.LeaseRequest) (*registry.LeaseGrant, error) {
	return m.remote.Lease(ctx, req)
}

// doReportLease is the lease state machine for one report: draw on-device
// from the user's open lease, acquiring or renewing it first when needed.
// The caller's measured latency covers whatever the report actually cost —
// near-zero for a leased draw, one round trip when a renewal was due —
// which is exactly the amortization the transport sells. A rejected
// renewal surfaces as the remote's *stream.StatusError (a 429 is a budget
// rejection like on the other transports); a 403 on an expired token falls
// back to one fresh (un-renewed) lease attempt.
func doReportLease(ctx context.Context, m *leaseManager, req registry.ReportRequest) (*registry.ReportResult, error) {
	st := m.state(fmt.Sprintf("%s|%d|%d|%d|%d", req.Region, req.UID, req.Seed, req.Policy.PrivacyLevel, req.Policy.PrecisionLevel))
	st.mu.Lock()
	defer st.mu.Unlock()

	leaf := loctree.NodeID{Level: 0, Coord: req.Cell}
	res := &registry.ReportResult{Region: req.Region, Reports: make([]loctree.NodeID, req.Count)}
	for attempt := 0; ; attempt++ {
		var token []byte
		if st.lease != nil {
			err := st.lease.DrawCellNInto(leaf, res.Reports)
			if err == nil {
				res.Degraded = st.lease.Degraded()
				return res, nil
			}
			if !errors.Is(err, clientdraw.ErrLeaseExhausted) && !errors.Is(err, clientdraw.ErrOutsideSubtree) {
				return nil, err
			}
			// Cap spent or the user moved off the leased subtree: renew.
			token = st.lease.Token()
		}
		if attempt >= 3 {
			return nil, fmt.Errorf("lease for uid %d still cannot serve cell %v after %d grants", req.UID, req.Cell, attempt)
		}
		grant, err := m.remote.Lease(ctx, registry.LeaseRequest{
			Region: req.Region,
			Cell:   req.Cell,
			UID:    req.UID,
			Policy: req.Policy,
			Seed:   req.Seed,
			Draws:  m.draws,
			Token:  token,
		})
		if err != nil {
			if statusOf(err) == http.StatusForbidden && token != nil {
				// The renewal token expired while the lease idled; one
				// fresh lease continues the stream (the server session
				// still holds the position).
				st.lease = nil
				continue
			}
			return nil, err
		}
		if st.lease != nil {
			// Renewal: hand the live RNG stream to the next window instead
			// of replaying O(position) variates from the seed.
			st.lease, err = st.lease.Renew(grant.Bundle, grant.Token)
		} else {
			st.lease, err = clientdraw.Open(m.trees[req.Region], grant.Bundle, grant.Token)
		}
		if err != nil {
			st.lease = nil
			return nil, err
		}
		res.Reanchored = res.Reanchored || grant.Reanchored
	}
}

// roundTrip measures one request to full-body completion.
func roundTrip(client *http.Client, req *http.Request) sample {
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return sample{latency: time.Since(start), err: true}
	}
	defer resp.Body.Close()
	n, _ := io.Copy(io.Discard, resp.Body)
	s := sample{latency: time.Since(start), status: resp.StatusCode, bytes: n}
	s.err = resp.StatusCode != http.StatusOK
	return s
}

// config echoes the run parameters into the report.
type config struct {
	Server      string   `json:"server"`
	Workload    string   `json:"workload"`
	Transport   string   `json:"transport,omitempty"`
	Regions     []string `json:"regions"`
	DurationS   float64  `json:"duration_s"`
	Concurrency int      `json:"concurrency"`
	RateRPS     float64  `json:"rate_rps"`
	Batch       int      `json:"batch"`
	Mix         string   `json:"mix"`
	CellMix     string   `json:"cell_mix,omitempty"`
	ReportCount int      `json:"report_count,omitempty"`
	// LeaseDraws is the pre-paid cap per lease (-transport lease only).
	LeaseDraws  int    `json:"lease_draws,omitempty"`
	TraceSource string `json:"trace_source"`
}

// latencySummary is the quantile block of the report, in milliseconds.
type latencySummary struct {
	P50  float64 `json:"p50_ms"`
	P90  float64 `json:"p90_ms"`
	P95  float64 `json:"p95_ms"`
	P99  float64 `json:"p99_ms"`
	Mean float64 `json:"mean_ms"`
	Max  float64 `json:"max_ms"`
}

// histBucket is one log-scaled latency histogram bin.
type histBucket struct {
	UpToMs float64 `json:"up_to_ms"`
	Count  int64   `json:"count"`
}

// regionReport is one region's slice of the run.
type regionReport struct {
	Requests int64           `json:"requests"`
	Errors   int64           `json:"errors"`
	Latency  *latencySummary `json:"latency,omitempty"`
}

// report is the JSON output. Latency splits three ways: the overall
// distribution, the cold slice (first request per (region, level, delta) —
// absorbs lazy bootstraps and first solves), and the warm slice
// (everything else — the steady-state serving latency). Without the split,
// a handful of multi-second bootstraps pollute p99/max of a run whose
// steady state sits at single-digit milliseconds.
type report struct {
	Config          config  `json:"config"`
	ElapsedS        float64 `json:"elapsed_s"`
	Requests        int64   `json:"requests"`
	Errors          int64   `json:"errors"`
	DroppedArrivals int64   `json:"dropped_arrivals"`
	ItemsOK         int64   `json:"items_ok"`
	ItemsErr        int64   `json:"items_err"`
	ThroughputRPS   float64 `json:"throughput_rps"`
	ItemsPerSec     float64 `json:"items_per_sec"`
	ReportsPerSec   float64 `json:"reports_per_sec,omitempty"`
	BytesReceived   int64   `json:"bytes_received"`
	// StreamDials/StreamRetries appear on -transport stream runs: how many
	// TCP connections the pooled client opened and how many exchanges it
	// replayed on a fresh connection after a pooled one failed.
	StreamDials   int64 `json:"stream_dials,omitempty"`
	StreamRetries int64 `json:"stream_retries,omitempty"`
	ColdRequests  int64 `json:"cold_requests"`
	// Reanchors counts mobility responses whose server-side session moved
	// onto a new subtree; ReanchorRate is Reanchors over successful
	// requests. BudgetRejections counts 429s (the user's sliding-window
	// epsilon budget was spent); BudgetRejectionRate is over all requests.
	Reanchors           int64   `json:"reanchors,omitempty"`
	ReanchorRate        float64 `json:"reanchor_rate,omitempty"`
	BudgetRejections    int64   `json:"budget_rejections,omitempty"`
	BudgetRejectionRate float64 `json:"budget_rejection_rate,omitempty"`
	// DegradedReports counts responses served from a planar-Laplace
	// fallback entry (-degraded-serving servers); DegradedRate is over
	// successful requests. LatencyDegraded slices their latency out, so a
	// cold-region run shows the degraded-vs-optimal serving split
	// directly: degraded responses arrive in milliseconds while the LP
	// optimum is still solving in the background.
	DegradedReports int64           `json:"degraded_reports,omitempty"`
	DegradedRate    float64         `json:"degraded_rate,omitempty"`
	LatencyDegraded *latencySummary `json:"latency_degraded,omitempty"`
	Latency         latencySummary  `json:"latency"`
	LatencyCold     *latencySummary `json:"latency_cold,omitempty"`
	LatencyWarm     *latencySummary `json:"latency_warm,omitempty"`
	// LatencyReanchor slices out the mobility middle tier: requests that
	// re-anchored a session (preference re-evaluation + entry lookup, but
	// no cold session build). Warm then means steady-state O(1) draws.
	LatencyReanchor *latencySummary         `json:"latency_reanchor,omitempty"`
	Histogram       []histBucket            `json:"latency_histogram"`
	StatusCounts    map[string]int64        `json:"status_counts"`
	PerRegion       map[string]regionReport `json:"per_region"`
	// PerNode is the -cluster request distribution: how many requests the
	// ring routed to each member node.
	PerNode map[string]int64 `json:"per_node,omitempty"`
}

func summarize(workers []*worker, elapsed time.Duration, cfg config) *report {
	rep := &report{
		Config:       cfg,
		ElapsedS:     elapsed.Seconds(),
		StatusCounts: map[string]int64{},
		PerRegion:    map[string]regionReport{},
	}
	var all, coldMs, warmMs, reanchorMs, degradedMs []float64
	perRegion := map[string][]float64{}
	var okRequests int64
	for _, w := range workers {
		rep.ItemsOK += w.itemsOK
		rep.ItemsErr += w.itemsErr
		for _, s := range w.samples {
			rep.Requests++
			rep.BytesReceived += s.bytes
			ms := float64(s.latency) / float64(time.Millisecond)
			all = append(all, ms)
			switch {
			case s.budgetRejected:
				// 429s draw nothing: their near-instant round trips belong
				// in the rejection rate, not in any latency temperature.
			case s.cold:
				rep.ColdRequests++
				coldMs = append(coldMs, ms)
			case s.reanchored:
				reanchorMs = append(reanchorMs, ms)
			default:
				warmMs = append(warmMs, ms)
			}
			if s.reanchored {
				rep.Reanchors++
			}
			if s.degraded {
				rep.DegradedReports++
				degradedMs = append(degradedMs, ms)
			}
			if s.budgetRejected {
				rep.BudgetRejections++
			}
			if !s.err && !s.budgetRejected {
				okRequests++
			}
			key := "transport_error"
			if s.status != 0 {
				key = strconv.Itoa(s.status)
			}
			rep.StatusCounts[key]++
			if s.err {
				rep.Errors++
			}
			if s.region != "" || cfg.Batch == 0 {
				name := s.region
				if name == "" {
					name = "default"
				}
				rr := rep.PerRegion[name]
				rr.Requests++
				if s.err {
					rr.Errors++
				}
				rep.PerRegion[name] = rr
				perRegion[name] = append(perRegion[name], ms)
			}
		}
	}
	if elapsed > 0 {
		rep.ThroughputRPS = float64(rep.Requests) / elapsed.Seconds()
		rep.ItemsPerSec = float64(rep.ItemsOK+rep.ItemsErr) / elapsed.Seconds()
		if cfg.Workload == "report" || cfg.Workload == "mobility" {
			count := cfg.ReportCount
			if count < 1 {
				count = 1
			}
			rep.ReportsPerSec = float64(rep.ItemsOK*int64(count)) / elapsed.Seconds()
		}
	}
	rep.Latency = quantiles(all)
	rep.Histogram = histogram(all)
	if len(coldMs) > 0 {
		q := quantiles(coldMs)
		rep.LatencyCold = &q
	}
	if len(warmMs) > 0 {
		q := quantiles(warmMs)
		rep.LatencyWarm = &q
	}
	if len(reanchorMs) > 0 {
		q := quantiles(reanchorMs)
		rep.LatencyReanchor = &q
	}
	if len(degradedMs) > 0 {
		q := quantiles(degradedMs)
		rep.LatencyDegraded = &q
	}
	if okRequests > 0 {
		rep.ReanchorRate = round4(float64(rep.Reanchors) / float64(okRequests))
		rep.DegradedRate = round4(float64(rep.DegradedReports) / float64(okRequests))
	}
	if rep.Requests > 0 {
		rep.BudgetRejectionRate = round4(float64(rep.BudgetRejections) / float64(rep.Requests))
	}
	for name, ms := range perRegion {
		rr := rep.PerRegion[name]
		q := quantiles(ms)
		rr.Latency = &q
		rep.PerRegion[name] = rr
	}
	return rep
}

func quantiles(ms []float64) latencySummary {
	if len(ms) == 0 {
		return latencySummary{}
	}
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	// Nearest-rank (ceil) quantiles: P(q) is the smallest sample with at
	// least a q fraction of the distribution at or below it. The previous
	// int(q*(n-1)) truncation rounded the rank down, biasing p90/p95/p99
	// low on small samples (with 10 samples it reported p99 as the 9th
	// largest instead of the maximum).
	at := func(q float64) float64 {
		idx := int(math.Ceil(q*float64(len(sorted)))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		return round2(sorted[idx])
	}
	mean := 0.0
	for _, v := range sorted {
		mean += v
	}
	mean /= float64(len(sorted))
	return latencySummary{
		P50:  at(0.50),
		P90:  at(0.90),
		P95:  at(0.95),
		P99:  at(0.99),
		Mean: round2(mean),
		Max:  round2(sorted[len(sorted)-1]),
	}
}

// histogram buckets latencies into half-decade log bins from 1 ms up to
// the 10-minute client timeout (the final bucket absorbs anything above).
func histogram(ms []float64) []histBucket {
	if len(ms) == 0 {
		return nil
	}
	bounds := []float64{1, 3, 10, 30, 100, 300, 1000, 3000, 10000, 30000, 600000}
	buckets := make([]histBucket, len(bounds))
	for i, b := range bounds {
		buckets[i].UpToMs = b
	}
	for _, v := range ms {
		i := sort.SearchFloat64s(bounds, v)
		if i == len(bounds) {
			i--
		}
		buckets[i].Count++
	}
	// Trim empty tail buckets.
	last := 0
	for i, b := range buckets {
		if b.Count > 0 {
			last = i
		}
	}
	return buckets[:last+1]
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }

func round4(v float64) float64 { return math.Round(v*10000) / 10000 }
