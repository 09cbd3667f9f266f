// Command corgi-loadgen drives a corgi-server with a multi-region request
// mix and writes a JSON latency and throughput report (stdout, or -out
// FILE). It is flags over internal/loadgen, whose package comment says how
// a run works and what the report means.
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
//	              [-lease-draws 256] [-cluster addr[=url],...]
//	              [-seed 1] [-out report.json]
//
// -workload picks the traffic: forest (default) fetches (region, privacy
// level, delta) forests, report draws server-side reports for users at
// true cells, mobility replays moving users (-checkins trajectories, or
// -users x -moves random-waypoint walks) from one session stream each.
// The entries come from -trace FILE ("region level delta" lines for
// forest, "region level q r" for report), from -checkins FILE (a
// Gowalla-format check-in file), or from a synthetic -mix / -cell-mix over
// -levels and -deltas.
//
// Workers run closed-loop, or open-loop with -rate R (arrivals no worker
// is free for count as dropped_arrivals); -batch N packs N report entries
// into one POST /v1/reports or REPORTS frame (a forest is one GET).
//
// -transport stream sends report and mobility requests over corgi-stream
// frames to -stream-addr instead of HTTP+JSON (trace building still uses
// the HTTP -server); -transport lease draws on-device from clientdraw
// leases of -lease-draws draws each; -cluster gives the servers'
// -cluster-peers list and routes each request to its uid's owner node.
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
	"context"
	"encoding/json"
	"flag"
	"log"
	"os"
	"time"

	"corgi/internal/loadgen"
)

// options is corgi-loadgen's flags, one field each.
type options struct {
	cfg loadgen.Config
	out string
}

// bind declares corgi-loadgen's flags on fs.
func (o *options) bind(fs *flag.FlagSet) {
	cfg := &o.cfg
	fs.StringVar(&cfg.Server, "server", "http://127.0.0.1:8080", "corgi-server base URL")
	fs.DurationVar(&cfg.Duration, "duration", 10*time.Second, "how long to drive load")
	fs.StringVar(&cfg.Workload, "workload", "forest", "request type: forest (matrix distribution), report (server-side draws), or mobility (moving-user report streams)")
	fs.IntVar(&cfg.Concurrency, "concurrency", 8, "worker count (max in-flight requests)")
	fs.Float64Var(&cfg.Rate, "rate", 0, "open-loop arrival rate in req/s (0: closed loop)")
	fs.StringVar(&cfg.Regions, "regions", "", "comma-separated regions to hit (empty: ask /v1/regions)")
	fs.StringVar(&cfg.Levels, "levels", "1", "comma-separated privacy levels to mix")
	fs.StringVar(&cfg.Deltas, "deltas", "0,1", "comma-separated prune allowances to mix (forest workload)")
	fs.StringVar(&cfg.Mix, "mix", "uniform", "region weighting: uniform or zipf")
	fs.StringVar(&cfg.CellMix, "cell-mix", "uniform", "report workload true-cell weighting: uniform or zipf")
	fs.IntVar(&cfg.Users, "users", 1000, "report/mobility workload distinct user-id pool")
	fs.IntVar(&cfg.Moves, "moves", 64, "mobility workload random-waypoint steps per synthetic user")
	fs.IntVar(&cfg.ReportCount, "report-count", 1, "draws per report request")
	fs.IntVar(&cfg.Precision, "precision", 0, "report workload precision level")
	fs.IntVar(&cfg.Batch, "batch", 0, "pack N report trace entries per batched round trip (0: single requests; report workload only)")
	fs.StringVar(&cfg.TracePath, "trace", "", "trace file: 'region level delta' (forest) or 'region level q r' (report) lines")
	fs.StringVar(&cfg.CheckinsPath, "checkins", "", "Gowalla check-in file; per-region weights follow its geography")
	fs.StringVar(&cfg.Transport, "transport", "http", "report/mobility transport: http (JSON round trips), stream (corgi-stream binary frames), or lease (client-side draws against POST /v1/lease)")
	fs.StringVar(&cfg.StreamAddr, "stream-addr", "", "corgi-stream address, host:port (required with -transport stream)")
	fs.IntVar(&cfg.LeaseDraws, "lease-draws", 256, "draw cap pre-paid per lease (-transport lease)")
	fs.StringVar(&cfg.Cluster, "cluster", "",
		"cluster member list, comma-separated streamAddr[=httpURL] entries matching the servers' -cluster-peers: each request routes to its uid's owner node over the same consistent-hash ring (report/mobility workloads, no -batch)")
	fs.Int64Var(&cfg.Seed, "seed", 1, "mix/shuffle seed")
	fs.StringVar(&o.out, "out", "", "write the JSON report here (empty: stdout)")
}

func main() {
	var o options
	o.bind(flag.CommandLine)
	flag.Parse()

	report, err := loadgen.Run(context.Background(), o.cfg)
	if err != nil {
		log.Fatal(err)
	}
	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatalf("report: %v", err)
	}
	enc = append(enc, '\n')
	if o.out == "" {
		os.Stdout.Write(enc)
	} else {
		if err := os.WriteFile(o.out, enc, 0o644); err != nil {
			log.Fatalf("writing %s: %v", o.out, err)
		}
		log.Printf("report written to %s", o.out)
	}
	if report.Requests == 0 {
		log.Fatalf("no requests completed inside %v", o.cfg.Duration)
	}
}
