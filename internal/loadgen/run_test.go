package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"corgi/internal/budget"
	"corgi/internal/node/nodetest"
	"corgi/internal/registry"
)

// runConfig is a short valid run against server; tests edit what they are
// about.
func runConfig(server string) Config {
	return Config{
		Server: server, Duration: 300 * time.Millisecond, Workload: "forest", Concurrency: 2,
		Levels: "1", Deltas: "0,1", Mix: "uniform", CellMix: "uniform",
		Users: 4, Moves: 8, ReportCount: 1, Transport: "http", LeaseDraws: 4, Seed: 1,
	}
}

func TestConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		edit func(*Config)
		want string // "" accepts
	}{
		{func(c *Config) {}, ""},
		{func(c *Config) { c.Workload, c.Transport, c.StreamAddr = "report", "stream", "127.0.0.1:1" }, ""},
		{func(c *Config) { c.Workload, c.Transport, c.Cluster = "mobility", "stream", "a,b" }, ""},
		{func(c *Config) { c.Workload, c.Transport = "mobility", "lease" }, ""},
		{func(c *Config) { c.Concurrency = 0 }, "-concurrency must be >= 1"},
		{func(c *Config) { c.Workload = "matrix" }, "-workload must be forest, report, or mobility"},
		{func(c *Config) { c.Workload, c.Batch = "forest", 2 },
			"-batch is not supported by the forest workload (a forest is one cacheable GET; -batch packs report batches)"},
		{func(c *Config) { c.Workload, c.Batch = "mobility", 2 },
			"-batch is not supported by the mobility workload (per-response re-anchor parsing)"},
		{func(c *Config) { c.Workload, c.TracePath = "mobility", "t.txt" },
			"the mobility workload replays -checkins trajectories or synthesizes random-waypoint walks; -trace is for forest/report"},
		{func(c *Config) { c.Transport = "udp" }, "-transport must be http, stream, or lease"},
		{func(c *Config) { c.Transport, c.StreamAddr = "stream", "127.0.0.1:1" },
			"-transport stream serves the report pipeline; use -workload report or mobility"},
		{func(c *Config) { c.Workload, c.Transport = "report", "stream" },
			"-transport stream needs -stream-addr (the server's corgi-stream listener; trace building still uses the HTTP -server) or -cluster"},
		{func(c *Config) { c.Cluster = "a,b" }, "-cluster routes the report pipeline; use -workload report or mobility"},
		{func(c *Config) { c.Workload, c.Cluster, c.Batch = "report", "a,b", 2 },
			"-batch is not supported with -cluster (batches span users, per-uid routing is per-request)"},
		{func(c *Config) { c.Workload, c.Cluster, c.Transport = "report", "a,b", "lease" },
			"-transport lease is not supported with -cluster yet"},
		{func(c *Config) { c.Transport = "lease" }, "-transport lease serves the report pipeline; use -workload report or mobility"},
		{func(c *Config) { c.Workload, c.Transport, c.Batch = "report", "lease", 2 },
			"-batch is not supported by -transport lease (leases are per-user draw streams)"},
		{func(c *Config) { c.Workload, c.Transport, c.LeaseDraws = "report", "lease", 0 }, "-lease-draws must be >= 1"},
	} {
		cfg := runConfig("http://127.0.0.1:1")
		tc.edit(&cfg)
		err := cfg.validate()
		if got := errString(err); got != tc.want {
			t.Errorf("%+v: validate() = %q, want %q", cfg, got, tc.want)
		}
		// Run refuses what validate refuses, before it touches the network.
		if _, rerr := Run(context.Background(), cfg); tc.want != "" && errString(rerr) != tc.want {
			t.Errorf("Run = %v, want %q", rerr, tc.want)
		}
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func TestArrivalsDue(t *testing.T) {
	for _, tc := range []struct {
		elapsed time.Duration
		rate    float64
		want    int64
	}{
		{0, 100, 0},
		{9 * time.Millisecond, 100, 0},
		{10 * time.Millisecond, 100, 1},
		{time.Second, 100, 100},
		{1999 * time.Millisecond, 0.5, 0},
		{2 * time.Second, 0.5, 1},
		{time.Millisecond, 1e6, 1000},
		// A wake that comes late owes every arrival since the last one.
		{250 * time.Millisecond, 2000, 500},
	} {
		if got := arrivalsDue(tc.elapsed, tc.rate); got != tc.want {
			t.Errorf("arrivalsDue(%v, %v) = %d, want %d", tc.elapsed, tc.rate, got, tc.want)
		}
	}
}

// TestOpenLoopCountsEveryArrival offers arrivals far faster than a ticker
// delivers ticks: every arrival the rate owes is either issued or counted
// dropped, and a request is timed from when it was due.
func TestOpenLoopCountsEveryArrival(t *testing.T) {
	instant := func(context.Context, []request) outcome {
		return outcome{status: http.StatusOK, items: []item{{}}}
	}
	cfg := Config{Concurrency: 2, Rate: 200000, Duration: 200 * time.Millisecond}
	workers, arr, elapsed := runLoop(context.Background(), cfg, []request{forestRequest("sf", 1, 0)}, instant)
	var requests int64
	for _, w := range workers {
		requests += int64(len(w.samples))
	}
	if requests+arr.dropped != arr.offered {
		t.Errorf("%d requests + %d dropped != %d offered", requests, arr.dropped, arr.offered)
	}
	if owed := 0.9 * cfg.Rate * elapsed.Seconds(); float64(arr.offered) < owed {
		t.Errorf("offered %d arrivals in %v at %v/s, want at least %.0f", arr.offered, elapsed, cfg.Rate, owed)
	}

	// One worker behind a 20ms target, arrivals every 5ms: whoever waits in
	// the queue has that wait in their latency.
	slow := func(ctx context.Context, entries []request) outcome {
		time.Sleep(20 * time.Millisecond)
		return instant(ctx, entries)
	}
	cfg = Config{Concurrency: 1, Rate: 200, Duration: 100 * time.Millisecond}
	workers, _, _ = runLoop(context.Background(), cfg, []request{forestRequest("sf", 1, 0)}, slow)
	var longest time.Duration
	for _, s := range workers[0].samples {
		longest = max(longest, s.latency)
	}
	if longest < 30*time.Millisecond {
		t.Errorf("longest open-loop latency %v: the queue wait is missing", longest)
	}
}

// TestRunMobilityTransports replays check-in trajectories against a
// budget-capped server through each handler the -transport flag can pick —
// JSON, stream frames, and on-device lease draws — and checks the
// accounting the CI smoke asserts: spent budgets show up as rejections on
// every transport and nothing shows up as an error. Each run fetches the
// region's tree once, whoever needs it.
func TestRunMobilityTransports(t *testing.T) {
	if testing.Short() {
		t.Skip("spins a real region")
	}
	const eps = 15 // registry.Spec default
	srv := reportTestServerOpts(t, registry.Options{
		Budget: budget.Config{LimitEps: 6 * eps, Window: time.Hour},
	}, "sf")
	sf := testWorld(t, srv, "sf")
	cfg := runConfig(srv.URL)
	cfg.Workload, cfg.StreamAddr = "mobility", srv.streamAddr(t)
	for i, transport := range []string{"warm-up", "http", "stream", "lease"} {
		// Three fresh users per run: each starts with a full window and
		// runs it dry. The first run only absorbs the region's bootstrap.
		cfg.CheckinsPath = writeCheckins(t, sf, 3*i)
		if cfg.Transport = transport; i == 0 {
			cfg.Transport = "http"
		}
		rep, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", transport, err)
		}
		if i == 0 {
			continue
		}
		if rep.Errors != 0 || rep.BudgetRejections == 0 || rep.ItemsOK == 0 {
			t.Errorf("%s: errors %d, budget rejections %d, items ok %d; want 0, >0, >0 (statuses %v)",
				transport, rep.Errors, rep.BudgetRejections, rep.ItemsOK, rep.StatusCounts)
		}
		if rep.ItemsOK+rep.BudgetRejections != rep.Requests {
			t.Errorf("%s: %d served + %d rejected of %d", transport, rep.ItemsOK, rep.BudgetRejections, rep.Requests)
		}
		if (rep.StreamDials > 0) != (transport == "stream") || rep.BytesReceived == 0 {
			t.Errorf("%s: stream dials %d, bytes received %d", transport, rep.StreamDials, rep.BytesReceived)
		}
		if transport == "lease" && rep.Config.LeaseDraws != 4 {
			t.Errorf("lease_draws = %d, want 4", rep.Config.LeaseDraws)
		}
		// One fetch by the test itself, one per run.
		if got := srv.count("/v1/tree?sf"); got != i+2 {
			t.Errorf("%s: %d /v1/tree fetches after %d runs", transport, got, i+1)
		}
	}
}

// TestRunForest drives the forest target end to end, closed-loop and
// open-loop.
func TestRunForest(t *testing.T) {
	if testing.Short() {
		t.Skip("spins real regions")
	}
	srv := reportTestServer(t, "lg-a", "lg-b")
	for _, tc := range []struct {
		name string
		rate float64
	}{
		{"closed loop", 0},
		{"100/s", 100},
	} {
		cfg := runConfig(srv.URL)
		cfg.Rate = tc.rate
		rep, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rep.Errors != 0 || rep.Requests == 0 || rep.BytesReceived == 0 {
			t.Errorf("%s: errors %d, requests %d, bytes received %d (statuses %v)",
				tc.name, rep.Errors, rep.Requests, rep.BytesReceived, rep.StatusCounts)
		}
		if rep.ItemsOK != rep.Requests || rep.ItemsErr != 0 {
			t.Errorf("%s: items ok %d + err %d, want %d + 0", tc.name, rep.ItemsOK, rep.ItemsErr, rep.Requests)
		}
		if got := strings.Join(rep.Config.Regions, ","); got != "lg-a,lg-b" {
			t.Errorf("%s: regions %q, want the server's /v1/regions listing", tc.name, got)
		}
		if owed := arrivalsDue(cfg.Duration, tc.rate); tc.rate > 0 && rep.Requests+rep.DroppedArrivals != owed {
			t.Errorf("%s: %d requests + %d dropped, want the %d arrivals owed", tc.name, rep.Requests, rep.DroppedArrivals, owed)
		}
		// Four (region, delta) keys, each cold at most once.
		if rep.ColdRequests < 1 || rep.ColdRequests > 4 {
			t.Errorf("%s: %d cold requests, want 1 to 4", tc.name, rep.ColdRequests)
		}
	}
}

// TestRunCluster routes users over a two-node cluster (corgi-server's own
// assembly, routers included) with the ring the servers run: every
// request is counted against its node, and every uid went straight to its
// owner, so no node forwarded anything.
func TestRunCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("spins real regions")
	}
	regions := writeFile(t, "regions.json", `[{"name": "lg-a", "center_lat": 37.765, "center_lng": -122.435,
		"height": 2, "iterations": 1, "targets": 3, "uniform_priors": true}]`)
	nodes := nodetest.Start(t, 2, func(int) []string { return []string{"-region-config", regions} }).Nodes
	peers := nodes[0].Config.ClusterPeers
	for _, transport := range []string{"http", "stream"} {
		cfg := runConfig("http://" + nodes[0].HTTPListener.Addr().String())
		cfg.Workload, cfg.Transport, cfg.Cluster, cfg.Users = "mobility", transport, peers, 16
		rep, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", transport, err)
		}
		if rep.Errors != 0 || rep.ItemsOK == 0 {
			t.Errorf("%s: errors %d, items ok %d (statuses %v)", transport, rep.Errors, rep.ItemsOK, rep.StatusCounts)
		}
		var routed int64
		for _, n := range rep.PerNode {
			routed += n
		}
		if routed != rep.Requests || len(rep.PerNode) != 2 {
			t.Errorf("%s: per_node %v sums to %d of %d requests", transport, rep.PerNode, routed, rep.Requests)
		}
	}
	var served uint64
	for _, nd := range nodes {
		st := nd.Router.Stats()
		served += st.OwnerServed
		if st.ForwardedOut != 0 || st.ForwardedIn != 0 || st.FailoverLocal != 0 {
			t.Errorf("node %s forwarded: %+v", st.Self, st)
		}
	}
	if served == 0 {
		t.Error("no node's router served a request as owner")
	}
}

// TestRunErrors checks a run that cannot start says why.
func TestRunErrors(t *testing.T) {
	noRegions := httptest.NewServer(http.NotFoundHandler())
	defer noRegions.Close()
	for _, tc := range []struct {
		name   string
		server string
		want   []string
	}{
		{"unreachable -server", "http://127.0.0.1:1", []string{"regions: GET http://127.0.0.1:1/v1/regions", "connection refused"}},
		{"server without /v1/regions", noRegions.URL, []string{"regions: GET " + noRegions.URL + "/v1/regions", "404"}},
	} {
		_, err := Run(context.Background(), runConfig(tc.server))
		for _, want := range tc.want {
			if !strings.Contains(errString(err), want) {
				t.Errorf("%s: error %q does not say %q", tc.name, errString(err), want)
			}
		}
	}
}
