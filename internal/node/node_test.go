package node_test

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"corgi/internal/hexgrid"
	"corgi/internal/node"
	"corgi/internal/node/nodetest"
	"corgi/internal/policy"
	"corgi/internal/proto"
	"corgi/internal/registry"
	"corgi/internal/store"
	"corgi/internal/stream"
)

const testRegion = "nd"

// parse is corgi-server's command line: args on top of loopback listeners
// on free ports and a -region-config holding one small region.
func parse(t *testing.T, args ...string) node.Config {
	t.Helper()
	regions := filepath.Join(t.TempDir(), "regions.json")
	if err := os.WriteFile(regions, []byte(`[{"name": "`+testRegion+`", "center_lat": 37.765, "center_lng": -122.435,
		"height": 2, "iterations": 1, "targets": 3, "uniform_priors": true}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	var cfg node.Config
	fs := flag.NewFlagSet("corgi-server", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cfg.Bind(fs)
	if err := fs.Parse(append([]string{"-addr", "127.0.0.1:0", "-stream-addr", "127.0.0.1:0", "-region-config", regions}, args...)); err != nil {
		t.Fatal(err)
	}
	return cfg
}

func url(nd *node.Node) string { return "http://" + nd.HTTPListener.Addr().String() }

// fetchForest asks nd for a forest over HTTP, as a device would.
func fetchForest(t *testing.T, nd *node.Node, level, delta int) {
	t.Helper()
	c := proto.NewRegionClient(url(nd), testRegion)
	tree, _, err := c.FetchTree()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.FetchForest(tree, level, delta); err != nil {
		t.Fatal(err)
	}
}

func snapshotKey(t *testing.T, nd *node.Node, level, delta int) store.Key {
	t.Helper()
	spec, _ := nd.Registry.Spec(testRegion)
	return store.Key{SpecHash: spec.Hash(), Level: level, Delta: delta}
}

// TestClusterAssembly drives three nodes through everything the assembly
// hooks up and nothing a hand-wired copy could fake: the stats sections
// (Handler.Stream, Handler.Cluster), the snapshot route and the peer fetch
// (Handler.Store, Store.SetPeerFetch), routing on both transports
// (Handler.Handler, Stream.SetHandler), and the shutdown order's last step.
func TestClusterAssembly(t *testing.T) {
	ctx := context.Background()
	regions := parse(t).Spec.RegionConfig
	nodes := nodetest.Start(t, 3, func(int) []string { return []string{"-region-config", regions, "-store", t.TempDir()} }).Nodes
	a, b, c := nodes[0], nodes[1], nodes[2]

	// A pays for a forest once; B's first request for it is a peer fetch.
	fetchForest(t, a, 1, 0)
	a.Registry.FlushStores()
	if solves := a.Registry.AggregateStats().Solves; solves == 0 {
		t.Fatal("node A served a cold forest without solving")
	}
	fetchForest(t, b, 1, 0)
	if solves := b.Registry.AggregateStats().Solves; solves != 0 {
		t.Errorf("node B solved %d subtrees for a forest its peer had stored", solves)
	}
	if rs := b.Router.Stats(); rs.PeerFetches != 1 || rs.PeerFetchMisses != 0 {
		t.Errorf("node B router: %d peer fetches, %d misses, want 1 and 0", rs.PeerFetches, rs.PeerFetchMisses)
	}
	if _, err := b.Store.LoadRaw(snapshotKey(t, b, 1, 0)); err != nil {
		t.Errorf("node B did not keep the fetched snapshot: %v", err)
	}

	// A snapshot damaged on A's disk fails C's checksum: C solves for itself.
	// The forest's subtrees miss in turn, but C's store remembers the
	// refused key, so the payload is fetched exactly once and never
	// accepted.
	fetchForest(t, a, 1, 1)
	a.Registry.FlushStores()
	damaged := filepath.Join(a.Store.Dir(), snapshotKey(t, a, 1, 1).SpecHash[:16], "L1_d1.snap")
	raw, err := os.ReadFile(damaged)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(damaged, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	fetchForest(t, c, 1, 1)
	if rs := c.Router.Stats(); rs.PeerFetches != 1 {
		t.Errorf("node C router: %d peer fetches, want the damaged payload fetched once and refused", rs.PeerFetches)
	}
	if solves := c.Registry.AggregateStats().Solves; solves == 0 {
		t.Error("node C did not fall through to a local solve")
	}

	// A clustered node's /v1/stats has the router's and the stream's sections.
	resp, err := http.Get(url(a) + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var sections map[string]json.RawMessage
	err = json.NewDecoder(resp.Body).Decode(&sections)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cluster", "stream"} {
		if _, ok := sections[name]; !ok {
			t.Errorf("/v1/stats has no %q section", name)
		}
	}

	// A report for one of B's users entering at A, on either of A's
	// transports, is forwarded over stream and arrives at B's router. The
	// user's failover order is B, then C.
	ring := a.Router.Ring()
	var uid int64
	for uid = 1; ; uid++ {
		if seq := ring.Sequence(uid); seq[0] == b.Config.ClusterSelf && seq[1] == c.Config.ClusterSelf {
			break
		}
	}
	sh, err := a.Registry.Shard(ctx, testRegion)
	if err != nil {
		t.Fatal(err)
	}
	leaf := sh.Server.Tree().LevelNodes(0)[0]
	req := registry.ReportRequest{
		Region: testRegion, Cell: hexgrid.Coord{Q: leaf.Coord.Q, R: leaf.Coord.R}, UID: uid,
		Policy: policy.Policy{PrivacyLevel: 1}, Seed: 17, Count: 2,
	}
	overStream := stream.NewClient(a.StreamListener.Addr().String(), stream.ClientConfig{})
	defer overStream.Close()
	for i, entry := range []registry.ReportHandler{proto.NewClient(url(a)).Remote(), overStream.Remote()} {
		if _, err := entry.Report(ctx, req); err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		as, bs := a.Router.Stats(), b.Router.Stats()
		if as.ForwardedOut != uint64(i+1) || bs.ForwardedIn != uint64(i+1) {
			t.Fatalf("entry %d: A forwarded %d, B received %d", i, as.ForwardedOut, bs.ForwardedIn)
		}
	}
	// With B's stream transport gone the same report fails over: A gives
	// up on B and forwards to C, the next member in the user's order.
	if err := b.Stream.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := proto.NewClient(url(a)).Remote().Report(ctx, req); err != nil {
		t.Fatal(err)
	}
	as, bs, cs := a.Router.Stats(), b.Router.Stats(), c.Router.Stats()
	if as.Failovers != 1 || as.ForwardedOut != 3 || bs.ForwardedIn != 2 || cs.ForwardedIn != 1 {
		t.Errorf("stream down: A failed over %d and forwarded %d, B received %d, C %d; want 1, 3, 2, 1",
			as.Failovers, as.ForwardedOut, bs.ForwardedIn, cs.ForwardedIn)
	}

	// C's solve writes back asynchronously; Shutdown is what makes it
	// durable, closes both listeners, and is safe to call again.
	if err := c.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := c.Store.LoadRaw(snapshotKey(t, c, 1, 1)); err != nil {
		t.Errorf("after Shutdown node C's solved forest is not on disk: %v", err)
	}
	for _, lis := range []net.Listener{c.HTTPListener, c.StreamListener} {
		if conn, err := net.Dial("tcp", lis.Addr().String()); err == nil {
			conn.Close()
			t.Errorf("%s still accepts after Shutdown", lis.Addr())
		}
	}
	if err := c.Shutdown(ctx); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
}

// TestSingleNode: without -stream-addr, -store or -cluster-peers the parts
// that serve them stay nil and the node serves HTTP alone.
func TestSingleNode(t *testing.T) {
	cfg := parse(t, "-stream-addr", "", "-eager")
	nd, err := node.Listen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Shutdown(context.Background())
	if err := nd.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if nd.Stream != nil || nd.StreamListener != nil || nd.Store != nil || nd.Router != nil {
		t.Errorf("single node has cluster parts: %+v", nd)
	}
	if !nd.Registry.Ready(testRegion) {
		t.Error("-eager did not bootstrap the region before serving")
	}
	resp, err := http.Get(url(nd) + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz answered %d", resp.StatusCode)
	}
	// A listener that had stopped on its own would be reported here.
	if err := nd.Shutdown(context.Background()); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// TestShutdownWaitsForUpgrades: a -degraded-serving node answers a cold
// privacy-level-2 report from its fallback and solves the K=49 entry in
// the background, detached from the request. Shutdown returns only once
// that solve has landed, so no solve outlives the node and the store
// flush after it sees what the solve wrote.
func TestShutdownWaitsForUpgrades(t *testing.T) {
	nd, err := node.Listen(parse(t, "-stream-addr", "", "-degraded-serving"))
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Shutdown(context.Background())
	if err := nd.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := proto.NewRegionClient(url(nd), testRegion).Remote().Report(context.Background(),
		registry.ReportRequest{Region: testRegion, Policy: policy.Policy{PrivacyLevel: 2}, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("the cold report was not served from the fallback; no upgrade runs")
	}
	if err := nd.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	sh, _ := nd.Registry.ShardIfReady(testRegion)
	if got := sh.Server.Stats().DegradedUpgrades; got != 1 {
		t.Errorf("Shutdown returned with %d of 1 upgrade solves landed", got)
	}
}

// TestRefusedConfigs: what the flags cannot mean is refused before
// anything serves, and a node that was refused at Start releases its
// listeners on Shutdown.
func TestRefusedConfigs(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-targets", "0"}, "targets: count must be >= 1, got 0"},
		{[]string{"-regions", "sf"}, "use either -regions or -region-config"},
		{[]string{"-lease-secret", "xyz"}, "lease-secret:"},
		{[]string{"-budget-eps", "-1"}, "negative"},
		{[]string{"-addr", "256.0.0.1:0"}, "listen:"},
	} {
		if nd, err := node.Listen(parse(t, tc.args...)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Listen(%v) = %v, %v; want an error saying %q", tc.args, nd, err, tc.want)
		}
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-cluster-peers", "127.0.0.1:1"}, "-cluster-self is required"},
		{[]string{"-cluster-peers", "127.0.0.1:1", "-cluster-self", "127.0.0.1:2"}, "not in member list"},
		{[]string{"-stream-addr", "", "-cluster-peers", "127.0.0.1:1", "-cluster-self", "127.0.0.1:1"}, "-stream-addr is required"},
	} {
		nd, err := node.Listen(parse(t, tc.args...))
		if err != nil {
			t.Fatal(err)
		}
		if err := nd.Start(context.Background()); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Start(%v) = %v; want an error saying %q", tc.args, err, tc.want)
		}
		if err := nd.Shutdown(context.Background()); err != nil {
			t.Errorf("Shutdown after a refused Start: %v", err)
		}
		if conn, err := net.Dial("tcp", nd.HTTPListener.Addr().String()); err == nil {
			conn.Close()
			t.Errorf("%v: listener still open after Shutdown", tc.args)
		}
	}
}
