// Three-node in-process cluster tests: forwarding, budget handoff on
// rebalance, and failover with recovery. External test package so the
// nodes come up through internal/node, the assembly cmd/corgi-server runs,
// without cluster importing its own consumers.
package cluster_test

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"corgi/internal/budget"
	"corgi/internal/cluster"
	"corgi/internal/geo"
	"corgi/internal/gowalla"
	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
	"corgi/internal/node"
	"corgi/internal/node/nodetest"
	"corgi/internal/policy"
	"corgi/internal/registry"
)

const testRegion = "ra"

func clusterSpec() []registry.Spec {
	return []registry.Spec{{
		Name:      testRegion,
		CenterLat: 37.765, CenterLng: -122.435,
		Height: 2, Iterations: 1, Targets: 3,
		UniformPriors: true,
	}}
}

// testNode is one in-process cluster member: a corgi-server in cluster
// mode, minus the process. name is its ring identity, its stream address.
type testNode struct {
	*node.Node
	name string
}

// shard returns the node's region shard (budget accountant lives on it).
func (n *testNode) shard(t *testing.T) *registry.Shard {
	t.Helper()
	sh, err := n.Registry.Shard(context.Background(), testRegion)
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// nodesOf brings up n nodes through nodetest, every one over a
// -region-config holding clusterSpec with the corgi-server flags args on
// top, and returns the cluster and its nodes.
func nodesOf(t *testing.T, n int, args ...string) (*nodetest.Cluster, []*testNode) {
	t.Helper()
	specs, err := json.Marshal(clusterSpec())
	if err != nil {
		t.Fatal(err)
	}
	regions := filepath.Join(t.TempDir(), "regions.json")
	if err := os.WriteFile(regions, specs, 0o644); err != nil {
		t.Fatal(err)
	}
	c := nodetest.Start(t, n, func(int) []string { return append([]string{"-region-config", regions}, args...) })
	nodes := make([]*testNode, n)
	for i, nd := range c.Nodes {
		nodes[i] = &testNode{Node: nd, name: nd.Config.ClusterSelf}
	}
	return c, nodes
}

// uidOwnedBy finds a uid the ring assigns to want, starting from seed.
func uidOwnedBy(t *testing.T, ring *cluster.Ring, want string, seed int64) int64 {
	t.Helper()
	for uid := seed; uid < seed+10000; uid++ {
		if ring.Owner(uid) == want {
			return uid
		}
	}
	t.Fatalf("no uid owned by %s in 10000 tries", want)
	return 0
}

func reportReq(t *testing.T, n *testNode, uid int64) registry.ReportRequest {
	t.Helper()
	tree := n.shard(t).Server.Tree()
	leaf := tree.LevelNodes(0)[0]
	return registry.ReportRequest{
		Region: testRegion,
		Cell:   hexgrid.Coord{Q: leaf.Coord.Q, R: leaf.Coord.R},
		UID:    uid,
		Policy: policy.Policy{PrivacyLevel: 1},
		Seed:   17,
		Count:  2,
	}
}

// TestClusterForwarding: a request entering at a non-owner node is
// forwarded one hop and served by the owner, with the counters attributing
// it correctly on both sides — and the draws are identical to what a
// single-node deployment would have produced for the same session.
func TestClusterForwarding(t *testing.T) {
	_, nodes := nodesOf(t, 3)
	ring := nodes[0].Router.Ring()

	// A uid owned by node 1, entering at node 0.
	uid := uidOwnedBy(t, ring, nodes[1].name, 100)
	req := reportReq(t, nodes[0], uid)
	res, err := nodes[0].Router.Report(context.Background(), req)
	if err != nil {
		t.Fatalf("forwarded report: %v", err)
	}
	gotReports := append([]loctree.NodeID(nil), res.Reports...)

	s0, s1 := nodes[0].Router.Stats(), nodes[1].Router.Stats()
	if s0.ForwardedOut != 1 || s0.OwnerServed != 0 {
		t.Fatalf("entry node stats: %+v", s0)
	}
	if s1.ForwardedIn != 1 {
		t.Fatalf("owner node stats: %+v", s1)
	}

	// The same session served by a standalone registry draws identically:
	// routing must not perturb the paper's deterministic replay property.
	ref, err := registry.New(clusterSpec(), registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Report(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Reports) != len(gotReports) {
		t.Fatalf("draw count %d vs single-node %d", len(gotReports), len(want.Reports))
	}
	for i := range want.Reports {
		if want.Reports[i] != gotReports[i] {
			t.Fatalf("draw %d: forwarded %v, single-node %v", i, gotReports[i], want.Reports[i])
		}
	}

	// Entering at the owner serves locally, no forward.
	if _, err := nodes[1].Router.Report(context.Background(), reportReq(t, nodes[1], uid)); err != nil {
		t.Fatal(err)
	}
	if s1 := nodes[1].Router.Stats(); s1.OwnerServed != 1 {
		t.Fatalf("owner-entry stats: %+v", s1)
	}
}

// TestClusterHandoffExactlyOnce is the rebalance contract (satellite:
// ring rebalance + budget): when ownership of a user moves, the first
// forwarded report carries the old owner's live spend exactly once — the
// new owner counts it (no reset), duplicates dedupe (no double charge),
// and subsequent forwards carry nothing. Once the spend is on the owner,
// an ask past the cap is the owner's 429 with the owner's headroom.
func TestClusterHandoffExactlyOnce(t *testing.T) {
	_, nodes := nodesOf(t, 3, "-budget-eps", "1000")
	fullRing := nodes[0].Router.Ring()

	// A uid the full ring assigns to node 1.
	uid := uidOwnedBy(t, fullRing, nodes[1].name, 500)

	// Node 0 as it ran alone, before the rest joined — the "before"
	// topology in which node 0 owns everyone — and the user spends there.
	before := soloRouter(t, nodes)
	res, err := before.Report(context.Background(), reportReq(t, nodes[0], uid))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Budgeted || res.EpsSpent <= 0 {
		t.Fatalf("pre-move report not budgeted: %+v", res)
	}
	preSpend := nodes[0].shard(t).Budget.Spent(uid)
	if preSpend <= 0 {
		t.Fatal("no spend recorded before the move")
	}

	// Rebalance: node 0 restarted with the full membership, so the uid's
	// owner is now node 1. The first post-move report through node 0 is
	// forwarded with the handoff.
	res2, err := nodes[0].Router.Report(context.Background(), reportReq(t, nodes[0], uid))
	if err != nil {
		t.Fatalf("post-move report: %v", err)
	}
	spent2 := res2.EpsSpent

	b0, b1 := nodes[0].shard(t).Budget, nodes[1].shard(t).Budget
	if st := b1.Stats(); st.HandoffsImported != 1 || !appliedThrough(b1, uid, nodes[0].name, 1) {
		t.Fatalf("owner imported %d handoffs, want exactly 1, node 0's first", st.HandoffsImported)
	}
	// No reset: the new owner counts old spend + its own charge.
	if got, want := b1.Spent(uid), preSpend+spent2; got != want {
		t.Fatalf("new owner counts %v, want %v (handoff %v + fresh %v)", got, want, preSpend, spent2)
	}
	// No double charge: the old owner's window is empty after the commit.
	if got := b0.Spent(uid); got != 0 {
		t.Fatalf("old owner still counts %v after handoff commit", got)
	}
	if s0 := nodes[0].Router.Stats(); s0.HandoffsSent != 1 {
		t.Fatalf("handoffs sent %d, want 1", s0.HandoffsSent)
	}

	// Second post-move report: nothing left to hand off; the watermark
	// must not advance and the spend grows only by the new charge.
	res3, err := nodes[0].Router.Report(context.Background(), reportReq(t, nodes[0], uid))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := b1.Spent(uid), preSpend+spent2+res3.EpsSpent; got != want {
		t.Fatalf("spend after second forward %v, want %v", got, want)
	}
	if st := b1.Stats(); st.HandoffsImported != 1 {
		t.Fatalf("second forward re-applied a handoff: owner imported %d, want 1", st.HandoffsImported)
	}

	// With the user's spend now on the owner, an ask past the cap is the
	// owner's 429, relayed with the owner's headroom.
	over := reportReq(t, nodes[0], uid)
	over.Count = 100
	_, err = nodes[0].Router.Report(context.Background(), over)
	headroom := 1000 - b1.Spent(uid) // -budget-eps less the owner's count
	if rej := registry.Classify(err); rej.Status != http.StatusTooManyRequests ||
		!rej.HasEps || rej.EpsRemaining != headroom {
		t.Fatalf("forwarded over-budget ask answered %+v, want a 429 with headroom %v", rej, headroom)
	}
}

// soloRouter is node 0's router as if node 0 had been started with only
// itself in -cluster-peers: over node 0's registry, it owns every uid.
func soloRouter(t *testing.T, nodes []*testNode) *cluster.Router {
	t.Helper()
	members, err := cluster.ParsePeers(nodes[0].Config.ClusterPeers)
	if err != nil {
		t.Fatal(err)
	}
	r, err := cluster.NewRouter(nodes[0].Registry, nodes[0].name, members[:1], cluster.RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// TestClusterFailoverAndRecovery: with the owner down, requests fail over
// along the ring sequence and keep being served; when the owner comes
// back (same address), traffic returns to it — the reconnect-backoff
// probe is what rediscovers it, once the nodes' clock passes the backoff.
func TestClusterFailoverAndRecovery(t *testing.T) {
	c, nodes := nodesOf(t, 3)
	ring := nodes[0].Router.Ring()
	uid := uidOwnedBy(t, ring, nodes[1].name, 900)

	// Kill the owner: nobody has dialled it yet, so closing its listener
	// leaves it unreachable.
	if err := nodes[1].StreamListener.Close(); err != nil {
		t.Fatal(err)
	}

	// Requests entering at node 0 still succeed, attributed to failover.
	for i := 0; i < 3; i++ {
		if _, err := nodes[0].Router.Report(context.Background(), reportReq(t, nodes[0], uid)); err != nil {
			t.Fatalf("report %d with owner down: %v", i, err)
		}
	}
	s0 := nodes[0].Router.Stats()
	if s0.Failovers+s0.FailoverLocal < 3 {
		t.Fatalf("failover not attributed: %+v", s0)
	}
	if s0.Nodes[nodes[1].name].Healthy {
		t.Fatalf("dead owner still marked healthy: %+v", s0.Nodes[nodes[1].name])
	}

	// Revive the owner on its old address: the node's stream server takes
	// a second listener, and the node's Shutdown closes it with the rest.
	lis, err := net.Listen("tcp", nodes[1].name)
	if err != nil {
		t.Fatalf("re-listen on %s: %v", nodes[1].name, err)
	}
	go nodes[1].Stream.Serve(lis)

	// Traffic returns once the clock passes node 0's reconnect backoff:
	// the one half-open probe finds the recovered owner, and the owner's
	// forwarded-in counter starts moving again.
	before := nodes[1].Router.Stats().ForwardedIn
	c.Clock.Advance(time.Minute)
	if _, err := nodes[0].Router.Report(context.Background(), reportReq(t, nodes[0], uid)); err != nil {
		t.Fatalf("report during recovery: %v", err)
	}
	if nodes[1].Router.Stats().ForwardedIn <= before {
		t.Fatalf("traffic never returned to the recovered owner: %+v", nodes[0].Router.Stats())
	}
	if probes := nodes[0].Router.Stats().Nodes[nodes[1].name].Stream.Probes; probes != 1 {
		t.Fatalf("recovery took %d half-open probes, want exactly one", probes)
	}
}

// appliedThrough reports whether b has applied uid's handoff number seq
// from source, or a later one: a redelivery at seq is then the duplicate
// that ImportHandoff, the path every forward takes, ignores.
func appliedThrough(b *budget.Accountant, uid int64, source string, seq uint64) bool {
	probe := &budget.Handoff{Source: source, Seq: seq, Events: []budget.HandoffEvent{{AtUnixNano: time.Now().UnixNano()}}}
	_, applied := b.ImportHandoff(uid, probe)
	return !applied
}

// movedUser sets up the rebalance scenario of TestClusterHandoffExactlyOnce:
// the first uid from seed whose ring sequence starts at node 1 (and, with
// three nodes, continues at node 2) spends on node 0 through soloRouter,
// and node 0's own router, over the full membership, serves what follows.
// It returns the uid and what it spent on node 0.
func movedUser(t *testing.T, nodes []*testNode, seed int64) (uid int64, preSpend float64) {
	t.Helper()
	ring := nodes[0].Router.Ring()
	for uid = seed; ; uid++ {
		seq := ring.Sequence(uid)
		if seq[0] == nodes[1].name && (len(nodes) < 3 || seq[1] == nodes[2].name) {
			break
		}
		if uid > seed+20000 {
			t.Fatal("no uid with the wanted ring sequence")
		}
	}
	if _, err := soloRouter(t, nodes).Report(context.Background(), reportReq(t, nodes[0], uid)); err != nil {
		t.Fatal(err)
	}
	if preSpend = nodes[0].shard(t).Budget.Spent(uid); preSpend <= 0 {
		t.Fatal("no spend recorded before the move")
	}
	return uid, preSpend
}

// TestClusterForwardedOverCapKeepsSpend: the draw cap is judged on the owner
// after the forwarded handoff is merged, so a relayed over-cap ask — refused
// 422, nothing charged — still moves the user's live window spend to the
// owner instead of losing it with the committed export.
func TestClusterForwardedOverCapKeepsSpend(t *testing.T) {
	_, nodes := nodesOf(t, 2, "-max-report-count", "7", "-budget-eps", "1000")
	uid, preSpend := movedUser(t, nodes, 500)
	over := reportReq(t, nodes[0], uid)
	over.Count = 8
	_, err := nodes[0].Router.Report(context.Background(), over)
	if rej := registry.Classify(err); rej.Status != http.StatusUnprocessableEntity ||
		!strings.Contains(rej.Msg, "exceeds limit") {
		t.Fatalf("forwarded count 8 answered %+v (%v), want 422 ... exceeds limit ...", rej, err)
	}
	if got := nodes[1].shard(t).Budget.Spent(uid); got != preSpend {
		t.Fatalf("owner counts %v after the refusal, relayer had %v", got, preSpend)
	}
	if got := nodes[0].shard(t).Budget.Spent(uid); got != 0 {
		t.Fatalf("relayer still counts %v after the commit", got)
	}
}

// TestClusterOwnerDown: the owner is unreachable, so the export to it
// rolls back — the spend is restored on the entry node, not lost — and the
// next ring member serves, receiving the handoff the owner never saw.
func TestClusterOwnerDown(t *testing.T) {
	_, nodes := nodesOf(t, 3, "-budget-eps", "1000")
	uid, preSpend := movedUser(t, nodes, 500)
	if err := nodes[1].Stream.Close(); err != nil {
		t.Fatal(err)
	}

	res, err := nodes[0].Router.Report(context.Background(), reportReq(t, nodes[0], uid))
	if err != nil {
		t.Fatalf("report with the owner down: %v", err)
	}
	s := nodes[0].Router.Stats()
	if s.Failovers != 1 || s.ForwardedOut != 1 || s.FailoverLocal != 0 || s.HandoffsSent != 2 {
		t.Fatalf("entry node stats: %+v", s)
	}
	if fin := nodes[2].Router.Stats().ForwardedIn; fin != 1 {
		t.Fatalf("next ring member saw %d forwards, want 1", fin)
	}
	b0, b1, b2 := nodes[0].shard(t).Budget, nodes[1].shard(t).Budget, nodes[2].shard(t).Budget
	if got, want := b2.Spent(uid), preSpend+res.EpsSpent; got != want {
		t.Fatalf("stand-in counts %v, want %v (restored handoff %v + fresh %v)", got, want, preSpend, res.EpsSpent)
	}
	// Exactly one import, and it is the second export: the one the dead
	// owner never received was rolled back, not delivered late.
	if st := b2.Stats(); st.HandoffsImported != 1 || !appliedThrough(b2, uid, nodes[0].name, 2) {
		t.Fatalf("stand-in imported %d handoffs, want 1, node 0's second", st.HandoffsImported)
	}
	if b0.Spent(uid) != 0 || b1.Spent(uid) != 0 {
		t.Fatalf("spend left behind: entry %v, dead owner %v", b0.Spent(uid), b1.Spent(uid))
	}
}

// replayTrace is a short Gowalla trajectory trace over clusterSpec's
// region, in global time order, and each user's request count.
func replayTrace(t *testing.T) (trace []registry.ReportRequest, perUser map[int64]int) {
	t.Helper()
	// The tree every node builds from the shared spec (default 0.1 km
	// leaves), to map the trace on.
	center := clusterSpec()[0].Center()
	sys, err := hexgrid.NewSystem(center, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := loctree.NewAt(sys, center, clusterSpec()[0].Height)
	if err != nil {
		t.Fatal(err)
	}
	const d = 0.002 // degrees half-width that keeps the corpus inside the height-2 tree
	ds, err := gowalla.Generate(gowalla.GenConfig{
		Seed: 1, NumUsers: 12, NumPlaces: 60, NumCheckIns: 600,
		BBox: geo.BoundingBox{
			MinLat: 37.765 - d, MaxLat: 37.765 + d,
			MinLng: -122.435 - d*1.27, MaxLng: -122.435 + d*1.27,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkIns := append([]gowalla.CheckIn(nil), ds.CheckIns...)
	sort.SliceStable(checkIns, func(a, b int) bool { return checkIns[a].Time.Before(checkIns[b].Time) })
	perUser = map[int64]int{}
	for _, c := range checkIns {
		leaf, ok := tree.Locate(c.Loc, 0)
		if !ok {
			continue
		}
		uid := int64(c.UserID)
		perUser[uid]++
		trace = append(trace, registry.ReportRequest{
			Region: testRegion, Cell: leaf.Coord, UID: uid,
			Policy: policy.Policy{PrivacyLevel: 1}, Seed: uid*1000003 + 7, Count: 1,
		})
	}
	if len(trace) < len(checkIns)/2 {
		t.Fatalf("only %d of %d check-ins landed inside the tree", len(trace), len(checkIns))
	}
	return trace, perUser
}

// TestClusterReplayCoherence replays a short Gowalla trajectory trace, in
// global time order and entering at the nodes round-robin (so two thirds
// of the requests are forwarded), against a three-node cluster and a
// single node with the same per-user epsilon cap, and checks the coherence
// a cluster must not lose: every rejection a client sees is one some
// node's accountant made, no user is granted more than the cap, and the
// busiest user's draw sequence is identical to the single node's.
func TestClusterReplayCoherence(t *testing.T) {
	ctx := context.Background()
	trace, perUser := replayTrace(t)
	// A cap of the median user's demand exhausts the heavier half mid-trace.
	counts := make([]int, 0, len(perUser))
	busiest := int64(-1)
	for uid, n := range perUser {
		counts = append(counts, n)
		if busiest < 0 || n > perUser[busiest] || (n == perUser[busiest] && uid < busiest) {
			busiest = uid
		}
	}
	sort.Ints(counts)
	const eps = 15 // registry.Spec default
	limit := eps * float64(counts[len(counts)/2])
	opts := registry.Options{Budget: budget.Config{LimitEps: limit, Window: time.Hour}}

	type replay struct {
		rejections uint64
		granted    map[int64]float64
		draws      map[int64][]loctree.NodeID
	}
	run := func(entry func(i int) registry.ReportHandler) replay {
		rp := replay{granted: map[int64]float64{}, draws: map[int64][]loctree.NodeID{}}
		for i, req := range trace {
			res, err := entry(i).Report(ctx, req)
			if err != nil {
				if registry.Classify(err).Status != http.StatusTooManyRequests {
					t.Fatalf("request %d: %v", i, err)
				}
				rp.rejections++
				continue
			}
			rp.granted[req.UID] += res.EpsSpent
			rp.draws[req.UID] = append(rp.draws[req.UID], res.Reports...)
		}
		return rp
	}
	single, err := registry.New(clusterSpec(), opts)
	if err != nil {
		t.Fatal(err)
	}
	want := run(func(int) registry.ReportHandler { return single })
	_, nodes := nodesOf(t, 3, "-budget-eps", strconv.FormatFloat(limit, 'g', -1, 64))
	got := run(func(i int) registry.ReportHandler { return nodes[i%len(nodes)].Router })

	var nodeRejections, forwarded uint64
	for _, n := range nodes {
		nodeRejections += n.shard(t).Budget.Stats().Rejections
		forwarded += n.Router.Stats().ForwardedOut
	}
	if forwarded == 0 {
		t.Fatal("round-robin entry forwarded nothing; the test is vacuous")
	}
	if got.rejections == 0 || got.rejections != nodeRejections || got.rejections != want.rejections {
		t.Fatalf("rejections: clients saw %d, node accountants made %d, single node %d", got.rejections, nodeRejections, want.rejections)
	}
	for uid, spent := range got.granted {
		if spent > limit*(1+1e-9) {
			t.Errorf("uid %d granted %v eps over a %v cap", uid, spent, limit)
		}
	}
	if len(want.draws[busiest]) == 0 || !reflect.DeepEqual(got.draws[busiest], want.draws[busiest]) {
		t.Errorf("uid %d draw sequence diverged between the cluster and the single node", busiest)
	}
}
