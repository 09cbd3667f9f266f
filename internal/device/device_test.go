package device

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"corgi/internal/budget"
	"corgi/internal/cluster"
	"corgi/internal/geo"
	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
	"corgi/internal/policy"
	"corgi/internal/proto"
	"corgi/internal/registry"
	"corgi/internal/stream"
)

// The package logs what corgi-client's user reads on stderr.
func TestMain(m *testing.M) {
	log.SetOutput(io.Discard)
	os.Exit(m.Run())
}

// node is an in-process serving node over a fresh registry of one region
// ("dv": 49 leaves under seven level-1 subtrees), logging what it was asked.
type node struct {
	*httptest.Server
	reg *registry.Registry

	mu  sync.Mutex
	log []asked
}

// asked is one request as the server saw it.
type asked struct {
	path, ifNoneMatch, body string
}

func newNode(t *testing.T, opts registry.Options) *node {
	t.Helper()
	reg, err := registry.New([]registry.Spec{{
		Name: "dv", CenterLat: 37.765, CenterLng: -122.435,
		Height: 2, Iterations: 1, Targets: 3,
	}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	h, err := proto.NewMultiHandler(reg)
	if err != nil {
		t.Fatal(err)
	}
	n := &node{reg: reg}
	mux := h.Mux()
	n.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		n.mu.Lock()
		n.log = append(n.log, asked{r.URL.Path, r.Header.Get("If-None-Match"), string(body)})
		n.mu.Unlock()
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(n.Close)
	return n
}

// asks returns the logged requests to path.
func (n *node) asks(path string) []asked {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []asked
	for _, a := range n.log {
		if a.path == path {
			out = append(out, a)
		}
	}
	return out
}

func (n *node) dial(t *testing.T, v1 bool) *Conn {
	t.Helper()
	conn, err := Dial(n.URL, "", "dv", 0, v1)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

// streamRemote attaches a corgi-stream listener to the node's registry and
// returns a client's handler view of it.
func (n *node) streamRemote(t *testing.T) stream.Remote {
	t.Helper()
	srv, err := stream.NewServer(n.reg, stream.Config{})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	c := stream.NewClient(lis.Addr().String(), stream.ClientConfig{})
	t.Cleanup(func() { c.Close(); srv.Close() })
	return c.Remote()
}

// TestEveryPathDrawsTheSame is ROADMAP aim 3's third claim across all
// paths at once: one seeded sequence of asks, answered by five report
// sources over five fresh identical registries, draws one sequence of
// nodes. The user holds two streams (a preference-free policy and one
// reporting at precision level 1), asks for two draws at a time, and
// commutes to a second level-1 subtree and back, so the first stream
// re-anchors twice without its RNG restarting.
//
// The lease path gets the hardest version. Its cap is four draws, so it
// renews mid-way through every stay; and between its asks two strangers
// report, which (SessionCap 2) evicts both of the user's server-side
// sessions — only the token a renewal carries still knows the stream's
// position. (Caps are whole multiples of the ask size on purpose: a lease
// abandoned mid-window forfeits its unused positions, by design.)
func TestEveryPathDrawsTheSame(t *testing.T) {
	if testing.Short() {
		t.Skip("spins five regions")
	}
	const (
		uid, seed = 5, 20231212
		count     = 2
	)
	opts := registry.Options{SessionCap: 2}
	plain := policy.Policy{PrivacyLevel: 1}
	coarse := policy.Policy{PrivacyLevel: 2, PrecisionLevel: 1}

	type path struct {
		name     string
		reporter func(*node) Reporter
		// between runs after every ask.
		between func(*node)
	}
	strangers := func(n *node) {
		for _, stranger := range []int64{900, 901} {
			res, err := n.reg.Report(context.Background(), registry.ReportRequest{
				Region: "dv", UID: stranger, Policy: plain, Count: 1, // cell (0,0), the region's center
			})
			if err != nil {
				t.Fatal(err)
			}
			res.Release()
		}
	}
	paths := []path{
		{"registry in process", func(n *node) Reporter { return n.reg }, nil},
		{"proto.Remote", func(n *node) Reporter { return n.dial(t, false).Client.Remote() }, nil},
		{"stream.Remote", func(n *node) Reporter { return n.streamRemote(t) }, nil},
		{"device.Leased", func(n *node) Reporter {
			conn := n.dial(t, false)
			return &Leased{Remote: conn.Client.Remote(), Tree: conn.TreeOf, Draws: 2 * count}
		}, strangers},
		// v1 forests are dense float64 JSON: the rows arrive bit for bit.
		{"device.Forest", func(n *node) Reporter { return &Forest{Conn: n.dial(t, true), NoCache: true} }, nil},
	}

	var want []string
	for _, p := range paths {
		n := newNode(t, opts)
		tree := n.dial(t, false).Tree
		home, work := tree.LevelNodes(1)[0], tree.LevelNodes(1)[1]
		at := func(root loctree.NodeID, i int) hexgrid.Coord { return tree.LeavesUnder(root)[i].Coord }
		asks := []struct {
			pol  policy.Policy
			cell hexgrid.Coord
		}{
			{plain, at(home, 0)}, {coarse, at(home, 0)}, {plain, at(home, 0)},
			{plain, at(work, 0)}, {coarse, at(work, 3)}, {plain, at(work, 1)}, // first re-anchor
			{plain, at(home, 2)}, {coarse, at(home, 5)}, {plain, at(home, 2)}, // and back
			{plain, at(home, 4)}, {coarse, at(work, 2)}, {plain, at(home, 0)},
		}
		reporter := p.reporter(n)
		var got []string
		for i, ask := range asks {
			res, err := reporter.Report(context.Background(), registry.ReportRequest{
				Region: "dv", Cell: ask.cell, UID: uid, Policy: ask.pol, Seed: seed, Count: count,
			})
			if err != nil {
				t.Fatalf("%s: ask %d: %v", p.name, i, err)
			}
			root, _ := tree.AncestorAt(loctree.NodeID{Coord: ask.cell}, ask.pol.PrivacyLevel)
			if len(res.Reports) != count || len(res.Centers) != count ||
				res.SubtreeRoot != root || res.PrecisionLevel != ask.pol.PrecisionLevel || res.Pruned != 0 {
				t.Fatalf("%s: ask %d answered %+v", p.name, i, res)
			}
			for j, r := range res.Reports {
				if r.Level != ask.pol.PrecisionLevel {
					t.Fatalf("%s: ask %d reported %v at precision level %d", p.name, i, r, ask.pol.PrecisionLevel)
				}
				if c := tree.Center(r); math.Abs(c.Lat-res.Centers[j].Lat) > 1e-6 || math.Abs(c.Lng-res.Centers[j].Lng) > 1e-6 {
					t.Fatalf("%s: ask %d: center of %v is %v, answered %v", p.name, i, r, c, res.Centers[j])
				}
				got = append(got, r.String())
			}
			if p.between != nil {
				p.between(n)
			}
		}
		if want == nil {
			want = got
			if distinct(want) < 4 {
				t.Fatalf("the sequence %v barely varies: it would not tell two streams apart", want)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s drew\n  %v\nthe registry in process drew\n  %v", p.name, got, want)
		}
		if p.name == "device.Leased" {
			if st := n.reg.LeaseStats(); st.Renewed != 4 || n.reg.AggregateSessionStats().Evicted < 4 {
				t.Errorf("lease run renewed %d leases and the server evicted %d sessions: the run did not exercise what it claims",
					st.Renewed, n.reg.AggregateSessionStats().Evicted)
			}
		}
		if p.name == "device.Forest" {
			// The paper's trust model: two numbers per forest, and no cell.
			for _, a := range n.asks("/v1/matrices") {
				if a.body != `{"privacy_l":1,"delta":0}` && a.body != `{"privacy_l":2,"delta":0}` {
					t.Errorf("forest path sent %s", a.body)
				}
			}
			if len(n.asks("/v1/matrices")) != 2 || len(n.asks("/v1/priors")) != 1 ||
				len(n.asks("/v1/report"))+len(n.asks("/v1/lease")) != 0 {
				t.Errorf("forest path asked the server %v", n.log)
			}
		}
	}
}

// TestInHandDrawsWhatItHolds: a Forest over forests the caller already
// holds draws what the server draws from the same forest, re-anchors where
// the server does, and refuses a (privacy_l, |S|) it was not given with an
// error, since there is no server to fetch it from.
func TestInHandDrawsWhatItHolds(t *testing.T) {
	ctx := context.Background()
	n := newNode(t, registry.Options{})
	sh, err := n.reg.Shard(ctx, "dv")
	if err != nil {
		t.Fatal(err)
	}
	forest, err := sh.Server.GenerateForestCtx(ctx, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	tree := sh.Server.Tree()
	dev := InHand(tree, sh.Spec.Epsilon, sh.Server.Priors(), forest)
	plain := policy.Policy{PrivacyLevel: 1}
	home, work := tree.LevelNodes(1)[0], tree.LevelNodes(1)[1]
	for i, leaf := range []loctree.NodeID{tree.LeavesUnder(home)[0], tree.LeavesUnder(work)[3], tree.LeavesUnder(home)[5]} {
		req := registry.ReportRequest{Region: "dv", Cell: leaf.Coord, UID: 3, Policy: plain, Seed: 11, Count: 3}
		want, err := n.reg.Report(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dev.Report(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Reports, want.Reports) || got.Reanchored != want.Reanchored || got.Reanchored != (i > 0) {
			t.Errorf("ask %d: in hand drew %v (re-anchored %v), the server %v (%v)",
				i, got.Reports, got.Reanchored, want.Reports, want.Reanchored)
		}
		want.Release()
	}
	_, err = dev.Report(ctx, registry.ReportRequest{Cell: tree.LeavesUnder(home)[0].Coord, UID: 3,
		Policy: policy.Policy{PrivacyLevel: 2}, Count: 1})
	if err == nil || !strings.Contains(err.Error(), "no privacy_l=2 delta=|S|=0 forest in hand") {
		t.Fatalf("a forest it was not given: %v, want a refusal", err)
	}
}

func distinct(s []string) int {
	seen := map[string]bool{}
	for _, v := range s {
		seen[v] = true
	}
	return len(seen)
}

// TestForestEvaluatesPreferencesOnTheDevice: the prune set comes from the
// caller's own attributes, the server learns its size and nothing else, and
// a preference-bearing user who moves inside one subtree is re-evaluated
// where they now stand.
func TestForestEvaluatesPreferencesOnTheDevice(t *testing.T) {
	if testing.Short() {
		t.Skip("spins a region")
	}
	n := newNode(t, registry.Options{})
	conn := n.dial(t, false)
	tree := conn.Tree
	leaves := tree.LeavesUnder(tree.LevelNodes(1)[0])
	// A cell is sensitive while the user stands next to it in leaf order.
	var evaluatedAt []loctree.NodeID
	attrs := func(cell loctree.NodeID) (map[loctree.NodeID]policy.Attributes, error) {
		evaluatedAt = append(evaluatedAt, cell)
		out := map[loctree.NodeID]policy.Attributes{}
		for i, l := range tree.LevelNodes(0) {
			out[l] = policy.Attributes{"sensitive": policy.Bool(i > 0 && tree.LevelNodes(0)[i-1] == cell)}
		}
		return out, nil
	}
	pred, err := policy.ParsePredicate("sensitive != true")
	if err != nil {
		t.Fatal(err)
	}
	pol := policy.Policy{PrivacyLevel: 1, Preferences: []policy.Predicate{pred}}
	f := &Forest{Conn: conn, Attrs: attrs, NoCache: true}
	ask := func(cell loctree.NodeID) *registry.ReportResult {
		t.Helper()
		req, err := conn.Ask(tree.Center(cell), 1, pol, 7, 3)
		if err != nil {
			t.Fatal(err)
		}
		if req.Cell != cell.Coord || req.Region != "dv" {
			t.Fatalf("Ask resolved %v to %+v", cell, req)
		}
		res, err := f.Report(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first, again, moved := ask(leaves[0]), ask(leaves[0]), ask(leaves[1])
	if first.Pruned != 1 || first.Reanchored || again.Reanchored || !moved.Reanchored || moved.Pruned != 1 {
		t.Errorf("pruned/reanchored: first %d/%v, again %d/%v, moved %d/%v",
			first.Pruned, first.Reanchored, again.Pruned, again.Reanchored, moved.Pruned, moved.Reanchored)
	}
	if !reflect.DeepEqual(evaluatedAt, []loctree.NodeID{leaves[0], leaves[1]}) {
		t.Errorf("preferences evaluated at %v", evaluatedAt)
	}
	for _, res := range []*registry.ReportResult{first, again, moved} {
		for _, r := range res.Reports {
			if r == leaves[1] && res != moved || r == leaves[2] && res == moved {
				t.Errorf("reported the pruned cell %v", r)
			}
		}
	}
	// One forest for |S| = 1 served all three asks.
	if got := n.asks("/v1/matrices"); len(got) != 1 || got[0].body != `{"privacy_l":1,"delta":1}` {
		t.Errorf("forest requests: %v", got)
	}

	// A policy with preferences and a device without attributes is refused
	// before anything is fetched; so is a policy the tree cannot serve.
	bare := &Forest{Conn: conn, NoCache: true}
	req, _ := conn.Ask(tree.Center(leaves[0]), 1, pol, 7, 1)
	if _, err := bare.Report(context.Background(), req); err == nil || !strings.Contains(err.Error(), "attributes") {
		t.Errorf("preferences without attributes: %v", err)
	}
	if _, err := conn.Ask(tree.Center(leaves[0]), 1, policy.Policy{PrivacyLevel: 9}, 7, 1); err == nil || !strings.HasPrefix(err.Error(), "policy: ") {
		t.Errorf("privacy level 9: %v", err)
	}
	if _, err := conn.Ask(geo.LatLng{Lat: 10, Lng: 10}, 1, pol, 7, 1); err == nil {
		t.Error("a location an ocean away was located in the region")
	}
}

// TestLeased covers what moved here from corgi-loadgen's lease transport:
// the result says what a caller prints, a spent cap renews, a budget
// rejection is the remote's 429, and an expired renewal token falls back to
// one fresh lease.
func TestLeased(t *testing.T) {
	if testing.Short() {
		t.Skip("spins a region")
	}
	const eps = 15 // registry.Spec default
	n := newNode(t, registry.Options{})
	conn := n.dial(t, false)
	cell := conn.Tree.LeavesUnder(conn.Tree.LevelNodes(1)[0])[0]
	req := registry.ReportRequest{Region: "dv", Cell: cell.Coord, UID: 3, Policy: policy.Policy{PrivacyLevel: 1}, Seed: 11, Count: 2}

	forbid := false
	remote := &flakyRemote{ReportHandler: conn.Client.Remote(), forbidRenewal: &forbid}
	l := &Leased{Remote: remote, Tree: conn.TreeOf, Draws: 2}
	var drawn []loctree.NodeID
	for i := 0; i < 4; i++ {
		forbid = i == 2 // the second renewal's token "expired"
		res, err := l.Report(context.Background(), req)
		if err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
		if res.SubtreeRoot != conn.Tree.LevelNodes(1)[0] || res.PrecisionLevel != 0 || len(res.Centers) != 2 || res.Budgeted {
			t.Errorf("report %d: %+v", i, res)
		}
		drawn = append(drawn, res.Reports...)
	}
	if got := remote.leases; !reflect.DeepEqual(got, []string{"fresh", "renewal", "renewal refused", "fresh", "renewal"}) {
		t.Errorf("lease asks: %v", got)
	}
	// The fresh lease after the refusal continued the server's stream.
	ref, err := newNode(t, registry.Options{}).reg.Report(context.Background(), registry.ReportRequest{
		Region: "dv", Cell: cell.Coord, UID: 3, Policy: req.Policy, Seed: 11, Count: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(drawn, ref.Reports) {
		t.Errorf("leased draws %v, the registry's %v", drawn, ref.Reports)
	}

	// A budget-capped server: the grant's charge shows on the report that
	// needed it, a warm report is free, and the rejection is a 429.
	capped := newNode(t, registry.Options{Budget: budget.Config{LimitEps: 5 * eps, Window: time.Hour}})
	conn = capped.dial(t, false)
	l = &Leased{Remote: conn.Client.Remote(), Tree: conn.TreeOf, Draws: 4}
	granted, err := l.Report(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := l.Report(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !granted.Budgeted || granted.EpsSpent != 4*eps || granted.EpsRemaining != eps || warm.Budgeted || warm.EpsSpent != 0 {
		t.Errorf("granted %+v, warm %+v", granted, warm)
	}
	_, err = l.Report(context.Background(), req)
	if rej := registry.Classify(err); err == nil || rej.Status != http.StatusTooManyRequests || !rej.HasEps || rej.EpsRemaining != eps {
		t.Errorf("over budget: %v", err)
	}

	// A cap smaller than one request's count can never serve it.
	l = &Leased{Remote: n.reg, Tree: conn.TreeOf, Draws: 1}
	if _, err := l.Report(context.Background(), req); err == nil || !strings.Contains(err.Error(), "still cannot serve") {
		t.Errorf("cap 1, count 2: %v", err)
	}
}

// flakyRemote logs lease asks and refuses renewals with a 403 on demand.
type flakyRemote struct {
	registry.ReportHandler
	forbidRenewal *bool
	leases        []string
}

func (f *flakyRemote) Lease(ctx context.Context, req registry.LeaseRequest) (*registry.LeaseGrant, error) {
	switch {
	case req.Token == nil:
		f.leases = append(f.leases, "fresh")
	case *f.forbidRenewal:
		f.leases = append(f.leases, "renewal refused")
		return nil, &stream.StatusError{Status: http.StatusForbidden, Msg: "lease token expired"}
	default:
		f.leases = append(f.leases, "renewal")
	}
	return f.ReportHandler.Lease(ctx, req)
}

// TestDial: with no peers the server is the node and its 404 lists the
// regions; with peers the uid's ring order decides, a dead owner is skipped
// for the next ring node, and a dead ring names the last node's error.
func TestDial(t *testing.T) {
	if testing.Short() {
		t.Skip("spins a region")
	}
	n := newNode(t, registry.Options{})
	if _, err := Dial(n.URL, "", "atlantis", 0, false); err == nil ||
		!strings.HasPrefix(err.Error(), "fetching tree: server returned 404") || !strings.Contains(err.Error(), "available regions: dv") {
		t.Errorf("unknown region: %v", err)
	}

	dead := func() string {
		srv := httptest.NewServer(http.NotFoundHandler())
		srv.Close()
		return srv.URL
	}
	down1, down2 := dead(), dead()
	members, err := cluster.ParsePeers("a=" + down1 + ",b=" + n.URL)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := cluster.RingOf(members)
	if err != nil {
		t.Fatal(err)
	}
	owners := map[string]int{}
	for uid := int64(0); uid < 16; uid++ {
		// Whether the uid's owner is the dead node or the live one, the
		// live one ends up bound.
		owners[ring.Sequence(uid)[0]]++
		conn, err := Dial("", "a="+down1+",b="+n.URL, "dv", uid, true)
		if err != nil {
			t.Fatalf("uid %d: %v", uid, err)
		}
		if conn.URL != n.URL || conn.Region != "dv" || conn.Tree.NumLeaves() != 49 || !conn.Client.ForceV1 {
			t.Fatalf("uid %d bound %+v", uid, conn)
		}
	}
	if owners["a"] == 0 || owners["b"] == 0 {
		t.Fatalf("16 uids were all owned by one node (%v): no failover was exercised", owners)
	}

	const uid = 1
	members, _ = cluster.ParsePeers("a=" + down1 + ",b=" + down2)
	ring, _ = cluster.RingOf(members)
	last := map[string]string{"a": down1, "b": down2}[ring.Sequence(uid)[1]]
	_, err = Dial("", "a="+down1+",b="+down2, "dv", uid, false)
	if err == nil || !strings.HasPrefix(err.Error(), "cluster: all 2 cluster nodes unreachable, last error: ") ||
		!strings.Contains(err.Error(), strings.TrimPrefix(last, "http://")) {
		t.Errorf("dead ring (last node tried %s): %v", last, err)
	}
	if _, err := Dial("", " , ", "dv", 1, false); err == nil {
		t.Error("an empty peer list dialed")
	}
}

// TestForestCache executes the on-disk conditional-fetch cache: what it
// writes, what it sends, and how it degrades. Every claim is counted from
// the server's request log.
func TestForestCache(t *testing.T) {
	if testing.Short() {
		t.Skip("spins a region")
	}
	n := newNode(t, registry.Options{})
	dir := t.TempDir()
	cell := n.dial(t, false).Tree.LevelNodes(0)[0]
	// draw fetches through a fresh Forest (nothing in memory) and returns
	// what it drew and the forest requests it cost.
	draw := func(f *Forest) (string, []asked) {
		t.Helper()
		before := len(n.asks("/v1/matrices"))
		res, err := f.Report(context.Background(), registry.ReportRequest{
			Cell: cell.Coord, Policy: policy.Policy{PrivacyLevel: 1}, Seed: 3, Count: 4})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(res.Reports), n.asks("/v1/matrices")[before:]
	}
	slots := func() []string {
		t.Helper()
		names, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		return names
	}
	v2 := func() *Forest { return &Forest{Conn: n.dial(t, false), CacheDir: dir} }

	// Cold: one unconditional fetch, and the slot is written.
	want, asks := draw(v2())
	if len(asks) != 1 || asks[0].ifNoneMatch != "" || len(slots()) != 1 {
		t.Fatalf("cold fetch: requests %v, slots %v", asks, slots())
	}
	slot := slots()[0]
	var cached cachedForest
	if data, err := os.ReadFile(slot); err != nil || json.Unmarshal(data, &cached) != nil ||
		cached.ETag == "" || !strings.Contains(cached.ContentType, proto.ContentTypeForestV2) || len(cached.Body) == 0 {
		t.Fatalf("slot holds %+v (%v)", cached, err)
	}

	// Warm: one conditional fetch answered 304, the cached body decoded
	// into the same forest.
	got, asks := draw(v2())
	if len(asks) != 1 || asks[0].ifNoneMatch != cached.ETag || got != want {
		t.Errorf("warm fetch: requests %v (tag %s), drew %s want %s", asks, cached.ETag, got, want)
	}
	// One Forest asks once however often it reports.
	f := v2()
	draw(f)
	if _, asks := draw(f); len(asks) != 0 {
		t.Errorf("a second report refetched: %v", asks)
	}

	// Rot: the tag still validates but the body no longer decodes. The slot
	// is removed, refetched unconditionally and rewritten.
	rotted := cached
	rotted.Body = []byte(`{"privacy_l":`)
	data, _ := json.Marshal(rotted)
	if err := os.WriteFile(slot, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, asks = draw(v2())
	if len(asks) != 2 || asks[0].ifNoneMatch != cached.ETag || asks[1].ifNoneMatch != "" || got != want {
		t.Errorf("rotted slot: requests %v, drew %s want %s", asks, got, want)
	}
	var rewritten cachedForest
	if data, err := os.ReadFile(slot); err != nil || json.Unmarshal(data, &rewritten) != nil || !bytes.Equal(rewritten.Body, cached.Body) {
		t.Errorf("rotted slot was not rewritten (%v)", err)
	}
	// A slot that is not JSON at all is a cold fetch.
	if err := os.WriteFile(slot, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, asks = draw(v2()); len(asks) != 1 || asks[0].ifNoneMatch != "" {
		t.Errorf("garbage slot: requests %v", asks)
	}

	// The two encodings keep separate slots, so neither revalidates with
	// the other's tag.
	v1want, asks := draw(&Forest{Conn: n.dial(t, true), CacheDir: dir})
	if len(asks) != 1 || asks[0].ifNoneMatch != "" || len(slots()) != 2 {
		t.Errorf("v1 after v2: requests %v, slots %v", asks, slots())
	}
	if got, asks = draw(&Forest{Conn: n.dial(t, true), CacheDir: dir}); len(asks) != 1 || asks[0].ifNoneMatch == "" ||
		asks[0].ifNoneMatch == cached.ETag || got != v1want {
		t.Errorf("v1 warm: requests %v, drew %s want %s", asks, got, v1want)
	}

	// No cache, or nowhere to keep one: a plain fetch, nothing written.
	blocked := filepath.Join(dir, "file")
	if err := os.WriteFile(blocked, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]*Forest{
		"-no-cache":            {Conn: n.dial(t, false), NoCache: true, CacheDir: dir},
		"unwritable cache dir": {Conn: n.dial(t, false), CacheDir: filepath.Join(blocked, "cache")},
	} {
		if got, asks = draw(f); len(asks) != 1 || asks[0].ifNoneMatch != "" || got != want || len(slots()) != 2 {
			t.Errorf("%s: requests %v, drew %s want %s, slots %v", name, asks, got, want, slots())
		}
	}
}
