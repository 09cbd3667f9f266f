package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"corgi/internal/budget"
	"corgi/internal/geo"
	"corgi/internal/gowalla"
	"corgi/internal/loctree"
	"corgi/internal/policy"
	"corgi/internal/proto"
	"corgi/internal/registry"
	"corgi/internal/stream"
)

// numClients is the closed loop's client count: two goroutines, two
// connections. It is a constant, not the core count, so the op partition —
// and with it every output the run checks — is the same on any machine.
const numClients = 2

// leaseDraws is the draw cap every replay_lease request pre-pays.
const leaseDraws = 32

// replayRegion is the one region all three replay workloads serve.
const replayRegion = "sf"

// policyClass is the customization arm a user exercises; uid%10 picks it.
type policyClass uint8

const (
	classPlain     policyClass = iota // privacy level 1, shared alias rows
	classDeep                         // privacy level 2, K=49, never re-anchors
	classPrefs                        // home = false: evalPrune + NewSubset
	classPrecision                    // privacy level 2 reported at level 1 (Equ. 17)
)

func classOf(uid int64) policyClass {
	switch uid % 10 {
	case 0, 1, 2, 3, 4:
		return classPlain
	case 5, 6:
		return classDeep
	case 7, 8:
		return classPrefs
	default:
		return classPrecision
	}
}

// replayOp is one check-in of the trace, as a report request plus what the
// reference replay says the pipeline must answer.
type replayOp struct {
	req   registry.ReportRequest
	class policyClass
	idx   int32
	// root is the privacy subtree every pass must serve the op from; want
	// is the node the first pass must draw (later passes continue the
	// user's RNG stream, so only their range is checked).
	root, want loctree.NodeID
}

// sizes scales the shared input. The benchmark sizes are the issue's; the
// smoke sizes keep the package tests within seconds.
type sizes struct {
	users, places, checkIns int
	forestRegions           int
	forestLevel             int
	forestDeltas            []int
}

var (
	benchSizes = sizes{users: 500, places: 600, checkIns: 38523,
		forestRegions: 6, forestLevel: 2, forestDeltas: []int{1, 2, 3}}
	smokeSizes = sizes{users: 60, places: 80, checkIns: 2400,
		forestRegions: 2, forestLevel: 1, forestDeltas: []int{1, 2}}
)

// replayWorld is the set-up state of a replay workload: one bootstrapped
// region with every forest entry the trace touches already solved, the
// trace as per-client op lists, and the transports the workload needs.
type replayWorld struct {
	reg  *registry.Registry
	sh   *registry.Shard
	tree *loctree.Tree
	// ancestors maps a node to its ancestor at each level, for the range
	// check on every op of every pass.
	ancestors map[loctree.NodeID][]loctree.NodeID

	ops     []replayOp             // global time order
	perUser [numClients][]replayOp // uid%2 partition, order kept
	// replayed is set once a phase has run on this world's registry.
	replayed bool

	stream     *stream.Server
	streamAddr string
	streamDone chan error
	http       *httpServer
}

// replaySpec is the region every replay workload serves: the paper's SF
// centre, a height-2 tree (49 leaves), everything else defaulted.
func replaySpec() registry.Spec {
	return registry.Spec{Name: replayRegion, CenterLat: 37.765, CenterLng: -122.435, Height: 2}
}

func newReplayRegistry() (*registry.Registry, error) {
	return registry.New([]registry.Spec{replaySpec()}, registry.Options{
		WarmupDelta: -1,
		// The accountant charges every op and never rejects one.
		Budget: budget.Config{LimitEps: 1e15, Window: time.Hour},
		// A fixed secret and a long TTL: no lease expires inside a run.
		LeaseSecret: []byte("corgi-bench lease secret, not a secret"),
		LeaseTTL:    time.Hour,
	})
}

// transports selects which listeners a replay world opens.
type transports struct{ stream, http bool }

// newReplayWorld bootstraps the region, generates the trace from seed,
// replays it once through the shadow pipeline (which solves every cold
// entry, finds the check-ins the pipeline rejects and records the
// reference draws), and opens the requested listeners.
func newReplayWorld(ctx context.Context, seed int64, sz sizes, tr transports) (*replayWorld, error) {
	reg, err := newReplayRegistry()
	if err != nil {
		return nil, err
	}
	sh, err := reg.Shard(ctx, replayRegion)
	if err != nil {
		return nil, err
	}
	w := &replayWorld{reg: reg, sh: sh, tree: sh.Server.Tree()}
	w.indexAncestors()
	if err := w.buildTrace(seed, sz); err != nil {
		return nil, err
	}
	if err := w.reference(ctx); err != nil {
		return nil, err
	}
	for i := range w.ops {
		c := w.ops[i].req.UID % numClients
		w.perUser[c] = append(w.perUser[c], w.ops[i])
	}
	if tr.stream {
		if err := w.listenStream(); err != nil {
			return nil, err
		}
	}
	if tr.http {
		h, err := proto.NewMultiHandler(reg)
		if err != nil {
			w.close()
			return nil, err
		}
		if w.http, err = serveHTTP(h.Mux()); err != nil {
			w.close()
			return nil, err
		}
	}
	return w, nil
}

func (w *replayWorld) indexAncestors() {
	w.ancestors = map[loctree.NodeID][]loctree.NodeID{}
	for level := 0; level <= w.tree.Height(); level++ {
		for _, n := range w.tree.LevelNodes(level) {
			anc := make([]loctree.NodeID, w.tree.Height()+1)
			for up := level; up <= w.tree.Height(); up++ {
				anc[up], _ = w.tree.AncestorAt(n, up)
			}
			w.ancestors[n] = anc
		}
	}
}

// under reports whether node sits at the given level inside root's subtree.
func (w *replayWorld) under(node loctree.NodeID, level int, root loctree.NodeID) bool {
	anc, ok := w.ancestors[node]
	return ok && node.Level == level && anc[root.Level] == root
}

// buildTrace generates the synthetic Gowalla check-ins over the region's
// footprint, orders them by time and turns each into a report request.
func (w *replayWorld) buildTrace(seed int64, sz sizes) error {
	spec := replaySpec()
	ds, err := gowalla.Generate(gowalla.GenConfig{
		Seed: seed, NumUsers: sz.users, NumPlaces: sz.places, NumCheckIns: sz.checkIns,
		BBox: geo.BoundingBox{
			MinLat: spec.CenterLat - 0.002, MaxLat: spec.CenterLat + 0.002,
			MinLng: spec.CenterLng - 0.00254, MaxLng: spec.CenterLng + 0.00254,
		},
	})
	if err != nil {
		return fmt.Errorf("generating trace: %w", err)
	}
	cs := ds.CheckIns
	sort.SliceStable(cs, func(i, j int) bool { return cs[i].Time.Before(cs[j].Time) })
	homeFalse, err := policy.ParsePredicate("home = false")
	if err != nil {
		return err
	}
	policies := [...]policy.Policy{
		classPlain:     {PrivacyLevel: 1},
		classDeep:      {PrivacyLevel: 2},
		classPrefs:     {PrivacyLevel: 1, Preferences: []policy.Predicate{homeFalse}},
		classPrecision: {PrivacyLevel: 2, PrecisionLevel: 1},
	}
	for _, c := range cs {
		leaf, ok := w.tree.Locate(c.Loc, 0)
		if !ok {
			continue
		}
		uid := int64(c.UserID)
		class := classOf(uid)
		w.ops = append(w.ops, replayOp{
			req: registry.ReportRequest{Region: replayRegion, Cell: leaf.Coord, UID: uid,
				Policy: policies[class], Seed: uid*1000003 + 7, Count: 1},
			class: class,
		})
	}
	if len(w.ops) == 0 {
		return errors.New("trace has no check-in inside the region")
	}
	return nil
}

// reference replays the trace once, in time order, through the shadow
// pipeline on this world's shard. The shadow keeps its own sessions and
// accountant, so the registry's stay untouched and the first measured pass
// starts every user's RNG stream where the reference did; the shard's
// engine is shared, so every forest entry the trace needs is solved here.
// Ops the pipeline rejects (a home=false user standing at home) are
// dropped: any failure in a measured run is then a real one.
func (w *replayWorld) reference(ctx context.Context) error {
	sd, err := newShadow(w.reg, nil)
	if err != nil {
		return err
	}
	kept := w.ops[:0]
	for _, o := range w.ops {
		res, err := sd.report(ctx, &o, -1)
		if err != nil {
			if errors.Is(err, registry.ErrBadReport) {
				continue
			}
			return fmt.Errorf("reference replay: %w", err)
		}
		o.root, o.want, o.idx = res.root, res.node, int32(len(kept))
		kept = append(kept, o)
	}
	w.ops = kept
	return nil
}

func (w *replayWorld) listenStream() error {
	srv, err := stream.NewServer(w.reg, stream.Config{})
	if err != nil {
		return err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.stream, w.streamAddr, w.streamDone = srv, lis.Addr().String(), make(chan error, 1)
	go func() { w.streamDone <- srv.Serve(lis) }()
	return nil
}

// close stops the world's listeners and waits for their serve loops.
func (w *replayWorld) close() {
	if w.stream != nil {
		w.stream.Close()
		<-w.streamDone
		w.stream = nil
	}
	if w.http != nil {
		w.http.close()
		w.http = nil
	}
}

// httpServer is an in-process HTTP server on loopback whose listener counts
// every byte that crosses it, headers included.
type httpServer struct {
	srv  *http.Server
	base string
	done chan error
	wire *wireCounter
}

func serveHTTP(h http.Handler) (*httpServer, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{srv: &http.Server{Handler: h}, base: "http://" + lis.Addr().String(),
		done: make(chan error, 1), wire: &wireCounter{}}
	go func() { s.done <- s.srv.Serve(countingListener{lis, s.wire}) }()
	return s, nil
}

func (s *httpServer) close() {
	s.srv.Close()
	<-s.done
}

// wireCounter totals the bytes a listener's connections read and wrote.
type wireCounter struct{ in, out atomic.Int64 }

func (c *wireCounter) total() int64 { return c.in.Load() + c.out.Load() }

type countingListener struct {
	net.Listener
	wire *wireCounter
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, wire: l.wire}, nil
}

type countingConn struct {
	net.Conn
	wire *wireCounter
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.wire.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.wire.out.Add(int64(n))
	return n, err
}

// runClients runs fn once per client, concurrently, and waits for all.
func runClients(n int, fn func(client int)) {
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}
