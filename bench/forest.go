package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync/atomic"
	"time"

	"corgi/internal/loctree"
	"corgi/internal/proto"
	"corgi/internal/registry"
	"corgi/internal/store"
)

// forestOp is one cold forest fetch: a region nobody has asked about yet,
// at one prune budget.
type forestOp struct {
	region string
	delta  int
	// body is the raw response of the timed fetch, kept to compare with
	// what a restarted server serves from the store.
	body []byte
}

// forestWorld is the set-up state of cold_forest: a registry of bootstrapped
// but unsolved regions over a fresh on-disk store, behind an HTTP server.
type forestWorld struct {
	sz    sizes
	dir   string
	st    *store.Store
	specs []registry.Spec
	reg   *registry.Registry
	http  *httpServer
	trees map[string]*loctree.Tree
	// queue is the fixed order cold ops are handed out in; next is how far
	// into it the clients are. A second phase continues where the first
	// stopped, so no phase ever fetches a forest that is already solved.
	queue []forestOp
	next  atomic.Int64
	// phases is how many timed phases will share the queue (a traced run has
	// two); each takes at most its share, so none finds the queue empty.
	phases int
}

// forestPool is the set of regions cold_forest draws from: region j sits
// 0.05*j degrees north of the replay region and builds its priors from seed
// 100+j. The K=49 solve is not equally hard, or even equally possible, for
// all priors: at this commit about one seed in ten of an arbitrary range ends
// in "DW pricing numerical-failure", and solo solve times spread from 0.74 s
// to 1.66 s. These 21 of the 48 regions j < 48 solve at delta 1, 2 and 3
// without error, each within 0.9 s to 1.3 s on the reference box, so a run's
// ops are of one kind whichever of them its seed picks.
var forestPool = []int{1, 3, 5, 6, 7, 8, 12, 14, 17, 18, 19, 20, 21, 22, 25, 27, 30, 38, 41, 45, 47}

// forestSpecs picks n regions of the pool in a seed-determined order.
func forestSpecs(seed int64, n int) []registry.Spec {
	order := rand.New(rand.NewSource(seed)).Perm(len(forestPool))
	specs := make([]registry.Spec, min(n, len(order)))
	for i := range specs {
		j := forestPool[order[i]]
		specs[i] = registry.Spec{
			Name:      fmt.Sprintf("r%02d", j),
			CenterLat: 37.765 + 0.05*float64(j), CenterLng: -122.435,
			Height: 2, Seed: int64(100 + j),
		}
	}
	return specs
}

func newForestWorld(ctx context.Context, seed int64, sz sizes, tmpRoot string, phases int) (*forestWorld, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "forest-store-")
	if err != nil {
		return nil, err
	}
	w := &forestWorld{sz: sz, dir: dir, specs: forestSpecs(seed, sz.forestRegions), trees: map[string]*loctree.Tree{}, phases: phases}
	if w.st, err = store.Open(dir); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := w.start(ctx); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	for _, spec := range w.specs {
		for _, delta := range sz.forestDeltas {
			w.queue = append(w.queue, forestOp{region: spec.Name, delta: delta})
		}
	}
	return w, nil
}

// start builds a registry over the store, bootstraps every region (tree and
// priors only: no warm-up, so every forest is cold) and opens the listener.
func (w *forestWorld) start(ctx context.Context) error {
	reg, err := registry.New(w.specs, registry.Options{WarmupDelta: -1, Store: w.st})
	if err != nil {
		return err
	}
	if err := reg.BootstrapAll(ctx); err != nil {
		return err
	}
	for _, spec := range w.specs {
		sh, err := reg.Shard(ctx, spec.Name)
		if err != nil {
			return err
		}
		w.trees[spec.Name] = sh.Server.Tree()
	}
	h, err := proto.NewMultiHandler(reg)
	if err != nil {
		return err
	}
	w.reg = reg
	w.http, err = serveHTTP(h.Mux())
	return err
}

// stop closes the listener and waits until no background store write is in
// flight, so the store directory is quiescent before anyone reopens or
// removes it.
func (w *forestWorld) stop() {
	if w.http != nil {
		w.http.close()
		w.http = nil
	}
	if w.reg != nil {
		w.reg.FlushStores()
	}
}

func (w *forestWorld) close() {
	w.stop()
	os.RemoveAll(w.dir)
}

// run has two clients pull ops from the fixed-order queue until the deadline
// (ops in flight at the deadline finish and count) or until the phase's share
// of the queue is done. On the reference box the share is done first, so a
// run is the same fixed work every time and its counts repeat.
func (w *forestWorld) run(_ context.Context, dur time.Duration, traced bool) (*phase, error) {
	p := &phase{clients: make([]clientResult, numClients)}
	end := min(int(w.next.Load())+len(w.queue)/w.phases, len(w.queue))
	p.before = readUsage()
	wire0 := w.http.wire.total()
	start := nanos()
	deadline := start + int64(dur)
	runClients(numClients, func(c int) {
		r := clientResult{hist: newHist()}
		if traced {
			r.rec = newRecorder(len(w.queue))
		}
		// A proto.Client is bound to one region, so each client goroutine
		// keeps one per region; at most one of them is in use at a time.
		conns := map[string]*proto.Client{}
		t := nanos()
		r.start = t
		for t < deadline {
			i := int(w.next.Add(1)) - 1
			if i >= end {
				break
			}
			op := &w.queue[i]
			pc := conns[op.region]
			if pc == nil {
				pc = proto.NewRegionClient(w.http.base, op.region)
				conns[op.region] = pc
			}
			id := r.rec.begin(spanFetchForest, -1, int32(i), t)
			res, err := pc.FetchForestTagged(w.trees[op.region], w.sz.forestLevel, op.delta, "")
			now := nanos()
			r.rec.end(id, now)
			r.hist.record(now - t)
			r.ops++
			if err != nil {
				r.failed++
				if r.firstErr == nil {
					r.firstErr = fmt.Errorf("%s delta %d: %w", op.region, op.delta, err)
				}
			} else {
				op.body = res.Body
			}
			t = now
		}
		r.end = t
		p.clients[c] = r
	})
	p.after = readUsage()
	p.wireBytes = w.http.wire.total() - wire0
	// Each client that ran out of ops stepped once past the share's end.
	w.next.Store(min(w.next.Load(), int64(end)))
	return p, nil
}

// verify checks, outside the timed region, everything the timed fetches
// returned: each matrix is row-stochastic and violates no Geo-Ind
// constraint of its own constraint set at the region's epsilon; then it
// restarts the registry over the same store and requires every forest to
// come back byte-identical without a single LP solve.
func (w *forestWorld) verify(ctx context.Context, _ *phase) error {
	var fetched []*forestOp
	for i := range w.queue {
		if w.queue[i].body != nil {
			fetched = append(fetched, &w.queue[i])
		}
	}
	for _, op := range fetched {
		sh, err := w.reg.Shard(ctx, op.region)
		if err != nil {
			return err
		}
		tree := sh.Server.Tree()
		forest, err := proto.DecodeForestBody(tree, proto.ContentTypeForestV2, op.body)
		if err != nil {
			return fmt.Errorf("%s delta %d: decoding: %w", op.region, op.delta, err)
		}
		if len(forest.Entries) != len(tree.LevelNodes(w.sz.forestLevel)) {
			return fmt.Errorf("%s delta %d: %d entries", op.region, op.delta, len(forest.Entries))
		}
		for root, e := range forest.Entries {
			if err := e.Matrix.CheckStochastic(1e-6); err != nil {
				return fmt.Errorf("%s delta %d %v: %w", op.region, op.delta, root, err)
			}
			served, ok := sh.Server.PeekEntry(root, op.delta)
			if !ok {
				return fmt.Errorf("%s delta %d %v: entry not cached after its own solve", op.region, op.delta, root)
			}
			// The wire carries no constraint set; audit the matrix the
			// client decoded against the pairs the server solved under.
			if rep := e.Matrix.CheckGeoInd(served.Pairs, sh.Spec.Epsilon, 1e-6); rep.Violated != 0 {
				return fmt.Errorf("%s delta %d %v: %d Geo-Ind violations (max excess %g)",
					op.region, op.delta, root, rep.Violated, rep.MaxExcess)
			}
		}
	}
	// Warm restart: close the listener and drain write-backs first — the
	// store must be quiescent before a second registry reads it.
	w.stop()
	if err := w.start(ctx); err != nil {
		return fmt.Errorf("warm restart: %w", err)
	}
	for _, op := range fetched {
		res, err := proto.NewRegionClient(w.http.base, op.region).
			FetchForestTagged(w.trees[op.region], w.sz.forestLevel, op.delta, "")
		if err != nil {
			return fmt.Errorf("warm restart: %s delta %d: %w", op.region, op.delta, err)
		}
		if !bytes.Equal(res.Body, op.body) {
			return fmt.Errorf("warm restart: %s delta %d: forest differs from the one solved", op.region, op.delta)
		}
	}
	if solves := w.reg.AggregateStats().Solves; solves != 0 {
		return fmt.Errorf("warm restart ran %d LP solves, want 0", solves)
	}
	return nil
}
