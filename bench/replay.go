package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"corgi/internal/clientdraw"
	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
	"corgi/internal/stream"
)

// Workload names, as BENCHMARK.json lists them.
const (
	replayInproc = "replay_inproc"
	replayStream = "replay_stream"
	replayLease  = "replay_lease"
	coldForest   = "cold_forest"
)

// Root span names: one per op, around the call the client makes.
const (
	spanReport       = "registry.Registry.Report"
	spanStreamReport = "stream.Client.Report"
	spanLeaseOp      = "replay_lease.op"
	spanLeaseDraw    = "clientdraw.Lease.DrawCellNInto"
	spanLeaseRTT     = "stream.Client.Lease"
	spanLeaseOpen    = "clientdraw.Open"
	spanLeaseRenew   = "clientdraw.Lease.Renew"
	spanFetchForest  = "proto.Client.FetchForestTagged"
)

// numSlices cuts a timed window into equal time slices; ops_per_s is the
// median slice rate. On a shared box a neighbour takes a core away for a
// second or so at a time; with twenty slices such a burst spoils a few of
// them and leaves the median where it was.
const numSlices = 20

// limit says when a client loop stops: at a deadline on the harness clock
// (the measured runs) or after a number of passes over its ops (the traced
// run's fixed-work sections, whose counts must repeat exactly).
type limit struct {
	deadline int64
	passes   int
}

// clientResult is what one client goroutine measured.
type clientResult struct {
	hist        *hist
	slices      [numSlices]int64
	ops, failed int64
	// digest folds the first pass's draws, order-independently, so two
	// runs (or two transports) can be compared at a glance.
	digest     uint64
	start, end int64
	rec        *recorder
	// firstErr is the first op error the client saw, for the report.
	firstErr error
	// lease bookkeeping (replay_lease only).
	leases       int64
	leasesByUser map[int64]int64
}

// phase is one measured stretch of a workload, all clients together.
type phase struct {
	clients       []clientResult
	window        int64 // slice window length in ns; 0 for fixed work
	before, after usage
	wireBytes     int64
}

func (p *phase) ops() (n int64) {
	for i := range p.clients {
		n += p.clients[i].ops
	}
	return n
}

func (p *phase) failed() (n int64) {
	for i := range p.clients {
		n += p.clients[i].failed
	}
	return n
}

// firstErr returns one client's first op error, if any client saw one.
func (p *phase) firstErr() error {
	for i := range p.clients {
		if err := p.clients[i].firstErr; err != nil {
			return err
		}
	}
	return nil
}

func (p *phase) digest() (d uint64) {
	for i := range p.clients {
		d += p.clients[i].digest
	}
	return d
}

func (p *phase) latencies() *hist {
	h := newHist()
	for i := range p.clients {
		h.merge(p.clients[i].hist)
	}
	return h
}

func (p *phase) spans() []span {
	var all []span
	for i := range p.clients {
		if rec := p.clients[i].rec; rec != nil {
			// Parent ids are per recorder; shift them as the sets join.
			base := int32(len(all))
			for _, s := range rec.spans {
				if s.parent >= 0 {
					s.parent += base
				}
				all = append(all, s)
			}
		}
	}
	return all
}

// sliceRates returns each time slice's completed ops per second.
func (p *phase) sliceRates() []float64 {
	rates := make([]float64, numSlices)
	for s := range rates {
		var n int64
		for i := range p.clients {
			n += p.clients[i].slices[s]
		}
		rates[s] = float64(n) / (float64(p.window) / numSlices / 1e9)
	}
	return rates
}

// clientRates returns each client's own completion rate over the time it
// was busy. Their sum is the throughput of a closed loop whose clients do
// not stop at the same instant.
func (p *phase) clientRates() []float64 {
	rates := make([]float64, len(p.clients))
	for i := range p.clients {
		c := &p.clients[i]
		if c.end > c.start {
			rates[i] = float64(c.ops) / (float64(c.end-c.start) / 1e9)
		}
	}
	return rates
}

// doFunc performs one op for one client and returns what was drawn and
// from which subtree. parent is the op's root span.
type doFunc func(o *replayOp, rec *recorder, parent int32) (node, root loctree.NodeID, err error)

// doer is one client's way of performing ops over one transport.
type doer struct {
	span string
	do   doFunc
	// checkWant is set when the first pass must reproduce the reference
	// draws exactly (every server-side draw path on a fresh world); leased
	// draws forfeit RNG positions on every move, so only their range is
	// checked.
	checkWant bool
	close     func()
	wire      func() int64
	lease     *leaseClient
}

// newDoer builds one client's doer for a replay workload.
func (w *replayWorld) newDoer(ctx context.Context, kind string) (*doer, error) {
	switch kind {
	case replayInproc:
		return &doer{span: spanReport, checkWant: true, do: func(o *replayOp, _ *recorder, _ int32) (loctree.NodeID, loctree.NodeID, error) {
			res, err := w.reg.Report(ctx, o.req)
			if err != nil {
				return loctree.NodeID{}, loctree.NodeID{}, err
			}
			node, root := res.Reports[0], res.SubtreeRoot
			res.Release()
			return node, root, nil
		}}, nil
	case replayStream:
		c := stream.NewClient(w.streamAddr, stream.ClientConfig{Timeout: 30 * time.Second})
		return &doer{span: spanStreamReport, checkWant: true, close: func() { c.Close() }, wire: clientWire(c),
			do: func(o *replayOp, _ *recorder, _ int32) (loctree.NodeID, loctree.NodeID, error) {
				resp, err := c.Report(streamRequest(o))
				if err != nil {
					return loctree.NodeID{}, loctree.NodeID{}, err
				}
				if len(resp.Reports) != 1 {
					return loctree.NodeID{}, loctree.NodeID{}, fmt.Errorf("stream: %d reports for count 1", len(resp.Reports))
				}
				return loctree.NodeID{Level: resp.PrecisionLevel, Coord: hexgrid.Coord{Q: resp.Reports[0].Q, R: resp.Reports[0].R}},
					loctree.NodeID{Level: o.req.Policy.PrivacyLevel, Coord: hexgrid.Coord{Q: resp.SubtreeRoot[0], R: resp.SubtreeRoot[1]}}, nil
			}}, nil
	case replayLease:
		c := stream.NewClient(w.streamAddr, stream.ClientConfig{Timeout: 30 * time.Second})
		lc := &leaseClient{tree: w.tree, stream: c, open: map[int64]*clientdraw.Lease{}, byUser: map[int64]int64{}}
		return &doer{span: spanLeaseOp, close: func() { c.Close() }, wire: clientWire(c), do: lc.do, lease: lc}, nil
	}
	return nil, fmt.Errorf("no replay transport for workload %q", kind)
}

func streamRequest(o *replayOp) stream.Request {
	return stream.Request{Region: o.req.Region, Cell: [2]int{o.req.Cell.Q, o.req.Cell.R},
		UID: o.req.UID, Policy: o.req.Policy, Seed: o.req.Seed, Count: 1}
}

// clientWire reads the bytes a stream client has sent and received.
func clientWire(c *stream.Client) func() int64 {
	return func() int64 {
		st := c.Stats()
		return int64(st.BytesIn + st.BytesOut)
	}
}

// leaseClient is one device fleet drawing on-device: a lease per user,
// renewed over the stream when it runs out or the user leaves its subtree.
type leaseClient struct {
	tree   *loctree.Tree
	stream *stream.Client
	open   map[int64]*clientdraw.Lease
	out    [1]loctree.NodeID

	leases int64
	byUser map[int64]int64
}

func (lc *leaseClient) do(o *replayOp, rec *recorder, parent int32) (loctree.NodeID, loctree.NodeID, error) {
	leaf := loctree.NodeID{Level: 0, Coord: o.req.Cell}
	l := lc.open[o.req.UID]
	if l != nil {
		id := rec.begin(spanLeaseDraw, parent, o.idx, nanos())
		err := l.DrawCellNInto(leaf, lc.out[:])
		rec.end(id, nanos())
		if err == nil {
			return lc.out[0], l.Root(), nil
		}
		if !errors.Is(err, clientdraw.ErrLeaseExhausted) && !errors.Is(err, clientdraw.ErrOutsideSubtree) {
			return loctree.NodeID{}, loctree.NodeID{}, err
		}
	}
	var token []byte
	if l != nil {
		token = l.Token()
	}
	id := rec.begin(spanLeaseRTT, parent, o.idx, nanos())
	grant, err := lc.stream.Lease(streamRequest(o), leaseDraws, token)
	rec.end(id, nanos())
	if err != nil {
		return loctree.NodeID{}, loctree.NodeID{}, err
	}
	lc.leases++
	lc.byUser[o.req.UID]++
	if l == nil {
		id = rec.begin(spanLeaseOpen, parent, o.idx, nanos())
		l, err = clientdraw.Open(lc.tree, grant.Bundle, grant.Token)
	} else {
		id = rec.begin(spanLeaseRenew, parent, o.idx, nanos())
		l, err = l.Renew(grant.Bundle, grant.Token)
	}
	rec.end(id, nanos())
	if err != nil {
		return loctree.NodeID{}, loctree.NodeID{}, err
	}
	lc.open[o.req.UID] = l
	id = rec.begin(spanLeaseDraw, parent, o.idx, nanos())
	err = l.DrawCellNInto(leaf, lc.out[:])
	rec.end(id, nanos())
	if err != nil {
		return loctree.NodeID{}, loctree.NodeID{}, err
	}
	return lc.out[0], l.Root(), nil
}

// mix is splitmix64's finalizer, used to fold draws into a digest.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func drawHash(idx int32, n loctree.NodeID) uint64 {
	return mix(uint64(uint32(idx))<<32 ^ uint64(uint8(n.Level))<<24 ^ uint64(uint8(n.Coord.Q))<<8 ^ uint64(uint8(n.Coord.R)))
}

// clientLoop drives one client's ops until lim says stop, timing every op
// with one clock read per op boundary and checking every answer. fresh says
// nobody has replayed on this world yet, so the first pass starts every
// user's RNG stream where the reference did and must draw what it drew.
func (w *replayWorld) clientLoop(ops []replayOp, d *doer, fresh bool, lim limit, rec *recorder, winStart, winLen int64) clientResult {
	r := clientResult{hist: newHist(), rec: rec}
	t := nanos()
	r.start = t
	for pass := 0; lim.passes == 0 || pass < lim.passes; pass++ {
		for i := range ops {
			o := &ops[i]
			if lim.deadline != 0 && t >= lim.deadline {
				r.end = t
				return r
			}
			id := rec.begin(d.span, -1, o.idx, t)
			node, root, err := d.do(o, rec, id)
			now := nanos()
			rec.end(id, now)
			r.hist.record(now - t)
			if winLen > 0 {
				s := (now - winStart) * numSlices / winLen
				if s >= numSlices {
					s = numSlices - 1
				}
				r.slices[s]++
			}
			r.ops++
			if err != nil || root != o.root || !w.under(node, o.req.Policy.PrecisionLevel, root) ||
				(pass == 0 && fresh && d.checkWant && node != o.want) {
				r.failed++
				if r.firstErr == nil {
					if r.firstErr = err; err == nil {
						r.firstErr = fmt.Errorf("op %d drew %v from subtree %v; reference drew %v from %v", o.idx, node, root, o.want, o.root)
					}
				}
			}
			if pass == 0 && fresh {
				r.digest += drawHash(o.idx, node)
			}
			t = now
		}
	}
	r.end = t
	return r
}

// runReplay runs a replay workload over this world. A positive dur runs the
// two-client closed loop against the clock; dur == 0 runs one client over
// the whole trace for the given number of passes (fixed work). traced turns
// span recording on.
func (w *replayWorld) runReplay(ctx context.Context, kind string, dur time.Duration, passes int, traced bool) (*phase, error) {
	lists := [][]replayOp{w.ops}
	if dur > 0 {
		lists = [][]replayOp{w.perUser[0], w.perUser[1]}
	}
	doers := make([]*doer, len(lists))
	for c := range lists {
		d, err := w.newDoer(ctx, kind)
		if err != nil {
			return nil, err
		}
		doers[c] = d
		if d.close != nil {
			defer d.close()
		}
	}
	fresh := !w.replayed
	w.replayed = true
	p := &phase{clients: make([]clientResult, len(lists))}
	recs := make([]*recorder, len(lists))
	if traced {
		for c, ops := range lists {
			// Room for one pass; a longer traced phase grows the buffer,
			// and that growth is part of the tracing overhead it reports.
			recs[c] = newRecorder(4 * len(ops))
		}
	}
	p.before = readUsage()
	start := nanos()
	lim := limit{passes: passes}
	if dur > 0 {
		p.window = int64(dur)
		lim = limit{deadline: start + int64(dur)}
	}
	runClients(len(lists), func(c int) {
		p.clients[c] = w.clientLoop(lists[c], doers[c], fresh, lim, recs[c], start, p.window)
	})
	p.after = readUsage()
	for c, d := range doers {
		if d.wire != nil {
			p.wireBytes += d.wire()
		}
		if d.lease != nil {
			p.clients[c].leases = d.lease.leases
			p.clients[c].leasesByUser = d.lease.byUser
		}
	}
	return p, nil
}

// checkLeaseAccounting verifies, after a lease phase on a fresh world, that
// what the server granted is what the devices asked for and what the
// accountant charged: draws used never exceed draws granted, and every
// user's spend is exactly its leases' pre-paid epsilon. It returns the
// number of users whose spend differs.
func (w *replayWorld) checkLeaseAccounting(p *phase) (overspend int, err error) {
	var leases int64
	perUser := map[int64]int64{}
	for i := range p.clients {
		leases += p.clients[i].leases
		for uid, n := range p.clients[i].leasesByUser {
			perUser[uid] += n
		}
	}
	ls := w.reg.LeaseStats()
	if int64(ls.Issued) != leases || int64(ls.DrawsGranted) != leases*leaseDraws {
		return 0, fmt.Errorf("lease stats: server issued %d leases / %d draws, clients hold %d leases", ls.Issued, ls.DrawsGranted, leases)
	}
	if p.ops() > int64(ls.DrawsGranted) {
		return 0, fmt.Errorf("lease stats: %d draws used, %d granted", p.ops(), ls.DrawsGranted)
	}
	eps := w.sh.Spec.Epsilon
	if got, want := w.sh.Budget.Stats().EpsGranted, float64(ls.DrawsGranted)*eps; got != want {
		return 0, fmt.Errorf("accountant granted eps %v, leases pre-paid %v", got, want)
	}
	for uid, n := range perUser {
		if w.sh.Budget.Spent(uid) != float64(n*leaseDraws)*eps {
			overspend++
		}
	}
	return overspend, nil
}
