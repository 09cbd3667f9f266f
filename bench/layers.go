package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"corgi/internal/budget"
	"corgi/internal/cluster"
	"corgi/internal/codec"
	"corgi/internal/core"
	"corgi/internal/geo"
	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
	"corgi/internal/lp"
	"corgi/internal/mechanism"
	"corgi/internal/policy"
	"corgi/internal/proto"
	"corgi/internal/registry"
	"corgi/internal/sample"
	"corgi/internal/session"
	"corgi/internal/store"
)

// spanShadowOp is the shadow pipeline's root span: its children are the
// stage spans of shadow.go and tile it.
const spanShadowOp = "shadow.report"

// probeReps is how many batches an isolated-layer probe takes the median of.
const probeReps = 9

// runTraced performs a traced invocation. It first runs the requested
// workload for a quarter of the run time untraced and a quarter traced
// (their ratio is the tracing overhead; allocation and wire counts come from
// the untraced half), then the layer suite: fixed work through every layer,
// the same in every traced run, so its counts repeat exactly.
func runTraced(ctx context.Context, name string, cfg config) (*result, error) {
	res := &result{Workload: name, Seed: cfg.seed, Trace: true}
	s := &suite{ctx: ctx, cfg: cfg, sz: cfg.sizes(), m: map[string]float64{}, res: res}
	if cfg.spanOut != "" {
		s.spans = &spanFile{}
	}

	w, err := setUp(ctx, name, cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	plain, err := w.run(ctx, cfg.duration(0.25), false)
	if err != nil {
		w.close()
		return nil, err
	}
	traced, err := w.run(ctx, cfg.duration(0.25), true)
	if err != nil {
		w.close()
		return nil, err
	}
	// Lease accounting compares server totals with the clients' own, so it
	// has to see both phases.
	both := &phase{clients: append(append([]clientResult{}, plain.clients...), traced.clients...)}
	if err := w.verify(ctx, both); err != nil {
		res.fail("%v", err)
	}
	w.close()
	s.spans.add(name, traced.spans())

	res.Attempted, res.Failed = both.ops(), both.failed()
	if plain.ops() == 0 || traced.ops() == 0 {
		return nil, fmt.Errorf("%s completed no op in %v", name, cfg.duration(0.25))
	}
	if res.Failed != 0 {
		res.fail("%d of %d ops failed or drew outside what the reference allows; first: %v", res.Failed, res.Attempted, both.firstErr())
	}
	// The workload's own numbers come from the untraced phase; failures
	// count over both.
	s.m = phaseValues(plain, res)
	s.m["fail_ratio"] = float64(res.Failed) / float64(res.Attempted)
	s.m["trace.overhead_ratio"] = opsPerSec(traced) / opsPerSec(plain)

	if err := s.run(); err != nil {
		return nil, err
	}
	if cfg.spanOut != "" {
		if err := s.spans.write(cfg.spanOut); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	var missing []string
	if res.Metrics, missing = withUnits(perLayer, s.m); len(missing) != 0 {
		return nil, fmt.Errorf("harness bug: no value for %v", missing)
	}
	res.Correct = len(res.Errors) == 0
	return res, nil
}

// suite is the layer suite's state: the per-layer values gathered so far
// and the worlds its sections hand on to later ones.
type suite struct {
	ctx   context.Context
	cfg   config
	sz    sizes
	m     map[string]float64
	res   *result
	spans *spanFile

	inprocMedianNs float64
	// probeErr is the first error an isolated-layer probe returned.
	probeErr error
}

// checked wraps a probe body so that the first error any probe returns is
// kept, labelled with what was being measured, for the section to report.
func (s *suite) checked(what string, fn func() error) func() {
	return func() {
		if err := fn(); err != nil && s.probeErr == nil {
			s.probeErr = fmt.Errorf("%s: %w", what, err)
		}
	}
}

// timed returns the nanoseconds one call of fn takes in isolation: the median
// of probeReps batches of batch calls.
func (s *suite) timed(what string, batch int, fn func() error) float64 {
	return timeCalls(probeReps, batch, s.checked(what, fn))
}

// probe stores timed(fn) under metric, in units of unitNs nanoseconds.
func (s *suite) probe(metric string, unitNs float64, batch int, fn func() error) {
	s.m[metric] = s.timed(metric, batch, fn) / unitNs
}

func (s *suite) run() error {
	s.m["trace.span_cost_ns"] = spanCost()

	pipe, err := newReplayWorld(s.ctx, s.cfg.seed, s.sz, transports{http: true})
	if err != nil {
		return err
	}
	defer pipe.close()
	if err := s.pipeline(pipe); err != nil {
		return err
	}
	if err := s.probes(pipe); err != nil {
		return err
	}
	if err := s.protoReports(pipe); err != nil {
		return err
	}

	streamed, err := newReplayWorld(s.ctx, s.cfg.seed, s.sz, transports{stream: true})
	if err != nil {
		return err
	}
	defer streamed.close()
	if err := s.streamReports(streamed); err != nil {
		return err
	}
	if err := s.cluster(pipe, streamed); err != nil {
		return err
	}
	if err := s.leases(); err != nil {
		return err
	}
	return s.forests()
}

// spanCost times what recording one stage costs the traced code: a clock
// read and a span appended. Subtract it from a stage median to compare it
// with untraced code.
func spanCost() float64 {
	const n = 1 << 15
	sd := &shadow{rec: newRecorder(n)}
	t := nanos()
	return timeCalls(probeReps, n, func() {
		if len(sd.rec.spans) == n {
			sd.rec.spans = sd.rec.spans[:0]
		}
		t = sd.stage(spanDraw, -1, 0, t)
	})
}

// pipeline is the in-process section. One client replays the whole trace
// once through the real Registry.Report and the untraced shadow pipeline side
// by side, then once through the shadow with a span per stage; all three must
// draw exactly what the reference drew.
func (s *suite) pipeline(w *replayWorld) error {
	const (
		tempWarm = iota
		tempReanchor
		tempNew
	)
	// Real pipeline and untraced shadow, op by op: timed side by side they
	// see the same machine, which two passes seconds apart do not on this
	// box. Which of the two goes first alternates, so neither always runs on
	// the caches the other just warmed.
	plain, err := newShadow(w.reg, nil)
	if err != nil {
		return err
	}
	rec := newRecorder(len(w.ops))
	temps := make([]uint8, len(w.ops))
	shadowNs := make([]float64, len(w.ops))
	seen := map[int64]bool{}
	for i := range w.ops {
		o := &w.ops[i]
		var res *registry.ReportResult
		var got shadowResult
		var realErr, shadowErr error
		real := func() {
			id := rec.begin(spanReport, -1, o.idx, nanos())
			res, realErr = w.reg.Report(s.ctx, o.req)
			rec.end(id, nanos())
		}
		shadowed := func() {
			start := nanos()
			got, shadowErr = plain.report(s.ctx, o, -1)
			shadowNs[i] = float64(nanos() - start)
		}
		if i%2 == 0 {
			real()
			shadowed()
		} else {
			shadowed()
			real()
		}
		if realErr != nil || shadowErr != nil {
			return fmt.Errorf("pipeline section: op %d: real %v, shadow %v", i, realErr, shadowErr)
		}
		if res.Reports[0] != o.want || res.SubtreeRoot != o.root || got.node != o.want || got.root != o.root {
			s.res.fail("pipeline section: op %d: real drew %v from %v, shadow %v from %v, reference %v from %v",
				i, res.Reports[0], res.SubtreeRoot, got.node, got.root, o.want, o.root)
		}
		switch {
		case !seen[o.req.UID]:
			temps[i] = tempNew
			seen[o.req.UID] = true
		case res.Reanchored:
			temps[i] = tempReanchor
		}
		res.Release()
	}
	s.spans.add("pipeline.real", rec.spans)
	realByTemp, shadowByTemp, realByClass := make([][]float64, 3), make([][]float64, 3), make([][]float64, 4)
	var realAll []float64
	for i, sp := range rec.spans {
		d := float64(sp.end - sp.start)
		realAll = append(realAll, d)
		realByTemp[temps[i]] = append(realByTemp[temps[i]], d)
		shadowByTemp[temps[i]] = append(shadowByTemp[temps[i]], shadowNs[i])
		c := w.ops[i].class
		if c == classDeep {
			c = classPlain
		}
		realByClass[c] = append(realByClass[c], d)
	}
	s.inprocMedianNs = median(realAll)
	s.m["registry.report_warm_ns"] = median(realByTemp[tempWarm])
	s.m["registry.report_reanchor_ns"] = median(realByTemp[tempReanchor])
	s.m["registry.report_newsession_ns"] = median(realByTemp[tempNew])
	s.m["registry.report_plain_ns"] = median(realByClass[classPlain])
	s.m["registry.report_prefs_ns"] = median(realByClass[classPrefs])
	s.m["registry.report_precision_ns"] = median(realByClass[classPrecision])

	// Counts since bootstrap: set-up's reference replay solved the entries
	// and built the shared alias rows, the real pass reused them.
	ops := float64(len(w.ops))
	ss, es := w.sh.Sessions.Stats(), w.sh.Server.Stats()
	s.m["session.hit_ratio"] = float64(ss.Hits) / float64(ss.Hits+ss.Created)
	s.m["session.reanchor_ratio"] = float64(ss.Reanchors) / ops
	s.m["core.cache_hit_ratio"] = float64(es.Hits) / float64(es.Hits+es.Misses)
	s.m["core.alias_builds_per_kop"] = float64(es.AliasBuilds) / ops * 1000
	s.m["core.alias_hit_ratio"] = float64(es.AliasHits) / float64(es.AliasHits+es.AliasBuilds)

	// The shadow again, with its own sessions, and a span per stage.
	srec := newRecorder(10 * len(w.ops))
	staged, err := newShadow(w.reg, srec)
	if err != nil {
		return err
	}
	for i := range w.ops {
		o := &w.ops[i]
		id := srec.begin(spanShadowOp, -1, o.idx, nanos())
		got, err := staged.report(s.ctx, o, id)
		srec.end(id, nanos())
		if err != nil {
			return fmt.Errorf("shadow pipeline: %w", err)
		}
		if got.node != o.want || got.root != o.root {
			s.res.fail("shadow pipeline: op %d drew %v, reference drew %v", i, got.node, o.want)
		}
	}
	s.spans.add("pipeline.shadow", srec.spans)
	durs := spanDurations(srec.spans)
	for metric, stage := range map[string]string{
		"registry.resolve_ns":     spanResolve,
		"registry.validate_ns":    spanValidate,
		"budget.charge_ns":        spanCharge,
		"session.key_ns":          spanSessionKey,
		"session.lookup_ns":       spanLookup,
		"registry.evalprune_ns":   spanEvalPrune,
		"core.serve_entry_hit_ns": spanServeEntry,
		"session.new_ns":          spanSessionNew,
		"session.anchorcheck_ns":  spanAnchorCheck,
		"session.rebind_ns":       spanRebind,
		"session.draw_ns":         spanDraw,
		"registry.centers_ns":     spanCenters,
	} {
		s.m[metric] = median(durs[stage])
	}
	// The shadow op is the stages and nothing else. What the real call takes
	// beyond the shadow's (timed side by side, neither recording stages) is
	// time no stage explains.
	gap := func(realNs, shadowNs []float64) float64 {
		r := median(realNs)
		if r == 0 {
			return 0
		}
		return (r - median(shadowNs)) / r
	}
	s.m["registry.attribution_gap_ratio"] = gap(realAll, shadowNs)
	s.m["registry.attribution_gap_warm_ratio"] = gap(realByTemp[tempWarm], shadowByTemp[tempWarm])
	s.m["registry.attribution_gap_reanchor_ratio"] = gap(realByTemp[tempReanchor], shadowByTemp[tempReanchor])
	return nil
}

// probes times single public functions of the mechanism, sample, budget,
// session and codec layers on inputs captured from the replay world: the
// solved K=7 and K=49 entries, a real prune set, a real lease bundle.
func (s *suite) probes(w *replayWorld) error {
	ctx, tree, srv := s.ctx, w.tree, w.sh.Server
	priors, eps := srv.Priors(), w.sh.Spec.Epsilon
	const batch = 200

	// A preference-bearing op whose prune set is not empty: the user is in
	// the subtree that holds their home.
	var prefs *replayOp
	var pruned []loctree.NodeID
	var anchor loctree.NodeID
	for i := range w.ops {
		o := &w.ops[i]
		if o.class != classPrefs {
			continue
		}
		p, a, err := evalPrune(w.sh, tree, &o.req, o.root, loctree.NodeID{Coord: o.req.Cell})
		if err != nil {
			return err
		}
		if len(p) > 0 {
			prefs, pruned, anchor = o, p, a
			break
		}
	}
	if prefs == nil {
		return fmt.Errorf("probes: no preference op prunes anything at seed %d", s.cfg.seed)
	}
	k7, err := srv.ServeEntryCtx(ctx, tree.LevelNodes(1)[0], 0)
	if err != nil {
		return err
	}
	k7pruned, err := srv.ServeEntryCtx(ctx, prefs.root, len(pruned))
	if err != nil {
		return err
	}
	k49, err := srv.ServeEntryCtx(ctx, tree.Root(), 0)
	if err != nil {
		return err
	}

	bind := func(cfg mechanism.Config) func() error {
		return func() error {
			_, err := mechanism.Bind(cfg)
			return err
		}
	}
	s.probe("mechanism.bind_plain_ns", 1, batch, bind(mechanism.Config{Tree: tree, Source: k7,
		Policy: policy.Policy{PrivacyLevel: 1}, Pruned: []loctree.NodeID{}, Priors: priors, Epsilon: eps}))
	s.probe("mechanism.bind_pruned_ns", 1, batch, bind(mechanism.Config{Tree: tree, Source: k7pruned,
		Delta: len(pruned), Policy: prefs.req.Policy, Pruned: pruned, Anchor: anchor, Priors: priors, Epsilon: eps}))
	s.probe("mechanism.bind_precision_ns", 1, batch, bind(mechanism.Config{Tree: tree, Source: k49,
		Policy: policy.Policy{PrivacyLevel: 2, PrecisionLevel: 1}, Pruned: []loctree.NodeID{}, Priors: priors, Epsilon: eps}))

	drop := make([]bool, k7pruned.Dim())
	for i, l := range k7pruned.SupportLeaves() {
		for _, p := range pruned {
			if l == p {
				drop[i] = true
			}
		}
	}
	// Time the row a user outside the pruned cell draws from.
	keptRow := 0
	for drop[keptRow] {
		keptRow++
	}
	var alias *sample.Alias
	s.probe("sample.new_k7_ns", 1, batch, func() (err error) { _, err = sample.New(k7.MatrixRow(0)); return })
	s.probe("sample.new_k49_ns", 1, batch, func() (err error) { alias, err = sample.New(k49.MatrixRow(0)); return })
	s.probe("sample.newsubset_k7_ns", 1, batch, func() (err error) {
		_, _, err = sample.NewSubset(k7pruned.MatrixRow(keptRow), drop)
		return
	})
	if s.probeErr != nil {
		return s.probeErr
	}
	rng, sink := rand.New(rand.NewSource(s.cfg.seed)), 0
	s.probe("sample.draw_ns", 1, 100*batch, func() error { sink += alias.Draw(rng); return nil })

	// budget: the reject path, and the lease token's HMAC.
	tight, err := budget.NewAccountant(budget.Config{LimitEps: eps / 2, Window: time.Hour})
	if err != nil {
		return err
	}
	uid := int64(0)
	s.probe("budget.charge_reject_ns", 1, batch, func() error {
		uid++
		if _, err := tight.Charge(uid%int64(s.sz.users), eps); err == nil {
			return fmt.Errorf("a charge over the cap was granted")
		}
		return nil
	})
	keys, err := budget.NewKeyring([]byte("corgi-bench probe secret"))
	if err != nil {
		return err
	}
	now := time.Now()
	token := budget.LeaseToken{UID: 7, Region: replayRegion, Root: prefs.root, Delta: 1, Eps: eps,
		DrawCap: leaseDraws, IssuedAt: now.UnixMilli(), ExpiresAt: now.Add(time.Hour).UnixMilli()}
	var signed []byte
	s.probe("budget.sign_ns", 1, batch, func() error { signed = keys.Sign(token); return nil })
	s.probe("budget.verify_ns", 1, batch, func() (err error) { _, err = keys.Verify(signed, now); return })

	// session.DetachLease on a plain K=7 session, and the bundle it makes.
	leaf := k7.SupportLeaves()[0]
	sess, err := session.New(session.Config{Tree: tree, Entry: k7, Policy: policy.Policy{PrivacyLevel: 1},
		Pruned: []loctree.NodeID{}, Priors: priors, Seed: 1, Epsilon: eps})
	if err != nil {
		return err
	}
	var bundle *codec.LeaseBundle
	var wire, blob []byte
	s.probe("session.detach_lease_us", 1e3, batch, func() (err error) { bundle, err = sess.DetachLease(leaf, leaseDraws); return })
	if s.probeErr != nil {
		return s.probeErr
	}
	s.probe("codec.lease_encode_us", 1e3, batch, func() (err error) { wire, err = codec.EncodeLeaseBundle(bundle); return })
	s.probe("codec.lease_decode_us", 1e3, batch, func() (err error) { _, err = codec.DecodeLeaseBundle(wire); return })
	s.probe("codec.encode_matrix_us", 1e3, batch/4, func() (err error) { blob, err = codec.EncodeMatrix(k49.Matrix); return })
	s.probe("codec.decode_matrix_us", 1e3, batch/4, func() (err error) { _, err = codec.DecodeMatrix(blob, k49.Dim()); return })

	ring, err := cluster.NewRing([]string{"node-a", "node-b", "node-c"}, 0, 0)
	if err != nil {
		return err
	}
	s.probe("cluster.ring_owner_ns", 1, 10*batch, func() error { uid++; sink += len(ring.Owner(uid)); return nil })
	_ = sink
	return s.probeErr
}

// protoReports sends the head of the trace over POST /v1/report. The HTTP
// report path has no workload of its own (its cost is mostly net/http), so
// this pass is where it is measured at all.
func (s *suite) protoReports(w *replayWorld) error {
	n := min(len(w.ops), 4000)
	c := proto.NewClient(w.http.base)
	rec := newRecorder(n)
	wire0 := w.http.wire.total()
	for i := 0; i < n; i++ {
		o := &w.ops[i]
		id := rec.begin("proto.Client.Report", -1, o.idx, nanos())
		resp, err := c.Report(proto.ReportRequest{Region: o.req.Region, Cell: [2]int{o.req.Cell.Q, o.req.Cell.R},
			UID: o.req.UID, Policy: o.req.Policy, Seed: o.req.Seed, Count: 1})
		rec.end(id, nanos())
		if err != nil {
			return fmt.Errorf("proto section: %w", err)
		}
		if len(resp.Reports) != 1 || resp.SubtreeRoot != [2]int{o.root.Coord.Q, o.root.Coord.R} {
			s.res.fail("proto section: op %d answered from subtree %v", i, resp.SubtreeRoot)
		}
	}
	s.spans.add("proto", rec.spans)
	s.m["proto.report_rtt_us"] = median(spanDurations(rec.spans)["proto.Client.Report"]) / 1e3
	s.m["proto.report_bytes_per_op"] = float64(w.http.wire.total()-wire0) / float64(n)
	return nil
}

// streamReports replays the trace once as REPORT frames from one client.
func (s *suite) streamReports(w *replayWorld) error {
	p, err := w.runReplay(s.ctx, replayStream, 0, 1, true)
	if err != nil {
		return err
	}
	if p.failed() != 0 {
		s.res.fail("stream section: %d of %d ops differ from the reference", p.failed(), p.ops())
	}
	spans := p.spans()
	s.spans.add("stream", spans)
	ops := float64(p.ops())
	st := w.stream.Stats()
	rtt := median(spanDurations(spans)[spanStreamReport])
	s.m["stream.report_rtt_us"] = rtt / 1e3
	s.m["stream.overhead_us"] = (rtt - s.inprocMedianNs) / 1e3
	s.m["stream.frames_per_op"] = float64(st.FramesIn+st.FramesOut) / ops
	s.m["stream.bytes_in_per_op"] = float64(st.BytesIn) / ops
	s.m["stream.bytes_out_per_op"] = float64(st.BytesOut) / ops
	return nil
}

// cluster measures what the router adds to an owner-local report, and one
// forwarded hop between two in-process nodes (local is the forwarding node,
// remote the owner, reached over its stream listener).
func (s *suite) cluster(local, remote *replayWorld) error {
	// A privacy-level-2 user never re-anchors: the same warm request can
	// be repeated without changing what is measured.
	var req registry.ReportRequest
	single, err := cluster.NewRouter(local.reg, "self", []cluster.Peer{{Name: "self"}}, cluster.RouterConfig{})
	if err != nil {
		return err
	}
	defer single.Close()
	pair, err := cluster.NewRouter(local.reg, "local", []cluster.Peer{{Name: "local"},
		{Name: "remote", StreamAddr: remote.streamAddr}}, cluster.RouterConfig{})
	if err != nil {
		return err
	}
	defer pair.Close()
	found := false
	for i := range local.ops {
		if o := &local.ops[i]; o.class == classDeep && pair.Owner(o.req.UID) == "remote" {
			req, found = o.req, true
			break
		}
	}
	if !found {
		return fmt.Errorf("cluster section: the remote node owns no privacy-level-2 user")
	}
	report := func(h registry.ReportHandler) func() error {
		return func() error {
			res, err := h.Report(s.ctx, req)
			if err == nil {
				res.Release()
			}
			return err
		}
	}
	// The router's toll is a difference of two nearly equal times, so the two
	// are timed in alternating batches and the differences' median reported.
	tolls := make([]float64, probeReps)
	for r := range tolls {
		direct := timeCalls(1, 2000, s.checked("Registry.Report", report(local.reg)))
		tolls[r] = timeCalls(1, 2000, s.checked("Router.Report, owner-local", report(single))) - direct
	}
	s.m["cluster.route_local_overhead_ns"] = median(tolls)
	s.probe("cluster.forward_hop_us", 1e3, 300, report(pair))
	if s.probeErr != nil {
		return s.probeErr
	}
	if pair.Stats().ForwardedOut == 0 {
		s.res.fail("cluster section: no report was forwarded")
	}
	return nil
}

// leases replays the trace once with on-device draws from one client.
func (s *suite) leases() error {
	w, err := newReplayWorld(s.ctx, s.cfg.seed, s.sz, transports{stream: true})
	if err != nil {
		return err
	}
	defer w.close()
	p, err := w.runReplay(s.ctx, replayLease, 0, 1, true)
	if err != nil {
		return err
	}
	if p.failed() != 0 {
		s.res.fail("lease section: %d of %d draws fell outside their leased subtree", p.failed(), p.ops())
	}
	over, err := w.checkLeaseAccounting(p)
	if err != nil {
		s.res.fail("lease section: %v", err)
	}
	spans := p.spans()
	s.spans.add("lease", spans)
	durs := spanDurations(spans)
	leases := float64(p.clients[0].leases)
	s.m["budget.overspend_users"] = float64(over)
	s.m["stream.lease_rtt_us"] = median(durs[spanLeaseRTT]) / 1e3
	s.m["clientdraw.open_us"] = median(durs[spanLeaseOpen]) / 1e3
	s.m["clientdraw.renew_us"] = median(durs[spanLeaseRenew]) / 1e3
	s.m["clientdraw.draw_ns"] = median(durs[spanLeaseDraw])
	s.m["clientdraw.leases_per_op"] = leases / float64(p.ops())
	s.m["clientdraw.draw_use_ratio"] = float64(p.ops()) / (leases * leaseDraws)
	return nil
}

// evenTargets spreads n service targets evenly over the leaves, as the
// registry does when it bootstraps a region.
func evenTargets(tree *loctree.Tree, n int) ([]geo.LatLng, []float64) {
	leaves := tree.LevelNodes(0)
	targets, probs := make([]geo.LatLng, n), make([]float64, n)
	for i := range targets {
		targets[i], probs[i] = tree.Center(leaves[i*len(leaves)/n]), 1
	}
	return targets, probs
}

// subtreeInstance builds the generation problem for one subtree the way
// core.Server does, from the server's public tree and priors.
func subtreeInstance(srv *core.Server, root loctree.NodeID, targets int) (*core.Instance, error) {
	tree := srv.Tree()
	leaves := tree.LeavesUnder(root)
	cells := make([]hexgrid.Coord, len(leaves))
	for i, l := range leaves {
		cells[i] = l.Coord
	}
	pri, err := srv.Priors().Subset(tree, leaves, true)
	if err != nil {
		return nil, err
	}
	tg, tp := evenTargets(tree, targets)
	return core.NewInstance(tree.System(), cells, pri, tg, tp, 0)
}

// geoIndLP is the graph-approximated Geo-Ind LP of Equ. (8) over an
// instance, built from its public getters: minimize expected quality loss
// subject to row-stochasticity and z[i][c] <= exp(eps*d_ij) * z[j][c] for
// every neighbor pair and column.
func geoIndLP(inst *core.Instance, eps float64) (*lp.Problem, error) {
	k := inst.K()
	prob := lp.NewProblem(k * k)
	obj := make([]float64, k*k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			obj[i*k+j] = inst.Priors()[i] * inst.Cost(i, j)
		}
	}
	if err := prob.SetObjective(obj); err != nil {
		return nil, err
	}
	idx, ones := make([]int, k), make([]float64, k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			idx[j], ones[j] = i*k+j, 1
		}
		if err := prob.AddConstraint(lp.EQ, 1, idx, ones); err != nil {
			return nil, err
		}
	}
	for _, p := range inst.NeighborPairs() {
		m := math.Exp(eps * p.Dist)
		for c := 0; c < k; c++ {
			if err := prob.AddConstraint(lp.LE, 0, []int{p.I*k + c, p.J*k + c}, []float64{1, -m}); err != nil {
				return nil, err
			}
		}
	}
	return prob, nil
}

// forests is the solve-side section: cold generation of K=49 and K=7
// entries, the LP beneath them, and the store and wire forms of a forest.
func (s *suite) forests() error {
	sz := s.sz
	sz.forestRegions = 3
	fw, err := newForestWorld(s.ctx, s.cfg.seed, sz, s.cfg.tmpRoot, 1)
	if err != nil {
		return err
	}
	defer fw.close()
	ctx := s.ctx
	ms := func(since int64) float64 { return float64(nanos()-since) / 1e6 }

	var big, small []float64
	var first *registry.Shard
	for i, spec := range fw.specs {
		sh, err := fw.reg.Shard(ctx, spec.Name)
		if err != nil {
			return err
		}
		tree := sh.Server.Tree()
		start := nanos()
		if _, err := sh.Server.GenerateEntryCtx(ctx, tree.LevelNodes(sz.forestLevel)[0], 1); err != nil {
			return fmt.Errorf("forest section: %w", err)
		}
		big = append(big, ms(start))
		if i == 0 {
			first = sh
			for _, node := range tree.LevelNodes(1) {
				start := nanos()
				if _, err := sh.Server.GenerateEntryCtx(ctx, node, 1); err != nil {
					return fmt.Errorf("forest section: %w", err)
				}
				small = append(small, ms(start))
			}
		}
	}
	s.m["core.solve_k49_ms"] = median(big)
	s.m["core.solve_k7_ms"] = median(small)
	es := fw.reg.AggregateStats()
	s.m["core.solves"] = float64(es.Solves)
	s.m["core.warm_accept_ratio"] = float64(es.WarmAccepts) / float64(max(es.WarmAttempts, 1))

	// The same K=49 problem with warm starts off, on a harness-built
	// instance (the engine's own is private).
	srv, tree := first.Server, first.Server.Tree()
	bigRoot := tree.LevelNodes(sz.forestLevel)[0]
	inst, err := subtreeInstance(srv, bigRoot, first.Spec.Targets)
	if err != nil {
		return err
	}
	params := srv.Params()
	params.Delta, params.NoWarmStart = 1, true
	start := nanos()
	if _, err := inst.GenerateCtx(ctx, params); err != nil {
		return fmt.Errorf("forest section: no-warm-start solve: %w", err)
	}
	s.m["core.solve_k49_nowarm_ms"] = ms(start)

	// lp.Solve on a K=7 subtree's LP, cold and from the previous basis.
	// (The monolithic K=49 LP has 21805 rows and does not finish in ten
	// minutes on this box; core routes every K above 12 through
	// Dantzig-Wolfe, whose master and pricing problems are this size.)
	small7, err := subtreeInstance(srv, tree.LevelNodes(1)[0], first.Spec.Targets)
	if err != nil {
		return err
	}
	prob, err := geoIndLP(small7, first.Spec.Epsilon)
	if err != nil {
		return err
	}
	var sol *lp.Solution
	solve := func(opt *lp.Options) func() error {
		return func() error {
			got, err := lp.Solve(prob, opt)
			if err != nil {
				return err
			}
			if got.Status != lp.Optimal {
				return fmt.Errorf("lp.Solve: %v", got.Status)
			}
			sol = got
			return nil
		}
	}
	s.probe("lp.solve_k7_us", 1e3, 5, solve(&lp.Options{Perturb: true}))
	if s.probeErr != nil {
		return s.probeErr
	}
	s.m["lp.pivots_k7"] = float64(sol.Iterations)
	s.probe("lp.solve_k7_warm_us", 1e3, 5, solve(&lp.Options{Perturb: true, WarmBasis: sol.Basis}))

	// store: one forest saved, loaded and hydrated, in a store of its own.
	forest, err := srv.GenerateForestCtx(ctx, sz.forestLevel, 1)
	if err != nil {
		return err
	}
	var entries []*core.ForestEntry
	for _, node := range tree.LevelNodes(sz.forestLevel) {
		entries = append(entries, forest.Entries[node])
	}
	dir, err := os.MkdirTemp(s.cfg.tmpRoot, "probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	fs, err := store.NewForestStore(st, "corgi-bench-probe", tree)
	if err != nil {
		return err
	}
	s.probe("store.save_ms", 1e6, 1, func() error { return fs.Save(ctx, sz.forestLevel, 1, entries) })
	s.probe("store.load_ms", 1e6, 1, func() error {
		got, err := fs.Load(ctx, sz.forestLevel, 1)
		if err == nil && len(got) != len(entries) {
			err = fmt.Errorf("loaded %d of %d entries", len(got), len(entries))
		}
		return err
	})
	tg, tp := evenTargets(tree, first.Spec.Targets)
	s.probe("store.hydrate_ms", 1e6, 1, func() error {
		fresh, err := core.NewServerWithOptions(tree, srv.Priors(), tg, tp, srv.Params(), core.EngineOptions{Store: fs})
		if err != nil {
			return err
		}
		n, err := fresh.HydrateFromStore(ctx)
		if err == nil && n != len(entries) {
			err = fmt.Errorf("hydrated %d of %d entries", n, len(entries))
		}
		return err
	})
	if s.probeErr != nil {
		return s.probeErr
	}
	size, err := st.SizeBytes()
	if err != nil {
		return err
	}
	s.m["store.bytes_per_forest"] = float64(size)

	// proto: the forest's v2 wire form, and a fetch the cache answers.
	var body []byte
	s.probe("proto.forest_v2_encode_ms", 1e6, 1, func() error {
		v2, err := proto.EncodeForestV2(tree, forest)
		if err == nil {
			body, err = json.Marshal(v2)
		}
		return err
	})
	s.m["proto.forest_v2_bytes"] = float64(len(body))
	pc := proto.NewRegionClient(fw.http.base, first.Spec.Name)
	s.probe("proto.forest_fetch_warm_ms", 1e6, 1, func() error {
		_, err := pc.FetchForestTagged(tree, sz.forestLevel, 1, "")
		return err
	})
	return s.probeErr
}
