package simtest

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"corgi/internal/budget"
	"corgi/internal/codec"
	"corgi/internal/core"
	"corgi/internal/device"
	"corgi/internal/loctree"
	"corgi/internal/node/nodetest"
	"corgi/internal/obf"
	"corgi/internal/policy"
	"corgi/internal/proto"
	"corgi/internal/registry"
	"corgi/internal/stream"
)

const region = "sim"

// spec is the simulated region: 49 leaves under seven level-1 subtrees,
// so a level-1 entry is a K=7 solve and the one level-2 entry K=49.
var spec = registry.Spec{
	Name:      region,
	CenterLat: 37.765, CenterLng: -122.435,
	Height: 2, Epsilon: 15, Iterations: 1, Targets: 3,
	UniformPriors: true, SyntheticCheckIns: 500,
}

// leaseSecret is every node's -lease-secret, so a token one node signed
// renews at any other, restarted ones included.
var leaseSecret = strings.Repeat("5e", 32)

// streamKey names one user's draw stream: the server keys a session by
// (uid, seed, policy), and a user's seed is fixed.
type streamKey struct {
	user, level, precision int
	pref                   pref
}

func keyOf(s step) streamKey { return streamKey{s.user, s.level, s.precision, s.pref} }

func (k streamKey) String() string {
	return fmt.Sprintf("u%d l%d/%d %s", k.user, k.level, k.precision, prefNames[k.pref])
}

// answer is what one ask or forest GET came back with.
type answer struct {
	status  int
	err     error
	facts   registry.Facts
	reports []loctree.NodeID
	forest  *core.Forest
}

// grant is one granted ask in the ε ledger.
type grant struct {
	step int
	at   time.Time
	eps  float64
}

// disruption is what can lose a user's spend or move its server-side
// stream: a strangers step (node -1: every node's accountant evicts), or
// a down or restart of a node.
type disruption struct {
	step, node int
	at         time.Time
}

// outcome is what a run found besides a failure.
type outcome struct {
	// compared counts draws held to the reference; known lists the users
	// whose ε spend passed the cap in a window that spans a disruption
	// (ROADMAP item 3).
	compared int
	known    []int
}

// reference is the naive single-registry replay: one in-process registry
// without budgets, for the whole test binary. A run starts by evicting
// every session it holds, so each run replays into a registry that is
// fresh for every stream it asks on.
var reference struct {
	once sync.Once
	reg  *registry.Registry
	err  error
}

func referenceRegistry() (*registry.Registry, error) {
	reference.once.Do(func() {
		secret, _ := hex.DecodeString(leaseSecret)
		reference.reg, reference.err = registry.New([]registry.Spec{spec}, registry.Options{
			SessionCap: sessionCap, LeaseSecret: secret, LeaseTTL: 24 * time.Hour,
		})
	})
	return reference.reg, reference.err
}

// sim is one run of a schedule.
type sim struct {
	t     testing.TB
	ctx   context.Context
	c     *nodetest.Cluster
	names [nodes]string
	up    [nodes]bool
	https [nodes]*proto.Client
	strms [nodes]*stream.Client
	// retired holds the budget counters of node instances shut down.
	retired budget.Stats

	tree   *loctree.Tree
	ref    *registry.Registry
	uids   [users]int64
	seq    [users][]string
	nextID int64

	// devices are the leased streams' devices: the cluster's, whose
	// remote is set per ask, and the reference's.
	devices map[streamKey]*leasedPair
	// A tainted user's server-drawn streams draw from sessions the
	// schedule may have reset or moved at a moment the reference cannot
	// follow; a strangers step resets every session on both sides and
	// clears the marks.
	tainted [users]bool
	ledger  [users][]grant
	events  []disruption
	out     outcome
}

type leasedPair struct {
	remote    switchable
	dev, want *device.Leased
}

// switchable is a report handler whose target the asking goroutine sets
// before each ask: one device reaches whichever node and transport the
// schedule names.
type switchable struct{ registry.ReportHandler }

// run executes sched and checks it; the error is the first invariant
// broken.
func run(t testing.TB, sched []step) (*outcome, error) {
	ref, err := referenceRegistry()
	if err != nil {
		t.Fatal(err)
	}
	s := &sim{t: t, ctx: context.Background(), ref: ref, nextID: 1 << 40,
		devices: map[streamKey]*leasedPair{}}
	s.start()
	// A failed run still takes its nodes down, so the next run's
	// goroutine scan sees only its own.
	defer s.shutdown()
	if err := s.evictReference(); err != nil {
		return nil, err
	}
	for i := 0; i < len(sched); {
		j := i
		for j < len(sched) && (sched[j].op == opAsk || sched[j].op == opForest) {
			j++
		}
		if j > i {
			answers := s.burst(sched[i:j])
			if j == len(sched) {
				// The run's last barrier is shutting every node down:
				// an upgrade solve the last burst started must not
				// outlive it.
				if err := s.shutdown(); err != nil {
					return nil, err
				}
			}
			if err := s.check(sched, i, answers); err != nil {
				return nil, err
			}
			i = j
			continue
		}
		if err := s.barrier(sched[i], i); err != nil {
			return nil, fmt.Errorf("step %d (%s): %w", i, sched[i], err)
		}
		if err := s.checkBudget(); err != nil {
			return nil, fmt.Errorf("after step %d (%s): %w", i, sched[i], err)
		}
		i++
	}
	if err := s.shutdown(); err != nil {
		return nil, err
	}
	if err := leftGoroutines(1000); err != nil {
		return nil, err
	}
	return &s.out, nil
}

// start brings the three nodes up from corgi-server flags, makes each
// node's clients and picks each user's uid so that user i is owned by
// node i % nodes. The clients last the whole run, as a device's do: a
// restarted node listens on its old addresses, and each client retries a
// request that a connection the restart left stale did not answer.
func (s *sim) start() {
	dir := s.t.TempDir()
	specs, err := json.Marshal([]registry.Spec{spec})
	if err != nil {
		s.t.Fatal(err)
	}
	regions := filepath.Join(dir, "regions.json")
	if err := os.WriteFile(regions, specs, 0o644); err != nil {
		s.t.Fatal(err)
	}
	s.c = nodetest.Start(s.t, nodes, func(i int) []string {
		args := []string{"-region-config", regions, "-store", filepath.Join(dir, "store"+strconv.Itoa(i)),
			"-max-sessions", strconv.Itoa(sessionCap), "-budget-users", strconv.Itoa(sessionCap),
			"-budget-eps", strconv.FormatFloat(budgetDraws*spec.Epsilon, 'g', -1, 64), "-budget-window", window.String(),
			"-lease-secret", leaseSecret, "-lease-ttl", "24h", "-workers", "2"}
		if i == degradedNode {
			args = append(args, "-degraded-serving")
		}
		return args
	})
	for i, nd := range s.c.Nodes {
		s.names[i], s.up[i] = nd.Config.ClusterSelf, true
		s.https[i] = proto.NewRegionClient("http://"+nd.HTTPListener.Addr().String(), region)
		s.strms[i] = stream.NewClient(nd.StreamListener.Addr().String(), stream.ClientConfig{})
	}
	ring := s.c.Nodes[0].Router.Ring()
	for u := range s.uids {
		s.uids[u] = s.owned(u % nodes)
		s.seq[u] = ring.Sequence(s.uids[u])
	}
	tree, _, err := s.https[0].FetchTree()
	if err != nil {
		s.t.Fatal(err)
	}
	s.tree = tree
}

// owned returns the next unused uid node i owns.
func (s *sim) owned(i int) int64 {
	ring := s.c.Nodes[0].Router.Ring()
	for {
		s.nextID++
		if ring.Owner(s.nextID) == s.names[i] {
			return s.nextID
		}
	}
}

// entry is the node an ask for node i enters at: i, or the next node up.
// A down step never takes the last node down, so one is up.
func (s *sim) entry(i int) int {
	for k := 0; k < nodes; k++ {
		if n := (i + k) % nodes; s.up[n] {
			return n
		}
	}
	return i
}

// serving is the node that serves user u now: its owner, or the first
// node up in its ring sequence.
func (s *sim) serving(u int) string {
	for _, name := range s.seq[u] {
		for i := range s.names {
			if s.names[i] == name && s.up[i] {
				return name
			}
		}
	}
	return ""
}

// cell is the leaf a schedule's cell index names: leaf c%7 of level-1
// subtree c/7.
func (s *sim) cell(c int) loctree.NodeID {
	subtrees := s.tree.LevelNodes(1)
	return s.tree.LeavesUnder(subtrees[c/7%len(subtrees)])[c%7]
}

func (s *sim) request(st step) registry.ReportRequest {
	return registry.ReportRequest{Region: region, Cell: s.cell(st.cell).Coord, UID: s.uids[st.user],
		Seed: 20231212 + int64(st.user), Count: st.count,
		Policy: policy.Policy{PrivacyLevel: st.level, PrecisionLevel: st.precision, Preferences: st.pref.predicates()}}
}

// handler is the client an ask goes out on: the entry node's, over the
// ask's transport.
func (s *sim) handler(st step) registry.ReportHandler {
	n := s.entry(st.node)
	if st.via == viaHTTP || st.via == viaLeaseHTTP {
		return s.https[n].Remote()
	}
	return s.strms[n].Remote()
}

func (s *sim) device(k streamKey) *leasedPair {
	d, ok := s.devices[k]
	if !ok {
		d = &leasedPair{}
		d.dev = &device.Leased{Remote: &d.remote, Tree: s.treeOf, Draws: leaseDraws}
		d.want = &device.Leased{Remote: s.ref, Tree: s.treeOf, Draws: leaseDraws}
		s.devices[k] = d
	}
	return d
}

func (s *sim) treeOf(string) (*loctree.Tree, error) { return s.tree, nil }

// burst runs one burst: every user's asks in order on one goroutine per
// user, each forest GET on its own; the answers come back by step.
func (s *sim) burst(steps []step) []answer {
	answers := make([]answer, len(steps))
	byUser := map[int][]int{}
	for i, st := range steps {
		if st.op == opAsk {
			byUser[st.user] = append(byUser[st.user], i)
			if st.leased() {
				s.device(keyOf(st)) // made here, read by one goroutine
			}
		}
	}
	var wg sync.WaitGroup
	for _, idx := range byUser {
		wg.Add(1)
		go func(idx []int) {
			defer wg.Done()
			for k := 0; k < len(idx); {
				st := steps[idx[k]]
				j := k + 1
				for st.batch > 0 && j < len(idx) && steps[idx[j]].batch == st.batch {
					j++
				}
				if j-k > 1 {
					s.batch(steps, idx[k:j], answers)
				} else {
					answers[idx[k]] = s.ask(st)
				}
				k = j
			}
		}(idx)
	}
	for i, st := range steps {
		if st.op == opForest {
			wg.Add(1)
			go func(i int, st step) {
				defer wg.Done()
				answers[i] = s.forest(st)
			}(i, st)
		}
	}
	wg.Wait()
	return answers
}

func answerOf(res *registry.ReportResult, err error) answer {
	if err != nil {
		return answer{status: registry.Classify(err).Status, err: err}
	}
	a := answer{status: http.StatusOK, facts: res.Facts, reports: append([]loctree.NodeID(nil), res.Reports...)}
	res.Release()
	return a
}

func (s *sim) ask(st step) answer {
	req := s.request(st)
	if st.leased() {
		d := s.devices[keyOf(st)]
		d.remote.ReportHandler = s.handler(st)
		return answerOf(d.dev.Report(s.ctx, req))
	}
	return answerOf(s.handler(st).Report(s.ctx, req))
}

// batch sends the asks steps[idx...] as one batch.
func (s *sim) batch(steps []step, idx []int, answers []answer) {
	reqs := make([]registry.ReportRequest, len(idx))
	for i, k := range idx {
		reqs[i] = s.request(steps[k])
	}
	// Both transports' remotes batch.
	outs, err := s.handler(steps[idx[0]]).(interface {
		ReportBatch(context.Context, []registry.ReportRequest) ([]registry.BatchOutcome, error)
	}).ReportBatch(s.ctx, reqs)
	for i, k := range idx {
		switch {
		case err != nil:
			answers[k] = answerOf(nil, err)
		case outs[i].Status == http.StatusOK:
			answers[k] = answerOf(outs[i].Result, nil)
		default:
			rej := outs[i].Rejection
			answers[k] = answer{status: rej.Status, err: &rej}
		}
	}
}

func (s *sim) forest(st step) answer {
	forest, err := s.https[s.entry(st.node)].FetchForest(s.tree, st.level, st.delta)
	if err != nil {
		return answerOf(nil, err)
	}
	return answer{status: http.StatusOK, forest: forest}
}

// barrier runs one step that is not part of a burst.
func (s *sim) barrier(st step, i int) error {
	switch st.op {
	case opJump:
		s.c.Clock.Advance(st.jump)
	case opStrangers:
		return s.strangers(i)
	case opDown:
		if s.countUp() < nodes || !s.up[st.node] {
			return nil // one node down at a time: the rest stand in
		}
		s.disrupt(i, st.node, func() error {
			s.retire(st.node)
			s.up[st.node] = false
			return s.c.Nodes[st.node].Shutdown(s.ctx)
		})
	case opRestart:
		s.disrupt(i, st.node, func() error {
			if s.up[st.node] {
				s.retire(st.node)
			}
			s.c.Restart(st.node)
			s.up[st.node] = true
			// Past every peer's reconnect backoff: the next forward
			// probes the new instance and finds it.
			s.c.Clock.Advance(time.Minute)
			return nil
		})
	}
	return nil
}

func (s *sim) countUp() int {
	n := 0
	for _, up := range s.up {
		if up {
			n++
		}
	}
	return n
}

// disrupt runs a down or restart of node n and taints the server-drawn
// streams of every user it served or serves next.
func (s *sim) disrupt(i, n int, do func() error) {
	var before [users]string
	for u := range before {
		before[u] = s.serving(u)
	}
	at := s.c.Clock.Now()
	if err := do(); err != nil {
		s.t.Fatalf("step %d: node %d: %v", i, n, err)
	}
	s.events = append(s.events, disruption{step: i, node: n, at: at})
	for u := range before {
		if before[u] == s.names[n] || s.serving(u) != before[u] {
			s.tainted[u] = true
		}
	}
}

// retire keeps node i's budget counters before its instance goes.
func (s *sim) retire(i int) {
	if sh, ok := s.c.Nodes[i].Registry.ShardIfReady(region); ok && sh.Budget != nil {
		s.retired.Merge(sh.Budget.Stats())
	}
}

// strangers asks sessionCap reports of fresh users at every node that is
// up, each served by its owner, and as many of the reference: every
// session and every accountant window on both sides is evicted.
func (s *sim) strangers(i int) error {
	ask := func(h registry.ReportHandler, uid int64) error {
		res, err := h.Report(s.ctx, registry.ReportRequest{Region: region, Cell: s.cell(0).Coord, UID: uid,
			Policy: policy.Policy{PrivacyLevel: 1}, Count: 1})
		if err != nil {
			return fmt.Errorf("stranger %d: %w", uid, err)
		}
		res.Release()
		return nil
	}
	for n, nd := range s.c.Nodes {
		if s.up[n] {
			for k := 0; k < sessionCap; k++ {
				if err := ask(nd.Router, s.owned(n)); err != nil {
					return err
				}
			}
		}
	}
	if err := s.evictReference(); err != nil {
		return err
	}
	s.events = append(s.events, disruption{step: i, node: -1, at: s.c.Clock.Now()})
	s.tainted = [users]bool{}
	return nil
}

func (s *sim) evictReference() error {
	for k := 0; k < sessionCap; k++ {
		s.nextID++
		res, err := s.ref.Report(s.ctx, registry.ReportRequest{Region: region, Cell: s.cell(0).Coord, UID: -s.nextID,
			Policy: policy.Policy{PrivacyLevel: 1}, Count: 1})
		if err != nil {
			return fmt.Errorf("reference stranger: %w", err)
		}
		res.Release()
	}
	return nil
}

// shutdown takes every node that is up down and closes the stream
// clients, the run's last barrier.
func (s *sim) shutdown() error {
	for i, nd := range s.c.Nodes {
		if s.up[i] {
			s.retire(i)
			s.up[i] = false
			if err := nd.Shutdown(s.ctx); err != nil {
				return fmt.Errorf("shutting node %d down: %w", i, err)
			}
		}
	}
	for _, c := range s.strms {
		c.Close()
	}
	return nil
}

// check holds one burst's answers, steps[from:] of sched, to the
// references: each answer's status and draws, the reference registry's
// replay of every stream, and the ε ledger.
func (s *sim) check(sched []step, from int, answers []answer) error {
	now := s.c.Clock.Now()
	for i, a := range answers {
		st := sched[from+i]
		fail := func(format string, args ...any) error {
			return fmt.Errorf("step %d (%s): %s", from+i, st, fmt.Sprintf(format, args...))
		}
		if st.op == opForest {
			want := http.StatusOK
			if k := len(s.tree.LeavesUnder(s.tree.LevelNodes(st.level)[0])); st.delta >= k {
				want = http.StatusUnprocessableEntity
			}
			if a.status != want {
				return fail("status %d, want %d: %v", a.status, want, a.err)
			}
			if a.status == http.StatusOK {
				if err := s.sameForest(st, a.forest); err != nil {
					return fail("%v", err)
				}
			}
			continue
		}
		switch {
		case a.status == http.StatusTooManyRequests:
			continue
		case st.pref == prefAll && a.status != http.StatusUnprocessableEntity:
			return fail("a preference set that prunes the whole subtree answered %d, want 422: %v", a.status, a.err)
		case st.pref != prefAll && a.status != http.StatusOK:
			return fail("status %d: %v", a.status, a.err)
		}
		if a.status != http.StatusOK {
			continue
		}
		if err := s.inSubtree(st, a); err != nil {
			return fail("%v", err)
		}
		if a.facts.EpsSpent > 0 {
			s.ledger[st.user] = append(s.ledger[st.user], grant{step: from + i, at: now, eps: a.facts.EpsSpent})
		}
		want, err := s.replay(st)
		if err != nil {
			return fail("the reference refused what the cluster served: %v", err)
		}
		if s.tainted[st.user] && !st.leased() || a.facts.Degraded {
			continue
		}
		if !reflect.DeepEqual(a.reports, want.reports) || a.facts.Pruned != want.facts.Pruned {
			return fail("stream %v drew %v with %d pruned; the reference drew %v with %d pruned",
				keyOf(st), a.reports, a.facts.Pruned, want.reports, want.facts.Pruned)
		}
		s.out.compared += len(a.reports)
	}
	return s.checkBudget()
}

// sameForest checks that a fetched forest holds the reference registry's
// entries, row for row at the codec's fixed point: a node that loaded an
// entry from a store snapshot, its own or a peer's, serves it quantized,
// as the compact forest wire carries every entry.
func (s *sim) sameForest(st step, got *core.Forest) error {
	sh, err := s.ref.Shard(s.ctx, region)
	if err != nil {
		return err
	}
	want, err := sh.Server.GenerateForestCtx(s.ctx, st.level, st.delta)
	if err != nil {
		return fmt.Errorf("the reference refused the forest: %w", err)
	}
	if len(got.Entries) != len(want.Entries) {
		return fmt.Errorf("forest of %d entries, the reference's has %d", len(got.Entries), len(want.Entries))
	}
	for root, w := range want.Entries {
		if g := got.Entries[root]; g == nil || !reflect.DeepEqual(g.Leaves, w.Leaves) || !sameRows(g.Matrix, w.Matrix) {
			return fmt.Errorf("entry %v differs from the reference's", root)
		}
	}
	return nil
}

func sameRows(a, b *obf.Matrix) bool {
	if a.Dim() != b.Dim() {
		return false
	}
	for i := 0; i < a.Dim(); i++ {
		for j := 0; j < a.Dim(); j++ {
			if codec.Quantize(a.At(i, j)) != codec.Quantize(b.At(i, j)) {
				return false
			}
		}
	}
	return true
}

// inSubtree checks that every draw lies in the ask's privacy subtree at
// its precision level.
func (s *sim) inSubtree(st step, a answer) error {
	root, _ := s.tree.AncestorAt(s.cell(st.cell), st.level)
	if a.facts.SubtreeRoot != root || len(a.reports) != st.count {
		return fmt.Errorf("answered subtree %v with %d draws, want %v with %d", a.facts.SubtreeRoot, len(a.reports), root, st.count)
	}
	for _, r := range a.reports {
		if at, ok := s.tree.AncestorAt(r, st.level); r.Level != st.precision || !ok || at != root {
			return fmt.Errorf("drew %v, outside subtree %v at precision level %d", r, root, st.precision)
		}
	}
	return nil
}

// replay asks the reference what the cluster served: a server draw of the
// reference registry, or a draw of the stream's reference device.
func (s *sim) replay(st step) (answer, error) {
	req := s.request(st)
	var a answer
	if st.leased() {
		a = answerOf(s.device(keyOf(st)).want.Report(s.ctx, req))
	} else {
		a = answerOf(s.ref.Report(s.ctx, req))
	}
	return a, a.err
}

// checkBudget holds the ledger to the cap: in every window of every user
// the ε granted stays within it, unless the window spans a disruption
// that loses the user's spend (ROADMAP item 3), and every handoff a node
// exported was imported once or rolled back.
func (s *sim) checkBudget() error {
	limit := budgetDraws * spec.Epsilon * (1 + 1e-9)
	s.out.known = s.out.known[:0]
	for u, grants := range s.ledger {
		over := false
		for j, g := range grants {
			sum, first := 0.0, g.step
			for _, h := range grants[:j+1] {
				if h.at.After(g.at.Add(-window)) {
					sum += h.eps
					first = min(first, h.step)
				}
			}
			if sum <= limit {
				continue
			}
			if !s.spans(u, first, g.step, g.at) {
				return fmt.Errorf("user %d was granted %.4g ε in the window ending at step %d, over its cap of %.4g",
					u, sum, g.step, budgetDraws*spec.Epsilon)
			}
			over = true
		}
		if over {
			s.out.known = append(s.out.known, u)
		}
	}
	all := s.retired
	for i, nd := range s.c.Nodes {
		if sh, ok := nd.Registry.ShardIfReady(region); ok && s.up[i] && sh.Budget != nil {
			all.Merge(sh.Budget.Stats())
		}
	}
	if all.HandoffsExported != all.HandoffsRolledBack+all.HandoffsImported || all.HandoffDupes != 0 {
		return fmt.Errorf("%d handoffs exported, %d rolled back, %d imported, %d duplicates",
			all.HandoffsExported, all.HandoffsRolledBack, all.HandoffsImported, all.HandoffDupes)
	}
	return nil
}

// spans reports whether user u's window, its grants from step first to
// step last, ending at time t, spans a disruption that can lose its
// spend: a strangers step between two of its grants, or, at any time in
// the window before its last grant, a disruption of one of the two nodes
// that can hold its spend, its owner and its stand-in.
func (s *sim) spans(u, first, last int, t time.Time) bool {
	for _, e := range s.events {
		switch {
		case e.step > last:
		case e.node < 0:
			if e.step > first {
				return true
			}
		case s.names[e.node] == s.seq[u][0] || s.names[e.node] == s.seq[u][1]:
			if e.at.After(t.Add(-window)) {
				return true
			}
		}
	}
	return false
}

// leftGoroutines fails when a goroutine still stands in the serving
// stack's code. One that has just finished may still be on its way out,
// so the scan is retaken, yielding in between, before it fails.
func leftGoroutines(tries int) error {
	buf := make([]byte, 4<<20)
	var left []string
	for try := 0; try < tries; try++ {
		left = left[:0]
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "corgi/internal/") && !strings.Contains(g, "corgi/internal/simtest") {
				left = append(left, g)
			}
		}
		if len(left) == 0 {
			return nil
		}
		runtime.Gosched()
	}
	sort.Strings(left)
	return fmt.Errorf("%d goroutines outlived the last shutdown, the first:\n%s", len(left), left[0])
}
