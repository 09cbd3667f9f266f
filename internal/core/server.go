package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"corgi/internal/flight"
	"corgi/internal/geo"
	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
	"corgi/internal/mechanism"
	"corgi/internal/obf"
)

// ForestEntry is one privacy-forest element: the robust obfuscation matrix
// for the descendant leaves of a subtree rooted at the privacy level. The
// matrix index order is Leaves' order.
//
// Entries additionally carry a lazily-built per-row alias-table cache for
// O(1) report draws (see AliasRow); the mutex inside means entries must be
// shared by pointer, which every existing path already does.
type ForestEntry struct {
	Root   loctree.NodeID
	Leaves []loctree.NodeID
	Matrix *obf.Matrix
	// Pairs is the Geo-Ind constraint set the matrix was generated under
	// (the graph-approximation neighbor pairs), kept for audits. It depends
	// on the subtree's cells alone, so every entry of one subtree, whatever
	// its delta, shares one slice: it is read-only. Degraded fallback
	// entries carry none (their bound holds analytically for every pair,
	// not just graph neighbors).
	Pairs []obf.Pair
	// Result carries generation statistics (trace, LP iterations, timing).
	Result *Result
	// Degraded marks a planar-Laplace fallback entry: it satisfies the same
	// ε-Geo-Ind bound as the optimal matrix (robustly, for any pruning set)
	// but at strictly worse utility. Served only on the degraded fast path
	// while the real LP solve runs; the optimal entry replaces it in the
	// cache on completion.
	Degraded bool

	alias aliasState
	index mechanism.LeafIndex
}

// Forest is the privacy forest of Sec. 3.2 / Algorithm 3: one entry per
// node of the privacy level, so the server never learns which subtree holds
// the user's real location.
type Forest struct {
	PrivacyLevel int
	Delta        int
	Entries      map[loctree.NodeID]*ForestEntry
}

// Server is the CORGI server: it owns the location tree, the public priors,
// and the target-location distribution, and generates privacy forests on
// request. Only (privacy level, delta) arrive from users — never locations
// or preference contents (Sec. 5.1).
//
// Generation runs on a concurrent engine: subtree solves fan out across a
// bounded worker pool (each subtree's matrix is independent, Algorithm 3),
// concurrent requests for the same (node, delta) share one LP solve, and
// finished entries live on a two-tier read path — a byte-bounded in-memory
// LRU backed by an optional durable snapshot store (EngineOptions.Store)
// consulted before any solve runs, with completed forests written back
// asynchronously. See EngineOptions.
type Server struct {
	tree        *loctree.Tree
	priors      *loctree.Priors
	targets     []geo.LatLng
	targetProbs []float64
	params      Params

	// pairs memoizes each subtree root's NeighborPairs ([]obf.Pair), built
	// by the first generation under that root: the engine solves a
	// subtree's deltas concurrently, and all of them share one list.
	pairs sync.Map

	engine *engine
}

type forestKey struct {
	node  loctree.NodeID
	delta int
}

// NewServerWithOptions validates inputs and builds a server with explicit
// engine tuning (worker count, cache bound; zero values are the defaults).
// params.Delta is ignored (per-request); the rest of params applies to
// every generation.
func NewServerWithOptions(tree *loctree.Tree, priors *loctree.Priors, targets []geo.LatLng,
	targetProbs []float64, params Params, opts EngineOptions) (*Server, error) {
	if tree == nil || priors == nil {
		return nil, fmt.Errorf("core: server needs a tree and priors")
	}
	if len(targets) == 0 || len(targets) != len(targetProbs) {
		return nil, fmt.Errorf("core: server needs matching targets and probabilities")
	}
	if !(params.Epsilon > 0) || math.IsInf(params.Epsilon, 1) {
		return nil, fmt.Errorf("core: server epsilon must be positive and finite, got %v", params.Epsilon)
	}
	if params.Iterations < 1 {
		params.Iterations = 1
	}
	s := &Server{
		tree:        tree,
		priors:      priors,
		targets:     append([]geo.LatLng(nil), targets...),
		targetProbs: append([]float64(nil), targetProbs...),
		params:      params,
	}
	s.engine = newEngine(opts, s.generate)
	if opts.DegradedServing {
		s.engine.fallback = s.fallbackEntry
	}
	return s, nil
}

// Tree returns the server's location tree (shared with users, step 1-3 of
// Fig. 1).
func (s *Server) Tree() *loctree.Tree { return s.tree }

// Params returns the generation parameters in force.
func (s *Server) Params() Params { return s.params }

// Priors returns the server's public leaf priors (footnote 5: priors are
// derived from public check-in data, so sharing them leaks nothing).
func (s *Server) Priors() *loctree.Priors { return s.priors }

// Stats snapshots the engine's cache and solve counters.
func (s *Server) Stats() EngineStats { return s.engine.stats() }

// GenerateEntryCtx generates (or returns cached) the robust matrix for one
// subtree root at the privacy level, prunable up to delta locations,
// honoring ctx cancellation/deadline while waiting for a worker slot or a
// shared in-flight solve. delta must lie in [0, K) for a subtree of K
// leaves (see checkDelta).
func (s *Server) GenerateEntryCtx(ctx context.Context, root loctree.NodeID, delta int) (*ForestEntry, error) {
	key, err := s.entryKey(root, delta)
	if err != nil {
		return nil, err
	}
	return s.engine.entry(ctx, key)
}

// ServeEntryCtx is the degraded-capable read path: with
// EngineOptions.DegradedServing enabled, a request whose (root, delta)
// entry misses both the cache and the store is answered immediately with a
// discretized planar-Laplace fallback (ForestEntry.Degraded set) while the
// real LP solve proceeds in the background; the optimal entry atomically
// replaces the fallback on completion. Without the option it is exactly
// GenerateEntryCtx.
func (s *Server) ServeEntryCtx(ctx context.Context, root loctree.NodeID, delta int) (*ForestEntry, error) {
	key, err := s.entryKey(root, delta)
	if err != nil {
		return nil, err
	}
	return s.engine.entryFast(ctx, key)
}

// entryKey validates one entry request: root must be a node of the tree
// and delta within its subtree's bound.
func (s *Server) entryKey(root loctree.NodeID, delta int) (forestKey, error) {
	leaves := s.tree.LeavesUnder(root)
	if leaves == nil {
		return forestKey{}, fmt.Errorf("core: node %v not in tree", root)
	}
	return forestKey{node: root, delta: delta}, checkDelta(delta, len(leaves))
}

// ErrDeltaRange marks a delta outside [0, K) for a subtree of K leaves. A
// prune set of K or more leaves nothing to report from, so no user can
// reach such a delta and the server refuses it before any solve runs.
var ErrDeltaRange = errors.New("delta out of range")

// ErrPrivacyLevel marks a forest asked for at a privacy level the tree
// does not have: levels run from 1 to the tree's height.
var ErrPrivacyLevel = errors.New("privacy level out of range")

// checkDelta enforces ErrDeltaRange's bound for a subtree of k leaves.
func checkDelta(delta, k int) error {
	if delta < 0 || delta >= k {
		return fmt.Errorf("core: %w: delta %d, want [0,%d) for a subtree of %d leaves", ErrDeltaRange, delta, k, k)
	}
	return nil
}

// PeekEntry returns the cached entry for (root, delta) without touching the
// hit/miss counters or triggering any generation. The report pipeline uses
// it to discover that a background upgrade has replaced the degraded entry
// a session is bound to.
func (s *Server) PeekEntry(root loctree.NodeID, delta int) (*ForestEntry, bool) {
	return s.engine.cache.peek(forestKey{node: root, delta: delta})
}

// WaitUpgrades blocks until every background degraded-to-optimal upgrade
// started so far has finished. Tests use it for deterministic upgrade
// observation; servers may call it on drain.
func (s *Server) WaitUpgrades() { s.engine.waitUpgrades() }

// fallbackEntry is the degraded entry degraded serving answers with while
// the LP solve runs.
func (s *Server) fallbackEntry(ctx context.Context, key forestKey) (*ForestEntry, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return PlanarEntry(s.tree, key.node, s.params.Epsilon)
}

// PlanarEntry builds a degraded entry for a subtree from analytic
// discretized planar-Laplace rows: w_i(j) ∝ exp(-(ε/2)·d_ij) over the
// subtree's leaf centers. No LP runs — cost is O(K²) exponentials,
// milliseconds even for the largest subtrees. The halved exponent makes the
// normalized rows ε-Geo-Ind for every pair (see planar.DiscretizedRows),
// and the bound survives arbitrary row pruning + renormalization, so the
// entry is δ-prunable for every δ at once — strictly safe, strictly worse
// utility than the LP optimum.
func PlanarEntry(tree *loctree.Tree, root loctree.NodeID, eps float64) (*ForestEntry, error) {
	leaves := tree.LeavesUnder(root)
	cells := make([]hexgrid.Coord, len(leaves))
	for i, l := range leaves {
		cells[i] = l.Coord
	}
	start := time.Now()
	m, err := mechanism.PlanarLaplace(mechanism.BuildConfig{Sys: tree.System(), Cells: cells, Epsilon: eps})
	if err != nil {
		return nil, fmt.Errorf("core: planar entry for subtree %v: %w", root, err)
	}
	return &ForestEntry{
		Root:     root,
		Leaves:   leaves,
		Matrix:   m,
		Result:   &Result{Matrix: m, Elapsed: time.Since(start)},
		Degraded: true,
	}, nil
}

// generate builds the instance for a subtree's leaf set and runs Generate.
// It is the engine's solve callback and always receives a validated key.
func (s *Server) generate(ctx context.Context, key forestKey) (*ForestEntry, error) {
	root, delta := key.node, key.delta
	leaves := s.tree.LeavesUnder(root)
	cellCoords := make([]hexgrid.Coord, len(leaves))
	for i, l := range leaves {
		cellCoords[i] = l.Coord
	}
	leafPriors, err := s.priors.Subset(s.tree, leaves, true)
	if err != nil {
		return nil, err
	}
	inst, err := NewInstance(s.tree.System(), cellCoords, leafPriors, s.targets, s.targetProbs, 0)
	if err != nil {
		return nil, err
	}
	p := s.params
	p.Delta = delta
	if delta == 0 {
		p.Iterations = 0
	}
	pairs := s.neighborPairs(root, inst)
	res, err := inst.GenerateOver(ctx, p, pairs)
	if err != nil {
		return nil, fmt.Errorf("core: subtree %v: %w", root, err)
	}
	return &ForestEntry{
		Root:   root,
		Leaves: leaves,
		Matrix: res.Matrix,
		Pairs:  pairs,
		Result: res,
	}, nil
}

// neighborPairs returns root's constraint pairs: the memoized list when
// an earlier generation under root built one, else inst's, which the
// first of concurrent builders publishes for every later one.
func (s *Server) neighborPairs(root loctree.NodeID, inst *Instance) []obf.Pair {
	if pairs, ok := s.pairs.Load(root); ok {
		return pairs.([]obf.Pair)
	}
	pairs, _ := s.pairs.LoadOrStore(root, inst.NeighborPairs())
	return pairs.([]obf.Pair)
}

// GenerateForest implements Algorithm 3: a matrix for every node at the
// privacy level, generated concurrently across the engine's worker pool.
func (s *Server) GenerateForest(privacyLevel, delta int) (*Forest, error) {
	return s.GenerateForestCtx(context.Background(), privacyLevel, delta)
}

// GenerateForestCtx is GenerateForest with cancellation: the first subtree
// error (or ctx expiry) cancels the remaining solves.
func (s *Server) GenerateForestCtx(ctx context.Context, privacyLevel, delta int) (*Forest, error) {
	if privacyLevel < 1 || privacyLevel > s.tree.Height() {
		return nil, fmt.Errorf("core: %w: %d outside [1,%d]", ErrPrivacyLevel, privacyLevel, s.tree.Height())
	}
	nodes := s.tree.LevelNodes(privacyLevel)
	if err := checkDelta(delta, len(s.tree.LeavesUnder(nodes[0]))); err != nil {
		return nil, err
	}
	keys := make([]forestKey, len(nodes))
	for i, node := range nodes {
		keys[i] = forestKey{node: node, delta: delta}
	}
	got, err := s.engine.forest(ctx, keys)
	if err != nil {
		return nil, err
	}
	forest := &Forest{
		PrivacyLevel: privacyLevel,
		Delta:        delta,
		Entries:      make(map[loctree.NodeID]*ForestEntry, len(keys)),
	}
	for i, key := range keys {
		forest.Entries[key.node] = got[i]
	}
	// Write the completed forest back to the durable store asynchronously.
	// got is the assembled forest itself, so cache eviction racing the
	// write cannot truncate the snapshot; write-backs dedupe per (level,
	// delta) inside the engine.
	s.engine.persistAsync(privacyLevel, delta, got)
	return forest, nil
}

// HydrateFromStore preloads every snapshot the configured store holds into
// the entry cache and returns the number of entries loaded. A server
// restarted over a populated store (or bootstrapped by the registry with
// one attached) serves its first forest request for every precomputed
// (level, delta) with zero LP solves. Without a store it is a no-op.
func (s *Server) HydrateFromStore(ctx context.Context) (int, error) {
	return s.engine.hydrate(ctx)
}

// FlushStore blocks until every asynchronous store write-back started so
// far has finished. Call before process exit so freshly solved forests are
// durable.
func (s *Server) FlushStore() { s.engine.flushStore() }

// Warmup precomputes every (level, delta) combination for privacy levels
// 1..Height and deltas 0..maxDelta, filling the cache before traffic
// arrives. All combinations fan out concurrently — the engine's worker-pool
// semaphore still bounds real solve parallelism, and warm-started bases
// inside each generation keep the individual solves short — so total warmup
// time approaches the critical path of the slowest subtree rather than the
// sum over levels. A level whose subtrees have maxDelta leaves or fewer
// warms only the deltas below its leaf count (see checkDelta). The first
// error cancels the remaining forests. Entries evicted by the byte bound
// are simply regenerated on demand later.
func (s *Server) Warmup(ctx context.Context, maxDelta int) error {
	if maxDelta < 0 {
		return fmt.Errorf("core: warmup delta must be >= 0, got %d", maxDelta)
	}
	var forests []StoredForestRef
	for level := 1; level <= s.tree.Height(); level++ {
		k := len(s.tree.LeavesUnder(s.tree.LevelNodes(level)[0]))
		for delta := 0; delta <= maxDelta && delta < k; delta++ {
			forests = append(forests, StoredForestRef{Level: level, Delta: delta})
		}
	}
	return flight.FanOut(ctx, len(forests), len(forests), func(ctx context.Context, i int) error {
		f := forests[i]
		if _, err := s.GenerateForestCtx(ctx, f.Level, f.Delta); err != nil {
			return fmt.Errorf("core: warmup level %d delta %d: %w", f.Level, f.Delta, err)
		}
		return nil
	})
}
