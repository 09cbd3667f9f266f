package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultCacheBytes bounds the entry cache when EngineOptions.CacheBytes is
// unset: 256 MiB holds every (level, delta) combination of the paper's
// height-3 evaluation tree with room to spare.
const DefaultCacheBytes = 256 << 20

// StoredForestRef names one persisted forest: a (privacy level, delta)
// pair within a server's own region.
type StoredForestRef struct {
	Level, Delta int
}

// ForestStore is the engine's second tier: a durable home for completed
// forests that outlives the process. internal/store provides the on-disk
// implementation; the engine only assumes these semantics:
//
//   - Load returns the complete entry set of a previously saved (level,
//     delta) forest, or (nil, nil) when no usable snapshot exists — absent,
//     corrupt, and stale snapshots all look identical to the engine, which
//     simply falls through to compute.
//   - Save persists a complete level's entries; it must be atomic enough
//     that a concurrent Load never observes a partial forest.
//   - List enumerates the (level, delta) forests currently stored, for
//     warm-restart hydration.
type ForestStore interface {
	Load(ctx context.Context, level, delta int) ([]*ForestEntry, error)
	Save(ctx context.Context, level, delta int, entries []*ForestEntry) error
	List() ([]StoredForestRef, error)
}

// EngineOptions tunes the concurrent generation engine behind a Server.
type EngineOptions struct {
	// Workers bounds concurrent subtree LP solves. <= 0 uses GOMAXPROCS.
	Workers int
	// CacheBytes bounds the generated-entry LRU cache. <= 0 uses
	// DefaultCacheBytes.
	CacheBytes int64
	// Store, when non-nil, is the durable second tier: cache misses fall
	// through to it before solving, completed forests write back to it
	// asynchronously, and Server.HydrateFromStore preloads it into the
	// cache at startup.
	Store ForestStore
	// DegradedServing enables the planar-Laplace fast path on
	// Server.ServeEntryCtx: a request whose entry misses both the cache and
	// the store is answered immediately with a discretized planar-Laplace
	// fallback entry (same ε bound, lower utility) while the real LP solve
	// runs in the background and atomically replaces it on completion.
	DegradedServing bool
}

// EngineStats is a point-in-time snapshot of the engine's counters, exposed
// over /v1/stats by internal/proto.
type EngineStats struct {
	// Hits/Misses/Evictions describe the bounded entry cache.
	Hits      uint64 `json:"cache_hits"`
	Misses    uint64 `json:"cache_misses"`
	Evictions uint64 `json:"cache_evictions"`
	// CacheBytes/CacheEntries/CacheCapacity describe its current occupancy.
	CacheBytes    int64 `json:"cache_bytes"`
	CacheEntries  int   `json:"cache_entries"`
	CacheCapacity int64 `json:"cache_capacity_bytes"`
	// Solves counts completed subtree generations (LP solves actually run;
	// cache hits, store hits, and singleflight followers do not increment
	// it).
	Solves uint64 `json:"solves"`
	// InFlight is the number of subtree generations running right now.
	InFlight int64 `json:"in_flight"`
	// Workers is the configured solve-concurrency bound.
	Workers int `json:"workers"`
	// StoreHits/StoreMisses count snapshot lookups on the cache-miss path;
	// StoreWrites counts completed asynchronous write-backs; StoreHydrated
	// counts entries preloaded by HydrateFromStore. All zero when no store
	// is attached.
	StoreHits     uint64 `json:"store_hits"`
	StoreMisses   uint64 `json:"store_misses"`
	StoreWrites   uint64 `json:"store_writes"`
	StoreHydrated uint64 `json:"store_hydrated"`
	// AliasBuilds/AliasHits count lazy per-row alias-table constructions
	// and reuses on the report path; AliasBytes is the resident footprint
	// of tables attached to currently cached entries (eviction subtracts).
	AliasBuilds uint64 `json:"alias_builds"`
	AliasHits   uint64 `json:"alias_hits"`
	AliasBytes  int64  `json:"alias_bytes"`
	// DegradedBuilds counts planar-Laplace fallback entries built on the
	// fast path; DegradedHits counts requests served from a cached fallback
	// while its real solve was still running; DegradedUpgrades counts
	// background solves that completed and replaced a fallback with the
	// optimal entry. All zero unless DegradedServing is enabled.
	DegradedBuilds   uint64 `json:"degraded_builds"`
	DegradedHits     uint64 `json:"degraded_hits"`
	DegradedUpgrades uint64 `json:"degraded_upgrades"`
	// WarmAttempts/WarmAccepts aggregate the simplex warm-start counters of
	// every generation run by this engine (see Result.WarmAttempts).
	WarmAttempts uint64 `json:"warm_attempts"`
	WarmAccepts  uint64 `json:"warm_accepts"`
}

// Merge accumulates o into s. The multi-region registry uses it to fold
// per-shard engine counters into one aggregate view: counters and byte
// figures add, and Workers/CacheCapacity become fleet-wide totals rather
// than per-shard bounds.
func (s *EngineStats) Merge(o EngineStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.CacheBytes += o.CacheBytes
	s.CacheEntries += o.CacheEntries
	s.CacheCapacity += o.CacheCapacity
	s.Solves += o.Solves
	s.InFlight += o.InFlight
	s.Workers += o.Workers
	s.StoreHits += o.StoreHits
	s.StoreMisses += o.StoreMisses
	s.StoreWrites += o.StoreWrites
	s.StoreHydrated += o.StoreHydrated
	s.AliasBuilds += o.AliasBuilds
	s.AliasHits += o.AliasHits
	s.AliasBytes += o.AliasBytes
	s.DegradedBuilds += o.DegradedBuilds
	s.DegradedHits += o.DegradedHits
	s.DegradedUpgrades += o.DegradedUpgrades
	s.WarmAttempts += o.WarmAttempts
	s.WarmAccepts += o.WarmAccepts
}

// engine is the concurrent forest-generation core: a semaphore-bounded
// worker pool over independent subtree solves (each subtree's matrix is
// independent, Algorithm 3), per-key singleflight so concurrent requests for
// the same (node, delta) share one LP solve, and a two-tier read path over
// finished entries — a byte-bounded in-memory LRU backed by an optional
// durable snapshot store consulted before any solve runs.
type engine struct {
	workers int
	sem     chan struct{}
	cache   *entryCache
	store   ForestStore

	mu     sync.Mutex
	flight map[forestKey]*flightCall

	// storeMu guards the snapshot-load singleflight and the set of (level,
	// delta) forests known to be persisted (or being persisted), which
	// dedupes write-backs.
	storeMu     sync.Mutex
	storeFlight map[StoredForestRef]*storeCall
	persisted   map[StoredForestRef]bool
	writeWG     sync.WaitGroup

	// upMu guards the set of keys with a background optimal solve running;
	// upgradeWG lets tests and shutdown wait for upgrades to land.
	upMu      sync.Mutex
	upgrading map[forestKey]bool
	upgradeWG sync.WaitGroup

	solves           atomic.Uint64
	inFlight         atomic.Int64
	storeHits        atomic.Uint64
	storeMisses      atomic.Uint64
	storeWrites      atomic.Uint64
	storeHydrated    atomic.Uint64
	degradedBuilds   atomic.Uint64
	degradedHits     atomic.Uint64
	degradedUpgrades atomic.Uint64
	warmAttempts     atomic.Uint64
	warmAccepts      atomic.Uint64

	// alias aggregates the per-row alias-table counters of every cached
	// entry (builds, reuse hits, resident bytes); the entry cache attaches
	// it on admission and detaches on eviction.
	alias aliasMetrics

	// generate runs one uncached subtree solve; wired to Server.generate.
	generate func(ctx context.Context, root forestKey) (*ForestEntry, error)
	// fallback builds a degraded (planar-Laplace) entry in milliseconds;
	// nil unless EngineOptions.DegradedServing is set. Wired to
	// Server.fallbackEntry (core.PlanarEntry).
	fallback func(ctx context.Context, root forestKey) (*ForestEntry, error)
}

// flightCall is one in-progress generation that concurrent requesters for
// the same key wait on instead of solving again.
type flightCall struct {
	done  chan struct{}
	entry *ForestEntry
	err   error
}

// storeCall is one in-progress snapshot load that concurrent cache misses
// for sibling keys of the same (level, delta) forest wait on instead of
// re-reading the file.
type storeCall struct {
	done chan struct{}
	// entries is what the load returned, set before done closes. Waiters
	// take their entry from here, not from the cache: a cache smaller than
	// the forest has evicted early siblings by the time the load finishes.
	entries []*ForestEntry
}

func newEngine(opts EngineOptions, generate func(context.Context, forestKey) (*ForestEntry, error)) *engine {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	capacity := opts.CacheBytes
	if capacity <= 0 {
		capacity = DefaultCacheBytes
	}
	en := &engine{
		workers:     workers,
		sem:         make(chan struct{}, workers),
		store:       opts.Store,
		flight:      map[forestKey]*flightCall{},
		storeFlight: map[StoredForestRef]*storeCall{},
		persisted:   map[StoredForestRef]bool{},
		upgrading:   map[forestKey]bool{},
		generate:    generate,
	}
	en.cache = newEntryCache(capacity, &en.alias)
	return en
}

// entry returns the forest entry for key, consulting the cache, then joining
// any in-flight solve for the same key, then solving under the worker-pool
// semaphore. A waiter whose own context expires abandons the wait. A solve
// runs under its leader's context, so a follower that inherits the leader's
// cancellation (the leader's client disconnected or timed out) retries with
// its own, still-healthy context instead of failing.
func (en *engine) entry(ctx context.Context, key forestKey) (*ForestEntry, error) {
	for {
		e, err := en.entryOnce(ctx, key)
		if err != nil && ctx.Err() == nil &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			continue
		}
		return e, err
	}
}

func (en *engine) entryOnce(ctx context.Context, key forestKey) (*ForestEntry, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// A cached degraded fallback does not satisfy the real path: fall
	// through to the solve, whose published result replaces the fallback.
	if e, ok := en.cache.get(key); ok && !e.Degraded {
		return e, nil
	}
	en.mu.Lock()
	if call, ok := en.flight[key]; ok {
		en.mu.Unlock()
		select {
		case <-call.done:
			return call.entry, call.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	call := &flightCall{done: make(chan struct{})}
	en.flight[key] = call
	en.mu.Unlock()

	call.entry, call.err = en.solve(ctx, key)
	en.mu.Lock()
	delete(en.flight, key)
	en.mu.Unlock()
	close(call.done)
	return call.entry, call.err
}

// solve resolves one cache miss under the worker-pool semaphore: first a
// re-check of the cache (a sibling's snapshot load may have filled it while
// this key queued for a slot), then the durable store, then a real LP
// solve whose result is published to the cache.
func (en *engine) solve(ctx context.Context, key forestKey) (*ForestEntry, error) {
	select {
	case en.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-en.sem }()

	if e, ok := en.cache.peek(key); ok && !e.Degraded {
		return e, nil
	}
	if en.store != nil {
		if e, ok := en.storeFetch(ctx, key); ok {
			return e, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}

	en.inFlight.Add(1)
	defer en.inFlight.Add(-1)
	e, err := en.generate(ctx, key)
	if err != nil {
		return nil, err
	}
	en.solves.Add(1)
	if e.Result != nil {
		en.warmAttempts.Add(uint64(e.Result.WarmAttempts))
		en.warmAccepts.Add(uint64(e.Result.WarmAccepts))
	}
	en.cache.add(key, e)
	return e, nil
}

// entryFast is the degraded-serving read path: any cached entry (optimal or
// fallback) answers immediately; a full miss is answered with a freshly
// built planar-Laplace fallback in milliseconds while the real LP solve is
// kicked off in the background. Without a configured fallback it is exactly
// entry. Store snapshots still short-circuit the fallback — a stored forest
// loads in milliseconds too and is optimal.
func (en *engine) entryFast(ctx context.Context, key forestKey) (*ForestEntry, error) {
	if en.fallback == nil {
		return en.entry(ctx, key)
	}
	if e, ok := en.cache.get(key); ok {
		if e.Degraded {
			en.degradedHits.Add(1)
			en.startUpgrade(key) // retried here in case an earlier upgrade failed
		}
		return e, nil
	}
	if en.store != nil {
		if e, ok := en.storeFetch(ctx, key); ok {
			return e, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	e, err := en.fallback(ctx, key)
	if err != nil {
		return nil, err
	}
	en.degradedBuilds.Add(1)
	en.cache.add(key, e)
	en.startUpgrade(key)
	// The add may have lost the race with a concurrent optimal publication;
	// serve whatever the cache settled on.
	if cur, ok := en.cache.peek(key); ok {
		return cur, nil
	}
	return e, nil
}

// startUpgrade launches (at most one) background optimal solve for key. The
// solve runs detached from the triggering request's context — the optimal
// entry is wanted regardless of whether that client sticks around — and its
// publication replaces the cached fallback via the cache's degraded-swap
// rule. Resident sessions pick the optimal entry up on their next report.
func (en *engine) startUpgrade(key forestKey) {
	en.upMu.Lock()
	if en.upgrading[key] {
		en.upMu.Unlock()
		return
	}
	en.upgrading[key] = true
	en.upMu.Unlock()
	en.upgradeWG.Add(1)
	go func() {
		defer en.upgradeWG.Done()
		_, err := en.entry(context.Background(), key)
		en.upMu.Lock()
		delete(en.upgrading, key)
		en.upMu.Unlock()
		if err == nil {
			en.degradedUpgrades.Add(1)
		}
	}()
}

// waitUpgrades blocks until every background upgrade started so far has
// finished (successfully or not).
func (en *engine) waitUpgrades() { en.upgradeWG.Wait() }

// storeFetch consults the durable store for the forest containing key.
// Snapshot files hold whole (level, delta) forests, so a hit publishes
// every sibling entry to the cache at once; concurrent misses for siblings
// of the same forest share one file read (per-forest singleflight).
func (en *engine) storeFetch(ctx context.Context, key forestKey) (*ForestEntry, bool) {
	ref := StoredForestRef{Level: key.node.Level, Delta: key.delta}
	en.storeMu.Lock()
	if call, ok := en.storeFlight[ref]; ok {
		en.storeMu.Unlock()
		select {
		case <-call.done:
		case <-ctx.Done():
			return nil, false
		}
		for _, e := range call.entries {
			if e.Root == key.node {
				return e, true
			}
		}
		return nil, false
	}
	// A load that finished between the caller's cache miss and this point
	// published its entries before it left storeFlight: serve from them
	// rather than read the snapshot again. (Skip a degraded fallback a
	// concurrent fast path may have slipped in: a snapshot hit is always
	// optimal.)
	if e, ok := en.cache.peek(key); ok && !e.Degraded {
		en.storeMu.Unlock()
		return e, true
	}
	call := &storeCall{done: make(chan struct{})}
	en.storeFlight[ref] = call
	en.storeMu.Unlock()

	var hit *ForestEntry
	entries, err := en.store.Load(ctx, ref.Level, ref.Delta)
	if err == nil && len(entries) > 0 {
		en.storeHits.Add(1)
		en.markPersisted(ref)
		call.entries = entries
		for _, e := range entries {
			k := forestKey{node: e.Root, delta: ref.Delta}
			en.cache.add(k, e)
			if k == key {
				hit = e
			}
		}
	} else {
		en.storeMisses.Add(1)
	}
	en.storeMu.Lock()
	delete(en.storeFlight, ref)
	en.storeMu.Unlock()
	close(call.done)
	return hit, hit != nil
}

// markPersisted records that ref is durably stored (or being stored).
func (en *engine) markPersisted(ref StoredForestRef) {
	en.storeMu.Lock()
	en.persisted[ref] = true
	en.storeMu.Unlock()
}

// persistAsync writes a completed forest back to the durable store without
// blocking the request that generated it. Write-backs dedupe on (level,
// delta): the first completed forest claims the slot, and a failed write
// releases it so a later request can retry. The entries slice is the
// assembled forest itself — not a cache read — so LRU eviction racing the
// write can never truncate the snapshot.
func (en *engine) persistAsync(level, delta int, entries []*ForestEntry) {
	if en.store == nil || len(entries) == 0 {
		return
	}
	// Never persist a degraded fallback: snapshots are a durable tier and
	// must only ever hold LP-optimal matrices. (Forest assembly uses the
	// real path, so this only fires on a logic regression.)
	for _, e := range entries {
		if e.Degraded {
			return
		}
	}
	ref := StoredForestRef{Level: level, Delta: delta}
	en.storeMu.Lock()
	if en.persisted[ref] {
		en.storeMu.Unlock()
		return
	}
	en.persisted[ref] = true
	en.storeMu.Unlock()

	en.writeWG.Add(1)
	go func() {
		defer en.writeWG.Done()
		// Detached from any request context: the snapshot outlives the
		// request that happened to complete the forest first.
		if err := en.store.Save(context.Background(), level, delta, entries); err != nil {
			en.storeMu.Lock()
			delete(en.persisted, ref)
			en.storeMu.Unlock()
			return
		}
		en.storeWrites.Add(1)
	}()
}

// flushStore blocks until every write-back started so far has finished.
func (en *engine) flushStore() { en.writeWG.Wait() }

// hydrate preloads every stored forest into the entry cache, so a restarted
// process serves its first request for any precomputed (level, delta) with
// zero LP solves. Unreadable or corrupt snapshots are skipped (the adapter
// already reports them as absent); the cache's byte bound still applies, so
// hydrating more than the cache holds simply evicts the coldest entries.
func (en *engine) hydrate(ctx context.Context) (int, error) {
	if en.store == nil {
		return 0, nil
	}
	refs, err := en.store.List()
	if err != nil {
		return 0, err
	}
	loaded := 0
	for _, ref := range refs {
		if err := ctx.Err(); err != nil {
			return loaded, err
		}
		entries, err := en.store.Load(ctx, ref.Level, ref.Delta)
		if err != nil || len(entries) == 0 {
			continue
		}
		en.markPersisted(ref)
		for _, e := range entries {
			en.cache.add(forestKey{node: e.Root, delta: ref.Delta}, e)
		}
		loaded += len(entries)
		en.storeHydrated.Add(uint64(len(entries)))
	}
	return loaded, nil
}

// forest fans the privacy level's nodes out across the worker pool and
// assembles the result. The first error cancels the remaining solves.
func (en *engine) forest(ctx context.Context, keys []forestKey) (map[forestKey]*ForestEntry, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	out := make(map[forestKey]*ForestEntry, len(keys))
	for _, key := range keys {
		wg.Add(1)
		go func(key forestKey) {
			defer wg.Done()
			e, err := en.entry(ctx, key)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
					cancel()
				}
				return
			}
			out[key] = e
		}(key)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

func (en *engine) stats() EngineStats {
	cs := en.cache.stats()
	return EngineStats{
		Hits:             cs.hits,
		Misses:           cs.misses,
		Evictions:        cs.evictions,
		CacheBytes:       cs.bytes,
		CacheEntries:     cs.entries,
		CacheCapacity:    en.cache.capacity,
		Solves:           en.solves.Load(),
		InFlight:         en.inFlight.Load(),
		Workers:          en.workers,
		StoreHits:        en.storeHits.Load(),
		StoreMisses:      en.storeMisses.Load(),
		StoreWrites:      en.storeWrites.Load(),
		StoreHydrated:    en.storeHydrated.Load(),
		AliasBuilds:      en.alias.builds.Load(),
		AliasHits:        en.alias.hits.Load(),
		AliasBytes:       en.alias.bytes.Load(),
		DegradedBuilds:   en.degradedBuilds.Load(),
		DegradedHits:     en.degradedHits.Load(),
		DegradedUpgrades: en.degradedUpgrades.Load(),
		WarmAttempts:     en.warmAttempts.Load(),
		WarmAccepts:      en.warmAccepts.Load(),
	}
}
