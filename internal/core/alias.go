package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"corgi/internal/sample"
)

// aliasMetrics aggregates the engine-wide alias-table counters: lazy
// builds, reuse hits, and the resident bytes of tables attached to cached
// entries. The entry cache attaches one shared instance to every entry it
// admits and detaches it (subtracting the entry's table bytes) on
// eviction, so AliasBytes tracks exactly the tables the LRU still pins.
//
// enforce, when set (by the owning cache, before the engine is shared),
// re-checks the cache's byte bound; every table build invokes it so a
// report-heavy steady state — where no new admissions would otherwise run
// the eviction loop — still cannot grow past the configured capacity.
type aliasMetrics struct {
	builds  atomic.Uint64
	hits    atomic.Uint64
	bytes   atomic.Int64
	enforce func()
}

// aliasState is the lazily-built per-row alias-table cache of one forest
// entry. Tables build on first use of each row (a report session's fast
// path draws from only a handful of rows) under the entry mutex — the
// per-entry singleflight: concurrent first draws of one row share a single
// O(n) build. Eviction of the entry from the engine LRU drops the tables
// with it. The zero value is ready to use, so entries built by wire
// decoders work unchanged.
type aliasState struct {
	mu      sync.Mutex
	rows    []*sample.Alias
	bytes   int64
	metrics *aliasMetrics
}

func (s *aliasState) lock()   { s.mu.Lock() }
func (s *aliasState) unlock() { s.mu.Unlock() }

// AliasRow returns the O(1) alias sampler for matrix row i, building and
// caching it on first use. Concurrent callers for rows of the same entry
// serialize on the build; returned tables are immutable and safe for
// concurrent draws (each caller brings its own variate to Pick). Entries
// decoded from the wire work identically — they simply report no engine
// counters. A build on a cached entry re-checks the engine cache's byte
// bound (outside the entry lock: bound enforcement may evict and detach
// this very entry).
func (e *ForestEntry) AliasRow(i int) (*sample.Alias, error) {
	if e.Matrix == nil {
		return nil, fmt.Errorf("core: entry %v has no matrix", e.Root)
	}
	if i < 0 || i >= e.Matrix.Dim() {
		return nil, fmt.Errorf("core: alias row %d outside matrix dimension %d", i, e.Matrix.Dim())
	}
	e.alias.lock()
	if e.alias.rows == nil {
		e.alias.rows = make([]*sample.Alias, e.Matrix.Dim())
	}
	if a := e.alias.rows[i]; a != nil {
		if m := e.alias.metrics; m != nil {
			m.hits.Add(1)
		}
		e.alias.unlock()
		return a, nil
	}
	a, err := sample.New(e.Matrix.Row(i))
	if err != nil {
		e.alias.unlock()
		return nil, fmt.Errorf("core: alias for row %d of %v: %w", i, e.Root, err)
	}
	e.alias.rows[i] = a
	e.alias.bytes += a.SizeBytes()
	m := e.alias.metrics
	if m != nil {
		m.builds.Add(1)
		m.bytes.Add(a.SizeBytes())
	}
	e.alias.unlock()
	if m != nil && m.enforce != nil {
		m.enforce()
	}
	return a, nil
}

// attachAliasMetrics points the entry's alias cache at the engine
// counters. Called by the entry cache on admission.
func (e *ForestEntry) attachAliasMetrics(m *aliasMetrics) {
	e.alias.lock()
	defer e.alias.unlock()
	if e.alias.metrics == nil {
		e.alias.metrics = m
		// Tables built before admission (or on a previous admission cycle)
		// join the accounted footprint.
		m.bytes.Add(e.alias.bytes)
	}
}

// detachAliasMetrics removes the entry's tables from the engine byte
// accounting. Called by the entry cache on eviction; sessions still
// holding the entry keep drawing from the (now uncounted) tables.
func (e *ForestEntry) detachAliasMetrics() {
	e.alias.lock()
	defer e.alias.unlock()
	if m := e.alias.metrics; m != nil {
		m.bytes.Add(-e.alias.bytes)
		e.alias.metrics = nil
	}
}
