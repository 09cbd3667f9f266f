package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"corgi/internal/obf"
)

func testEntry(t *testing.T, n int) *ForestEntry {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, n)
		total := 0.0
		for j := range rows[i] {
			rows[i][j] = rng.Float64()
			total += rows[i][j]
		}
		for j := range rows[i] {
			rows[i][j] /= total
		}
	}
	m, err := obf.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return &ForestEntry{Matrix: m}
}

// TestAliasRowLazyAndCached: a row's table builds once and is reused, and
// the drawn distribution matches the matrix row.
func TestAliasRowLazyAndCached(t *testing.T) {
	e := testEntry(t, 8)
	a1, err := e.AliasRow(3)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := e.AliasRow(3)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Error("second AliasRow call rebuilt the table")
	}
	for j := 0; j < 8; j++ {
		if got, want := a1.Prob(j), e.Matrix.At(3, j); math.Abs(got-want) > 1e-12 {
			t.Fatalf("alias prob(%d) = %v, matrix says %v", j, got, want)
		}
	}
	if aliasBytesOf(e) == 0 {
		t.Error("built table not byte-accounted")
	}
	if _, err := e.AliasRow(99); err == nil {
		t.Error("out-of-range row accepted")
	}
	if _, err := (&ForestEntry{}).AliasRow(0); err == nil {
		t.Error("entry without matrix accepted")
	}
}

// TestAliasRowConcurrent hammers lazy builds from many goroutines under
// the race detector: every caller must get the same table per row.
func TestAliasRowConcurrent(t *testing.T) {
	e := testEntry(t, 16)
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		seen = map[int]interface{}{}
	)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				a, err := e.AliasRow(i)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if prev, ok := seen[i]; ok && prev != a {
					t.Errorf("row %d produced two distinct tables", i)
				}
				seen[i] = a
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// TestAliasMetricsEvictionAccounting: engine stats track builds/hits, and
// evicting an entry subtracts its alias bytes.
func TestAliasMetricsEvictionAccounting(t *testing.T) {
	var m aliasMetrics
	// Capacity fits exactly one of these entries plus its alias tables,
	// so adding a second evicts the first.
	e1, e2 := testEntry(t, 8), testEntry(t, 8)
	cache := newEntryCache(entrySizeBytes(e1)+256, &m)
	k1 := forestKey{delta: 1}
	k2 := forestKey{delta: 2}

	cache.add(k1, e1)
	if _, err := e1.AliasRow(0); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.AliasRow(0); err != nil {
		t.Fatal(err)
	}
	if got := m.builds.Load(); got != 1 {
		t.Fatalf("builds = %d, want 1", got)
	}
	if got := m.hits.Load(); got != 1 {
		t.Fatalf("hits = %d, want 1", got)
	}
	if got := m.bytes.Load(); got != aliasBytesOf(e1) {
		t.Fatalf("bytes = %d, want %d", got, aliasBytesOf(e1))
	}

	cache.add(k2, e2) // evicts e1
	if got := m.bytes.Load(); got != 0 {
		t.Fatalf("bytes after eviction = %d, want 0", got)
	}
	// The evicted entry keeps serving draws, just uncounted.
	if _, err := e1.AliasRow(1); err != nil {
		t.Fatal(err)
	}
	if got := m.bytes.Load(); got != 0 {
		t.Fatalf("evicted entry still accounted: %d bytes", got)
	}
	// Tables built before admission join the accounting when (re)admitted.
	var m2 aliasMetrics
	cache2 := newEntryCache(1<<20, &m2)
	cache2.add(k1, e1)
	if got := m2.bytes.Load(); got != aliasBytesOf(e1) {
		t.Fatalf("re-admitted bytes = %d, want %d", got, aliasBytesOf(e1))
	}
}

// TestAliasBuildEnforcesCacheBound: in a steady state with no new
// admissions, alias tables built on cached entries still trigger the
// eviction loop — the configured byte bound covers matrices plus tables.
func TestAliasBuildEnforcesCacheBound(t *testing.T) {
	var m aliasMetrics
	e := testEntry(t, 8)
	// Capacity admits the bare entry but not the entry plus one table.
	cache := newEntryCache(entrySizeBytes(e)+8, &m)
	cache.add(forestKey{delta: 1}, e)
	if st := cache.stats(); st.evictions != 0 {
		t.Fatalf("bare entry already evicted: %+v", st)
	}
	if _, err := e.AliasRow(0); err != nil {
		t.Fatal(err)
	}
	if st := cache.stats(); st.evictions != 1 || st.entries != 0 {
		t.Fatalf("alias build did not enforce the bound: %+v", st)
	}
	if got := m.bytes.Load(); got != 0 {
		t.Fatalf("evicted entry's alias bytes still accounted: %d", got)
	}
	// The detached entry still serves draws.
	if _, err := e.AliasRow(1); err != nil {
		t.Fatal(err)
	}
}

// TestEngineStatsAliasCounters: counters surface through Server.Stats and
// Merge adds them.
func TestEngineStatsAliasCounters(t *testing.T) {
	var a, b EngineStats
	a.AliasBuilds, a.AliasHits, a.AliasBytes = 2, 3, 100
	b.AliasBuilds, b.AliasHits, b.AliasBytes = 1, 1, 50
	a.Merge(b)
	if a.AliasBuilds != 3 || a.AliasHits != 4 || a.AliasBytes != 150 {
		t.Fatalf("merged alias counters wrong: %+v", a)
	}
}

// aliasBytesOf reads the resident footprint of e's built tables.
func aliasBytesOf(e *ForestEntry) int64 {
	e.alias.lock()
	defer e.alias.unlock()
	return e.alias.bytes
}
