package session

import (
	"fmt"
	"sync"
	"testing"

	"corgi/internal/policy"
)

func managerWorld(t *testing.T) func(seed int64) *Session {
	t.Helper()
	// Reuse the session test world via the testing.T plumbing.
	tree, entry, priors := testWorld(t, 2)
	return func(seed int64) *Session {
		s, err := New(Config{
			Tree: tree, Entry: entry, Delta: 0,
			Policy: policy.Policy{PrivacyLevel: 2}, Priors: priors, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
}

func TestManagerLRUAndStats(t *testing.T) {
	mk := managerWorld(t)
	m := NewManager(2)
	key := func(uid int64) Key { return Key{Region: "sf", UID: uid} }

	for uid := int64(0); uid < 3; uid++ {
		if _, err := m.GetOrCreate(key(uid), func() (*Session, error) { return mk(uid), nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.Active != 2 || st.Created != 3 || st.Evicted != 1 {
		t.Fatalf("stats after overflow: %+v", st)
	}
	// uid 0 was evicted; uids 1 and 2 are hits.
	calls := 0
	for uid := int64(1); uid <= 2; uid++ {
		if _, err := m.GetOrCreate(key(uid), func() (*Session, error) { calls++; return mk(uid), nil }); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 0 {
		t.Fatalf("resident sessions rebuilt %d times", calls)
	}
	if st := m.Stats(); st.Hits != 2 {
		t.Fatalf("hits = %d, want 2", st.Hits)
	}
}

func TestManagerLRUOrder(t *testing.T) {
	mk := managerWorld(t)
	m := NewManager(2)
	key := func(uid int64) Key { return Key{UID: uid} }
	for uid := int64(0); uid < 2; uid++ {
		uid := uid
		m.GetOrCreate(key(uid), func() (*Session, error) { return mk(uid), nil })
	}
	// Touch uid 0 so uid 1 is the cold end, then overflow.
	m.GetOrCreate(key(0), func() (*Session, error) { t.Fatal("rebuilt"); return nil, nil })
	m.GetOrCreate(key(2), func() (*Session, error) { return mk(2), nil })
	built := false
	m.GetOrCreate(key(0), func() (*Session, error) { built = true; return mk(0), nil })
	if built {
		t.Fatal("recently-used session was evicted")
	}
	m.GetOrCreate(key(1), func() (*Session, error) { built = true; return mk(1), nil })
	if !built {
		t.Fatal("cold-end session survived overflow")
	}
}

func TestManagerCreateError(t *testing.T) {
	m := NewManager(4)
	wantErr := fmt.Errorf("boom")
	if _, err := m.GetOrCreate(Key{UID: 1}, func() (*Session, error) { return nil, wantErr }); err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if st := m.Stats(); st.Active != 0 || st.Created != 0 {
		t.Fatalf("failed create left state: %+v", st)
	}
}

// TestManagerConcurrent races creators and readers; same-key racers must
// converge on one session.
func TestManagerConcurrent(t *testing.T) {
	mk := managerWorld(t)
	m := NewManager(64)
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		got  = map[int64]*Session{}
		fail bool
	)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for uid := int64(0); uid < 16; uid++ {
				uid := uid
				s, err := m.GetOrCreate(Key{UID: uid}, func() (*Session, error) { return mk(uid), nil })
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if prev, ok := got[uid]; ok && prev != s {
					fail = true
				}
				got[uid] = s
				mu.Unlock()
				if _, err := drawN(s, s.b.Source().SupportLeaves()[0], 1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if fail {
		t.Fatal("same key handed out distinct sessions")
	}
	if st := m.Stats(); st.Draws == 0 {
		t.Fatal("draw totals not aggregated")
	}
}

// TestManagerDrawsSurviveEviction pins the stats bugfix: fleet-wide draw
// and re-anchor totals must be monotone — an LRU eviction folds the
// departing session's counters into the manager instead of dropping them.
func TestManagerDrawsSurviveEviction(t *testing.T) {
	mk := managerWorld(t)
	m := NewManager(2)
	key := func(uid int64) Key { return Key{UID: uid} }

	for uid := int64(0); uid < 2; uid++ {
		s, err := m.GetOrCreate(key(uid), func() (*Session, error) { return mk(uid), nil })
		if err != nil {
			t.Fatal(err)
		}
		if _, err := drawN(s, s.b.Source().SupportLeaves()[0], 5); err != nil {
			t.Fatal(err)
		}
	}
	before := m.Stats()
	if before.Draws != 10 {
		t.Fatalf("draws before eviction = %d, want 10", before.Draws)
	}
	// Overflow the LRU: uid 0's session (5 draws) is evicted.
	if _, err := m.GetOrCreate(key(2), func() (*Session, error) { return mk(2), nil }); err != nil {
		t.Fatal(err)
	}
	after := m.Stats()
	if after.Evicted != 1 {
		t.Fatalf("evicted = %d, want 1", after.Evicted)
	}
	if after.Draws < before.Draws {
		t.Fatalf("draw total went backwards across eviction: %d -> %d", before.Draws, after.Draws)
	}
	if after.Draws != 10 {
		t.Fatalf("draws after eviction = %d, want 10 (evicted session's count retained)", after.Draws)
	}
}
