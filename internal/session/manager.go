package session

import (
	"container/list"
	"sync"
)

// DefaultCap bounds a Manager's live session count when the configured cap
// is not positive. Sessions are small (a few cached alias rows each), so
// the default leans generous.
const DefaultCap = 4096

// Stats is a point-in-time snapshot of one manager's counters.
type Stats struct {
	// Active is the number of sessions currently resident.
	Active int `json:"active"`
	// Cap is the configured bound.
	Cap int `json:"cap"`
	// Created counts sessions built (misses); Hits counts lookups served
	// by a resident session; Evicted counts LRU evictions.
	Created uint64 `json:"created"`
	Hits    uint64 `json:"hits"`
	Evicted uint64 `json:"evicted"`
	// Draws totals the reports drawn through every session the manager has
	// admitted: resident sessions' live counters plus the counts drained
	// from sessions at eviction (and from discarded admission-race
	// losers). The total is monotone — an LRU eviction can never make the
	// fleet-wide draw counter go backwards.
	Draws uint64 `json:"draws"`
	// Reanchors totals mobility re-anchors the same way (resident live
	// counters plus drained).
	Reanchors uint64 `json:"reanchors"`
}

// Merge accumulates o into s, for fleet-wide aggregation across shards.
func (s *Stats) Merge(o Stats) {
	s.Active += o.Active
	s.Cap += o.Cap
	s.Created += o.Created
	s.Hits += o.Hits
	s.Evicted += o.Evicted
	s.Draws += o.Draws
	s.Reanchors += o.Reanchors
}

// Manager is a bounded LRU of live report sessions keyed by Key. A user's
// repeat reports hit their resident session — reusing its cached alias
// rows and advancing its RNG stream — while the bound keeps a server
// tracking millions of occasional users from holding a session for each.
type Manager struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used
	items   map[Key]*list.Element
	created uint64
	hits    uint64
	evicted uint64
	// drainedDraws / drainedReanchors accumulate the counters of sessions
	// that left the manager (evicted, or discarded after losing the
	// admission race), so Stats.Draws/Reanchors stay monotone instead of
	// dropping whenever the LRU sheds a busy session.
	drainedDraws     uint64
	drainedReanchors uint64
}

type managerItem struct {
	key  Key
	sess *Session
}

// NewManager returns a manager bounded to cap sessions (DefaultCap when
// cap <= 0).
func NewManager(cap int) *Manager {
	if cap <= 0 {
		cap = DefaultCap
	}
	return &Manager{
		cap:   cap,
		ll:    list.New(),
		items: map[Key]*list.Element{},
	}
}

// Get returns the resident session for key, if any, refreshing its
// recency. The report path probes it before doing any per-request
// preference evaluation or entry lookup: a warm user costs a map lookup,
// not an O(region) attribute pass.
func (m *Manager) Get(key Key) (*Session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.items[key]
	if !ok {
		return nil, false
	}
	m.ll.MoveToFront(el)
	m.hits++
	return el.Value.(*managerItem).sess, true
}

// GetOrCreate returns the resident session for key, or builds one with mk
// and admits it. mk runs outside the manager lock (it may generate alias
// state or evaluate preferences); when two callers race on the same new
// key, the first admission wins and the loser's session is discarded, so
// every caller draws from one shared stream.
func (m *Manager) GetOrCreate(key Key, mk func() (*Session, error)) (*Session, error) {
	m.mu.Lock()
	if el, ok := m.items[key]; ok {
		m.ll.MoveToFront(el)
		m.hits++
		m.mu.Unlock()
		return el.Value.(*managerItem).sess, nil
	}
	m.mu.Unlock()

	sess, err := mk()
	if err != nil {
		return nil, err
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.items[key]; ok {
		// Lost the admission race; the winner's stream is canonical. The
		// discarded loser has served nothing under the current contract
		// (mk just built it), so the drain is defensive — it keeps the
		// counter invariant ("every admitted-or-discarded session's counts
		// are reachable") true even if a future mk draws before admission.
		m.drainLocked(sess)
		m.ll.MoveToFront(el)
		m.hits++
		return el.Value.(*managerItem).sess, nil
	}
	m.created++
	el := m.ll.PushFront(&managerItem{key: key, sess: sess})
	m.items[key] = el
	for m.ll.Len() > m.cap {
		back := m.ll.Back()
		it := back.Value.(*managerItem)
		m.ll.Remove(back)
		delete(m.items, it.key)
		m.evicted++
		// Evicted sessions take their live counters with them; fold them
		// into the manager so /v1/stats draw totals never go backwards.
		m.drainLocked(it.sess)
	}
	return sess, nil
}

// drainLocked folds a departing session's counters into the manager.
// Caller holds m.mu.
func (m *Manager) drainLocked(s *Session) {
	m.drainedDraws += s.Draws()
	m.drainedReanchors += s.Reanchors()
}

// Stats snapshots the manager's counters. Draws and Reanchors cover every
// admitted session: resident sessions are summed live, departed sessions
// were drained into manager counters when they left.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Stats{
		Active:    m.ll.Len(),
		Cap:       m.cap,
		Created:   m.created,
		Hits:      m.hits,
		Evicted:   m.evicted,
		Draws:     m.drainedDraws,
		Reanchors: m.drainedReanchors,
	}
	for el := m.ll.Front(); el != nil; el = el.Next() {
		it := el.Value.(*managerItem)
		st.Draws += it.sess.Draws()
		st.Reanchors += it.sess.Reanchors()
	}
	return st
}
