package budget

import (
	"errors"
	"sync"
	"testing"
	"time"

	"corgi/internal/clock"
)

func TestAccountantRejectsNonPositiveLimit(t *testing.T) {
	for _, limit := range []float64{0, -1} {
		if _, err := NewAccountant(Config{LimitEps: limit}); err == nil {
			t.Fatalf("LimitEps=%v: want error", limit)
		}
	}
}

// TestChargeBoundary pins the acceptance-criteria semantics: with
// limit = n*eps, exactly n draws are granted per window; draw n+1 is
// rejected with ErrBudgetExhausted and charges nothing.
func TestChargeBoundary(t *testing.T) {
	clk := clock.NewManual()
	const eps = 15.0
	a, err := NewAccountant(Config{LimitEps: 3 * eps, Window: time.Hour, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := a.Charge(7, eps); err != nil {
			t.Fatalf("charge %d: %v", i+1, err)
		}
		clk.Advance(time.Minute)
	}
	if _, err := a.Charge(7, eps); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("4th charge: want ErrBudgetExhausted, got %v", err)
	}
	if got := a.Spent(7); got != 3*eps {
		t.Fatalf("rejected charge changed spend: got %v, want %v", got, 3*eps)
	}
	st := a.Stats()
	if st.Charges != 3 || st.Rejections != 1 {
		t.Fatalf("stats: charges=%d rejections=%d, want 3/1", st.Charges, st.Rejections)
	}
	if st.EpsGranted != 3*eps {
		t.Fatalf("eps granted %v, want %v", st.EpsGranted, 3*eps)
	}
}

// TestWindowSlideRegeneratesBudget verifies spend expires as the window
// slides: the same user is rejected while saturated and granted again the
// moment their oldest spend leaves the window.
func TestWindowSlideRegeneratesBudget(t *testing.T) {
	clk := clock.NewManual()
	a, err := NewAccountant(Config{LimitEps: 2, Window: 10 * time.Minute, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Charge(1, 1); err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Minute)
	if _, err := a.Charge(1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Charge(1, 1); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("saturated user: want ErrBudgetExhausted, got %v", err)
	}
	// 10m after the first charge it leaves the window; one unit regenerates.
	clk.Advance(5*time.Minute + time.Second)
	if _, err := a.Charge(1, 1); err != nil {
		t.Fatalf("after slide: %v", err)
	}
	if _, err := a.Charge(1, 1); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("re-saturated user: want ErrBudgetExhausted, got %v", err)
	}
	// Once everything expires the user is back to a full budget.
	clk.Advance(11 * time.Minute)
	if got := a.Spent(1); got != 0 {
		t.Fatalf("spend after full expiry: %v, want 0", got)
	}
	if rem, err := a.Charge(1, 2); err != nil || rem != 0 {
		t.Fatalf("after full expiry a charge of the whole cap leaves %v (%v), want 0", rem, err)
	}
}

// TestChargeExactCapInclusive verifies a charge landing exactly on the cap
// is granted (the boundary is inclusive).
func TestChargeExactCapInclusive(t *testing.T) {
	clk := clock.NewManual()
	a, err := NewAccountant(Config{LimitEps: 5, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Charge(1, 5); err != nil {
		t.Fatalf("exact-cap charge rejected: %v", err)
	}
	if _, err := a.Charge(1, 0.0001); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("beyond-cap charge: want ErrBudgetExhausted, got %v", err)
	}
}

// TestRepeatedEqualChargesNoDrift guards the float tolerance: many equal
// charges summing exactly to the cap must all be granted.
func TestRepeatedEqualChargesNoDrift(t *testing.T) {
	clk := clock.NewManual()
	const eps = 0.1 // not exactly representable in binary
	a, err := NewAccountant(Config{LimitEps: 100 * eps, Window: time.Hour, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := a.Charge(1, eps); err != nil {
			t.Fatalf("charge %d: %v", i+1, err)
		}
		clk.Advance(time.Second)
	}
	if _, err := a.Charge(1, eps); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("101st charge: want ErrBudgetExhausted, got %v", err)
	}
}

func TestChargeRejectsNonPositiveEps(t *testing.T) {
	a, err := NewAccountant(Config{LimitEps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Charge(1, 0); err == nil || errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("zero charge: want a plain error, got %v", err)
	}
}

// TestUsersIndependent checks one user's saturation never affects another.
func TestUsersIndependent(t *testing.T) {
	clk := clock.NewManual()
	a, err := NewAccountant(Config{LimitEps: 1, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Charge(1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Charge(1, 1); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("user 1: want ErrBudgetExhausted, got %v", err)
	}
	if _, err := a.Charge(2, 1); err != nil {
		t.Fatalf("user 2 must be unaffected: %v", err)
	}
}

// TestCoalescingKeepsSpendLive verifies the resolution-bucketing path
// never expires merged spend before any of its charges would have expired
// exactly: a bucket is stamped at its interval's end, so expiry is at most
// Resolution late and never early.
func TestCoalescingKeepsSpendLive(t *testing.T) {
	clk := clock.NewManual()
	a, err := NewAccountant(Config{
		LimitEps: 10, Window: 10 * time.Second, Resolution: 5 * time.Second, Now: clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Charge(1, 1); err != nil { // t=0, bucket [0,5s) stamped 5s
		t.Fatal(err)
	}
	clk.Advance(4 * time.Second) // t=4s: same bucket, merges
	if _, err := a.Charge(1, 1); err != nil {
		t.Fatal(err)
	}
	// t=9s: 9s after the first charge, 5s after the second — both must be
	// live (the second charge's exact expiry is t=14s).
	clk.Advance(5 * time.Second)
	if got := a.Spent(1); got != 2 {
		t.Fatalf("bucketed spend expired early: live %v, want 2", got)
	}
	// The bucket stamp is t=5s, so the merged spend expires at t=15s —
	// within Resolution of the last charge's exact expiry, never before it.
	clk.Advance(5 * time.Second) // t=14s
	if got := a.Spent(1); got != 2 {
		t.Fatalf("bucketed spend expired before the last charge's exact expiry: live %v", got)
	}
	clk.Advance(time.Second + time.Millisecond) // t=15.001s
	if got := a.Spent(1); got != 0 {
		t.Fatalf("bucketed spend should be expired: live %v", got)
	}
}

// TestSustainedTrafficWindowSlides pins the fixed-stamp semantics: a
// steady sub-Resolution report stream must see old spend expire as the
// window slides. (A previous formulation rewrote the merged event's
// timestamp on every charge, so a sustained stream postponed its own
// expiry forever and hit a full-window lockout.)
func TestSustainedTrafficWindowSlides(t *testing.T) {
	clk := clock.NewManual()
	// 2 eps/s of steady spend against a 10s window: the sliding total is
	// ~20-22 eps (window + one bucket of slack), well under the 25 cap —
	// so a true sliding window grants every charge indefinitely.
	a, err := NewAccountant(Config{
		LimitEps: 25, Window: 10 * time.Second, Resolution: time.Second, Now: clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ { // 30s of charges every 500ms
		if _, err := a.Charge(1, 1); err != nil {
			t.Fatalf("charge %d (t=%.1fs) rejected — window not sliding: %v",
				i+1, float64(i)*0.5, err)
		}
		clk.Advance(500 * time.Millisecond)
	}
	// Live spend is bounded by rate x (window + resolution), not by the
	// 60-charge total.
	if got := a.Spent(1); got > 22 {
		t.Fatalf("live spend %v exceeds the sliding bound 22", got)
	}
}

// TestUserLRUBound verifies the tracked-user LRU evicts the least recently
// charged user, whose budget then resets.
func TestUserLRUBound(t *testing.T) {
	clk := clock.NewManual()
	a, err := NewAccountant(Config{LimitEps: 1, MaxUsers: 2, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Charge(1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Charge(2, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Charge(3, 1); err != nil { // evicts user 1
		t.Fatal(err)
	}
	st := a.Stats()
	if st.Users != 2 || st.EvictedUsers != 1 {
		t.Fatalf("users=%d evicted=%d, want 2/1", st.Users, st.EvictedUsers)
	}
	// User 1 was forgotten: a full budget again (the documented trade-off).
	if _, err := a.Charge(1, 1); err != nil {
		t.Fatalf("evicted user should reset: %v", err)
	}
	// User 3 is still tracked and saturated.
	if _, err := a.Charge(3, 1); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("tracked user 3: want ErrBudgetExhausted, got %v", err)
	}
}

// TestAccountantConcurrentCharges hammers one accountant from many
// goroutines; under -race this is the data-race stress, and the granted
// total must exactly match the cap accounting.
func TestAccountantConcurrentCharges(t *testing.T) {
	a, err := NewAccountant(Config{LimitEps: 50, Window: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const perWorker = 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				uid := int64(i % 4)
				_, err := a.Charge(uid, 1)
				if err != nil && !errors.Is(err, ErrBudgetExhausted) {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := a.Stats()
	if st.Charges+st.Rejections != workers*perWorker {
		t.Fatalf("charges+rejections = %d, want %d", st.Charges+st.Rejections, workers*perWorker)
	}
	// 4 users, cap 50 each, 200 attempts per user inside one window:
	// exactly 50 grants per user.
	if st.Charges != 4*50 {
		t.Fatalf("granted %d charges, want %d", st.Charges, 4*50)
	}
	for uid := int64(0); uid < 4; uid++ {
		var ex *ExhaustedError
		if _, err := a.Charge(uid, 1); !errors.As(err, &ex) || ex.Remaining != 0 {
			t.Fatalf("user %d: one more charge answered %v, want exhausted with 0 remaining", uid, err)
		}
	}
}

func TestStatsMerge(t *testing.T) {
	s := Stats{Users: 1, Cap: 10, LimitEps: 5, WindowS: 60, Charges: 2, Rejections: 1, EpsGranted: 10}
	s.Merge(Stats{Users: 2, Cap: 10, LimitEps: 5, WindowS: 60, Charges: 3, Rejections: 4, EpsGranted: 15, EvictedUsers: 2})
	want := Stats{Users: 3, Cap: 20, LimitEps: 5, WindowS: 60, Charges: 5, Rejections: 5, EpsGranted: 25, EvictedUsers: 2}
	if s != want {
		t.Fatalf("merge: got %+v, want %+v", s, want)
	}
}

// BenchmarkAccountantChargeManyUsers spreads charges over a large user
// pool, exercising the LRU admission path.
func BenchmarkAccountantChargeManyUsers(b *testing.B) {
	a, err := NewAccountant(Config{LimitEps: 1e12, Window: time.Hour, MaxUsers: 4096})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Charge(int64(i%8192), 1); err != nil {
			b.Fatal(err)
		}
	}
}
