package budget

import (
	"errors"
	"testing"
	"time"

	"corgi/internal/clock"
)

// handoffPair builds two accountants (node A and node B) sharing a config
// and a controllable clock.
func handoffPair(t *testing.T, limit float64) (a, b *Accountant, clk *clock.Manual) {
	t.Helper()
	clk = clock.NewManual()
	var err error
	if a, err = NewAccountant(Config{LimitEps: limit, Window: time.Hour, Now: clk.Now}); err != nil {
		t.Fatal(err)
	}
	if b, err = NewAccountant(Config{LimitEps: limit, Window: time.Hour, Now: clk.Now}); err != nil {
		t.Fatal(err)
	}
	return a, b, clk
}

// TestHandoffMovesSpend: export moves the events out of A, import counts
// them on B, and the user's global spend is unchanged — the cap holds
// across the move with no double charge and no reset.
func TestHandoffMovesSpend(t *testing.T) {
	a, b, _ := handoffPair(t, 10)
	const uid = 42
	if _, err := a.Charge(uid, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Charge(uid, 2); err != nil {
		t.Fatal(err)
	}

	h := a.ExportHandoff(uid, "nodeA")
	if h == nil || h.Source != "nodeA" || h.Seq != 1 {
		t.Fatalf("export: %+v", h)
	}
	if got := h.Eps(); got != 5 {
		t.Fatalf("exported eps %v, want 5", got)
	}
	// The events left A's window immediately (move semantics).
	if spent := a.Spent(uid); spent != 0 {
		t.Fatalf("A still counts %v after export", spent)
	}

	applied, ok := b.ImportHandoff(uid, h)
	if !ok || applied != 5 {
		t.Fatalf("import applied %v ok=%v", applied, ok)
	}
	a.CommitHandoff(uid, h.Seq)
	// The cap now binds on B: 5 handed off + 5 fresh = the full limit,
	// and the next charge is refused.
	if rem, err := b.Charge(uid, 5); err != nil || rem != 0 {
		t.Fatalf("B's fresh charge of 5 leaves %v (%v), want 0", rem, err)
	}
	if _, err := b.Charge(uid, 1); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("over-cap charge after handoff: %v", err)
	}
}

// TestHandoffRollback: a failed forward restores the exported spend, so a
// user cannot mint budget by triggering transport failures.
func TestHandoffRollback(t *testing.T) {
	a, _, _ := handoffPair(t, 10)
	const uid = 7
	if _, err := a.Charge(uid, 6); err != nil {
		t.Fatal(err)
	}
	h := a.ExportHandoff(uid, "nodeA")
	if h == nil {
		t.Fatal("no handoff")
	}
	a.RollbackHandoff(uid, h.Seq)
	if spent := a.Spent(uid); spent != 6 {
		t.Fatalf("spend after rollback %v, want 6", spent)
	}
	// Rollback is idempotent; a second call must not double the spend.
	a.RollbackHandoff(uid, h.Seq)
	if spent := a.Spent(uid); spent != 6 {
		t.Fatalf("spend after duplicate rollback %v, want 6", spent)
	}
	if st := a.Stats(); st.HandoffsRolledBack != 1 {
		t.Fatalf("rollback counter %d", st.HandoffsRolledBack)
	}
}

// TestHandoffDedupe: redelivering the same handoff (same source+seq)
// applies once — the watermark makes forward retries safe.
func TestHandoffDedupe(t *testing.T) {
	a, b, _ := handoffPair(t, 10)
	const uid = 9
	if _, err := a.Charge(uid, 4); err != nil {
		t.Fatal(err)
	}
	h := a.ExportHandoff(uid, "nodeA")
	if applied, ok := b.ImportHandoff(uid, h); !ok || applied != 4 {
		t.Fatalf("first import: %v %v", applied, ok)
	}
	if _, ok := b.ImportHandoff(uid, h); ok {
		t.Fatal("duplicate import applied")
	}
	if spent := b.Spent(uid); spent != 4 {
		t.Fatalf("spend after duplicate delivery %v, want 4", spent)
	}
	if st := b.Stats(); st.HandoffDupes != 1 || st.HandoffsImported != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// Distinct sources keep independent watermarks.
	h2 := &Handoff{Source: "nodeC", Seq: 1, Events: h.Events}
	if applied, ok := b.ImportHandoff(uid, h2); !ok || applied != 4 {
		t.Fatalf("import from second source: %v %v", applied, ok)
	}
	// nodeA's watermark is 1, not past it: its next export applies.
	h3 := &Handoff{Source: "nodeA", Seq: 2, Events: h.Events}
	if _, ok := b.ImportHandoff(uid, h3); !ok {
		t.Fatal("nodeA's second export ignored: watermark past 1")
	}
}

// TestHandoffExpiry: handoffs carry event timestamps, so imported spend
// slides out of the receiver's window exactly when it would have expired
// on the exporter.
func TestHandoffExpiry(t *testing.T) {
	a, b, clk := handoffPair(t, 10)
	const uid = 3
	if _, err := a.Charge(uid, 5); err != nil {
		t.Fatal(err)
	}
	h := a.ExportHandoff(uid, "nodeA")
	clk.Advance(30 * time.Minute)
	if applied, ok := b.ImportHandoff(uid, h); !ok || applied != 5 {
		t.Fatalf("mid-window import: %v %v", applied, ok)
	}
	if spent := b.Spent(uid); spent != 5 {
		t.Fatalf("spend mid-window %v", spent)
	}
	clk.Advance(31 * time.Minute) // past the 1h window from charge time
	if spent := b.Spent(uid); spent != 0 {
		t.Fatalf("imported spend did not expire: %v", spent)
	}

	// A handoff whose events are all already expired imports as zero.
	if _, err := a.Charge(uid, 2); err != nil {
		t.Fatal(err)
	}
	h2 := a.ExportHandoff(uid, "nodeA")
	clk.Advance(2 * time.Hour)
	if applied, ok := b.ImportHandoff(uid, h2); !ok || applied != 0 {
		t.Fatalf("expired import applied %v ok=%v", applied, ok)
	}
}

// TestHandoffNothingToExport: a user with no live spend produces no
// handoff — the forward path stays zero-overhead for fresh users.
func TestHandoffNothingToExport(t *testing.T) {
	a, _, clk := handoffPair(t, 10)
	if h := a.ExportHandoff(1, "nodeA"); h != nil {
		t.Fatalf("export for untouched user: %+v", h)
	}
	if _, err := a.Charge(1, 2); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Hour)
	if h := a.ExportHandoff(1, "nodeA"); h != nil {
		t.Fatalf("export of fully expired spend: %+v", h)
	}
}
