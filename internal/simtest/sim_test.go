package simtest

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The seed range CI runs, under the race detector too.
const ciSeedFirst, ciSeedLast = 1, 16

// maxShrinkRuns bounds how many runs shrinking a failure may take.
const maxShrinkRuns = 40

// simulate runs sched and fails t with the first broken invariant and the
// schedule, shrunk by dropping steps while it still fails.
func simulate(t *testing.T, sched []step) *outcome {
	t.Helper()
	out, err := run(t, sched)
	if err == nil {
		return out
	}
	shrunk, serr := shrink(t, sched, err)
	t.Fatalf("%v\n\nthe schedule, shrunk from %d to %d steps; saved under internal/simtest/testdata/NAME.sched it replays as TestSimRegressions/NAME:\n%s\nthe shrunk schedule fails with: %v",
		err, len(sched), len(shrunk), format(shrunk), serr)
	return nil
}

// shrink drops ever smaller runs of steps from sched while what is left
// still fails, and returns it with its failure.
func shrink(t *testing.T, sched []step, err error) ([]step, error) {
	runs := 0
	for n := len(sched) / 2; n >= 1; n /= 2 {
		for i := 0; i+n <= len(sched); {
			// A run that failed may leave goroutines behind for a while;
			// the next one must not count them as its own.
			if runs++; runs > maxShrinkRuns || leftGoroutines(100000) != nil {
				return sched, err
			}
			cand := append(append([]step(nil), sched[:i]...), sched[i+n:]...)
			if _, cerr := run(t, cand); cerr != nil {
				sched, err = cand, cerr
				continue
			}
			i += n
		}
	}
	return sched, err
}

// TestSim runs the CI seed range. Each seed's schedule drives three nodes
// through every disruption the simulator has, and after every barrier:
//   - every draw lies in its ask's privacy subtree at its precision level,
//     every stream the schedule did not disturb draws what the reference
//     registry, fresh for it, draws for the same asks, and every forest a
//     node serves holds the reference's rows;
//   - no user is granted more ε than the cap in any window, except across
//     the losses ROADMAP item 3 mends (TestSimKnownOverspend), and every
//     budget handoff is imported once or rolled back;
//   - after the last shutdown no goroutine stands in the serving stack.
func TestSim(t *testing.T) {
	compared := 0
	for seed := int64(ciSeedFirst); seed <= ciSeedLast; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			out := simulate(t, generate(seed))
			t.Logf("%d draws held to the reference; users %v over-spent across a loss; %d leased asks hit a stale prune set",
				out.compared, out.known, out.leasePruned)
			compared += out.compared
		})
	}
	if compared == 0 && !t.Failed() {
		t.Fatal("no draw was held to the reference")
	}
}

// TestSimKnownOverspend pins the over-spend ROADMAP item 3 mends instead
// of skipping it: an accountant that evicts a user forgets its unexpired
// spend, and a restarted node starts with empty windows, so a user whose
// window spans either can be granted more than its cap. The CI seeds show
// such a user, and no user whose window spans neither over-spends. Item 3
// turns this test around: once spend survives eviction and restart, the
// simulator exempts nobody and this test asserts that none over-spends.
func TestSimKnownOverspend(t *testing.T) {
	for seed := int64(ciSeedFirst); seed <= ciSeedLast; seed++ {
		if out := simulate(t, generate(seed)); len(out.known) > 0 {
			t.Logf("seed %d: users %v over-spent across an eviction or a restart", seed, out.known)
			return
		}
	}
	t.Fatalf("no seed in %d..%d over-spends across an eviction or a restart", ciSeedFirst, ciSeedLast)
}

// TestSimRegressions replays every schedule under testdata, each a
// failure the simulator once found, as a subtest named by its file.
func TestSimRegressions(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.sched"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no schedule under testdata")
	}
	for _, f := range files {
		t.Run(strings.TrimSuffix(filepath.Base(f), ".sched"), func(t *testing.T) {
			text, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			sched, err := parse(string(text))
			if err != nil {
				t.Fatal(err)
			}
			simulate(t, sched)
		})
	}
}

// TestScheduleRoundTrip: a generated schedule formats to lines that parse
// back to it, and one seed always makes the same schedule.
func TestScheduleRoundTrip(t *testing.T) {
	for seed := int64(ciSeedFirst); seed <= ciSeedLast; seed++ {
		sched := generate(seed)
		back, err := parse(format(sched))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if format(back) != format(sched) || format(generate(seed)) != format(sched) {
			t.Fatalf("seed %d: the schedule does not round-trip:\n%s", seed, format(sched))
		}
	}
}
