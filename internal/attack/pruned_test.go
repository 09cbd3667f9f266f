package attack

import (
	"math"
	"slices"
	"testing"

	"corgi/internal/core"
	"corgi/internal/geo"
	"corgi/internal/hexgrid"
)

// robustInstance generates a small robust matrix the way the serving
// engine does (graph-approximated Geo-Ind, Algorithm-1 robustness rounds)
// so the adversary audits the same artifact the report sessions sample
// from.
func robustInstance(t *testing.T, k, delta, iterations int) (*core.Instance, *core.Result, []hexgrid.Coord) {
	t.Helper()
	sys, err := hexgrid.NewSystem(geo.SanFrancisco.Center(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	var cells []hexgrid.Coord
	for r := 0; ; r++ {
		cells = hexgrid.Disk(hexgrid.Coord{}, r)
		if len(cells) >= k {
			break
		}
	}
	cells = cells[:k]
	priors := make([]float64, k)
	for i := range priors {
		priors[i] = 1
	}
	targets, probs, err := core.RandomCellTargets(sys, cells, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := core.NewInstance(sys, cells, priors, targets, probs, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.Generate(core.Params{
		Epsilon: 15, Delta: delta, Iterations: iterations,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst, res, cells
}

// TestPosteriorRatioBoundAfterPruning ties the robustness audit to the
// report-session path: a δ-prunable robust matrix, pruned by |S| <= δ
// locations and renormalized exactly as a session's row-wise customization
// does (Sec. 4.3), must still keep the adversary's posterior-to-prior odds
// shift within exp(eps*d) over the surviving constraint pairs (Equ. 2).
func TestPosteriorRatioBoundAfterPruning(t *testing.T) {
	const (
		eps   = 15.0
		delta = 2
	)
	inst, res, _ := robustInstance(t, 12, delta, 4)

	// Prune two cells — within the reserved budget.
	drop := []int{3, 7}
	pruned, keep, err := res.Matrix.Prune(drop)
	if err != nil {
		t.Fatal(err)
	}

	// The robust matrix must audit clean after this customization; the
	// posterior bound below is only meaningful against a clean audit.
	rep, err := res.Matrix.CheckGeoIndPruned(drop, inst.NeighborPairs(), eps, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total == 0 {
		t.Fatal("pruning removed every constraint pair")
	}
	if rep.Violated != 0 {
		t.Fatalf("robust matrix violates %d/%d constraints after pruning %d <= delta=%d locations (max excess %v)",
			rep.Violated, rep.Total, len(drop), delta, rep.MaxExcess)
	}
	// The longest surviving pair bounds the distances the adversary ranges
	// over below.
	maxDist := 0.0
	for _, p := range inst.NeighborPairs() {
		if !slices.Contains(drop, p.I) && !slices.Contains(drop, p.J) && p.Dist > maxDist {
			maxDist = p.Dist
		}
	}

	// Bayesian adversary over the pruned mechanism and the renormalized
	// prior restricted to surviving cells.
	dist := func(i, j int) float64 { return inst.Dist(keep[i], keep[j]) }
	adv, err := New(uniformPrior(len(keep)), pruned)
	if err != nil {
		t.Fatal(err)
	}
	// Only neighbor pairs sit within maxDist in a hex layout (the second
	// ring starts at ~sqrt(3) spacings), so Equ. 2's bound applies to
	// every pair the adversary ranges over.
	bound := adv.PosteriorRatioBound(dist, maxDist*1.0001)
	limit := math.Exp(eps * maxDist)
	if bound > limit*(1+1e-6) {
		t.Fatalf("posterior ratio bound %v exceeds exp(eps*maxDist) = %v after pruning", bound, limit)
	}
	if bound < 1 {
		t.Fatalf("degenerate ratio bound %v", bound)
	}

	// The non-robust baseline (delta = 0) pruned identically shows why the
	// budget matters: its realized leakage is at least the robust one and
	// typically breaches the limit (Fig. 12's comparison).
	_, res0, _ := robustInstance(t, 12, 0, 1)
	pruned0, _, err := res0.Matrix.Prune(drop)
	if err == nil {
		adv0, err := New(uniformPrior(len(keep)), pruned0)
		if err != nil {
			t.Fatal(err)
		}
		bound0 := adv0.PosteriorRatioBound(dist, maxDist*1.0001)
		t.Logf("posterior ratio bound: robust %.4f vs non-robust %.4f (limit %.4f)", bound, bound0, limit)
		if bound0 < bound*(1-1e-9) {
			t.Errorf("non-robust matrix leaks less (%v) than the robust one (%v) after pruning", bound0, bound)
		}
	}
}
