package core

import (
	"math"
	"testing"

	"corgi/internal/geo"
	"corgi/internal/graphx"
	"corgi/internal/hexgrid"
	"corgi/internal/obf"
)

// buildInstance creates a K-cell instance over a hex disk with uniform
// priors and nTargets random targets.
func buildInstance(t testing.TB, k int, nTargets int, seed int64) *Instance {
	t.Helper()
	sys, err := hexgrid.NewSystem(geo.SanFrancisco.Center(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Smallest disk with >= k cells, truncated by ring order.
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
	targets, probs, err := RandomCellTargets(sys, cells, nTargets, seed)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(sys, cells, priors, targets, probs, graphx.WeightPaper)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestNewInstanceValidation(t *testing.T) {
	sys, _ := hexgrid.NewSystem(geo.SanFrancisco.Center(), 0.1)
	cells := hexgrid.Disk(hexgrid.Coord{}, 1)
	priors := []float64{1, 1, 1, 1, 1, 1, 1}
	tgt := []geo.LatLng{sys.Center(0, cells[0])}
	tp := []float64{1}
	if _, err := NewInstance(sys, cells[:1], priors[:1], tgt, tp, graphx.WeightPaper); err == nil {
		t.Error("single cell must fail")
	}
	if _, err := NewInstance(sys, cells, priors[:3], tgt, tp, graphx.WeightPaper); err == nil {
		t.Error("prior length mismatch must fail")
	}
	if _, err := NewInstance(sys, cells, priors, nil, nil, graphx.WeightPaper); err == nil {
		t.Error("no targets must fail")
	}
	if _, err := NewInstance(sys, cells, priors, tgt, []float64{1, 1}, graphx.WeightPaper); err == nil {
		t.Error("target prob mismatch must fail")
	}
	if _, err := NewInstance(sys, cells, []float64{1, 1, 1, 1, 1, 1, -1}, tgt, tp, graphx.WeightPaper); err == nil {
		t.Error("negative prior must fail")
	}
	// Disconnected cells.
	bad := []hexgrid.Coord{{Q: 0, R: 0}, {Q: 50, R: 50}}
	if _, err := NewInstance(sys, bad, []float64{1, 1}, tgt, tp, graphx.WeightPaper); err == nil {
		t.Error("disconnected cells must fail")
	}
}

func TestGenerateNonRobustSmall(t *testing.T) {
	inst := buildInstance(t, 7, 7, 1)
	res, err := inst.Generate(Params{Epsilon: 15, UseGraphApprox: true})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Matrix
	if err := m.CheckStochastic(1e-6); err != nil {
		t.Fatalf("not stochastic: %v", err)
	}
	// The generated matrix satisfies the constraints it was built with.
	rep := m.CheckGeoInd(inst.NeighborPairs(), 15, 1e-6)
	if rep.Violated != 0 {
		t.Fatalf("fresh matrix violates %d constraints (max %g)", rep.Violated, rep.MaxExcess)
	}
	if res.QualityLoss < 0 {
		t.Fatalf("negative quality loss %v", res.QualityLoss)
	}
	if len(res.Trace) != 1 {
		t.Fatalf("non-robust trace length %d", len(res.Trace))
	}
}

func TestGenerateParamValidation(t *testing.T) {
	inst := buildInstance(t, 7, 3, 2)
	if _, err := inst.Generate(Params{Epsilon: 0}); err == nil {
		t.Error("zero epsilon must fail")
	}
	if _, err := inst.Generate(Params{Epsilon: 15, Delta: -1}); err == nil {
		t.Error("negative delta must fail")
	}
	if _, err := inst.Generate(Params{Epsilon: 15, Delta: 2, Iterations: 0}); err == nil {
		t.Error("robust without iterations must fail")
	}
}

func TestGenerateRobustSmall(t *testing.T) {
	inst := buildInstance(t, 7, 7, 3)
	res, err := inst.Generate(Params{Epsilon: 15, Delta: 2, Iterations: 4, UseGraphApprox: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != 5 {
		t.Fatalf("trace length %d, want 5", len(res.Trace))
	}
	if err := res.Matrix.CheckStochastic(1e-6); err != nil {
		t.Fatalf("not stochastic: %v", err)
	}
	// Robustness costs quality: the robust loss should be >= the
	// non-robust (first-trace) loss, within solver tolerance.
	if res.QualityLoss < res.Trace[0]-1e-6 {
		t.Errorf("robust loss %v below non-robust %v", res.QualityLoss, res.Trace[0])
	}
}

func TestQualityLossUniformVsIdentity(t *testing.T) {
	inst := buildInstance(t, 19, 10, 4)
	idLoss, err := inst.QualityLoss(identity(19))
	if err != nil {
		t.Fatal(err)
	}
	if idLoss != 0 {
		t.Errorf("identity matrix loss = %v, want 0", idLoss)
	}
	uLoss, err := inst.QualityLoss(uniform(19))
	if err != nil {
		t.Fatal(err)
	}
	if uLoss <= 0 {
		t.Errorf("uniform matrix loss = %v, want > 0", uLoss)
	}
	if _, err := inst.QualityLoss(uniform(5)); err == nil {
		t.Error("dimension mismatch must fail")
	}
}

func TestPairSets(t *testing.T) {
	inst := buildInstance(t, 19, 5, 5)
	np := inst.NeighborPairs()
	ap := inst.AllPairs()
	if len(ap) != 19*18 {
		t.Fatalf("AllPairs = %d", len(ap))
	}
	if len(np) != 2*len(inst.graph.Edges()) {
		t.Fatalf("NeighborPairs = %d, want %d", len(np), 2*len(inst.graph.Edges()))
	}
	if len(np) >= len(ap) {
		t.Error("approximation must reduce pairs at K=19")
	}
	// Neighbor pairs come in both directions.
	seen := map[[2]int]bool{}
	for _, p := range np {
		seen[[2]int{p.I, p.J}] = true
	}
	for _, p := range np {
		if !seen[[2]int{p.J, p.I}] {
			t.Fatalf("pair (%d,%d) missing its reverse", p.I, p.J)
		}
	}
}

func TestEpsilonMonotonicity(t *testing.T) {
	// Higher epsilon (weaker constraint) must not increase quality loss.
	inst := buildInstance(t, 19, 10, 6)
	prev := math.Inf(1)
	for _, eps := range []float64{10, 15, 20} {
		res, err := inst.Generate(Params{Epsilon: eps, UseGraphApprox: true, DWExact: true})
		if err != nil {
			t.Fatalf("eps=%v: %v", eps, err)
		}
		if res.QualityLoss > prev+1e-6 {
			t.Errorf("quality loss increased with epsilon: %v -> %v", prev, res.QualityLoss)
		}
		prev = res.QualityLoss
	}
}

func TestGraphApproxMatchesFullSmall(t *testing.T) {
	// At K=7 both constraint sets should produce feasible matrices with the
	// approximation's loss >= the full LP's (shrunken feasible region).
	inst := buildInstance(t, 7, 7, 7)
	full, err := inst.Generate(Params{Epsilon: 15, UseGraphApprox: false})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := inst.Generate(Params{Epsilon: 15, UseGraphApprox: true})
	if err != nil {
		t.Fatal(err)
	}
	if approx.QualityLoss < full.QualityLoss-1e-6 {
		t.Errorf("approximated loss %v below full-LP loss %v", approx.QualityLoss, full.QualityLoss)
	}
	if full.Constraints <= approx.Constraints {
		t.Errorf("full LP must have more constraints: %d vs %d", full.Constraints, approx.Constraints)
	}
	// The full-LP matrix satisfies every pairwise constraint.
	rep := full.Matrix.CheckGeoInd(inst.AllPairs(), 15, 1e-6)
	if rep.Violated != 0 {
		t.Errorf("full LP matrix violates %d pairwise constraints", rep.Violated)
	}
}

func TestRandomTargets(t *testing.T) {
	sys, _ := hexgrid.NewSystem(geo.SanFrancisco.Center(), 0.1)
	cells := hexgrid.Disk(hexgrid.Coord{}, 2)[:19]
	pts, probs, err := RandomCellTargets(sys, cells, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 10 || len(probs) != 10 {
		t.Fatalf("got %d targets", len(pts))
	}
	if _, _, err := RandomCellTargets(sys, cells, 0, 3); err == nil {
		t.Error("zero targets must fail")
	}
	if _, _, err := RandomCellTargets(sys, cells, 20, 3); err == nil {
		t.Error("more targets than cells must fail")
	}
	// Determinism.
	pts2, _, _ := RandomCellTargets(sys, cells, 10, 3)
	for i := range pts {
		if pts[i] != pts2[i] {
			t.Fatal("targets not deterministic")
		}
	}
}

// TestPaperScaleK49 exercises the paper's main configuration (K = 49,
// eps = 15/km) end to end and reports timing; it is the canary for solver
// performance at scale.
func TestPaperScaleK49(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale solve skipped in -short")
	}
	inst := buildInstance(t, 49, 49, 9)
	res, err := inst.Generate(Params{Epsilon: 15, UseGraphApprox: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("K=49 non-robust: loss=%.4f constraints=%d lp-iters=%d elapsed=%v",
		res.QualityLoss, res.Constraints, res.LPIterations, res.Elapsed)
	if err := res.Matrix.CheckStochastic(1e-6); err != nil {
		t.Fatalf("not stochastic: %v", err)
	}
	rep := res.Matrix.CheckGeoInd(inst.NeighborPairs(), 15, 1e-6)
	if rep.Violated != 0 {
		t.Fatalf("violations on fresh K=49 matrix: %d (max %g)", rep.Violated, rep.MaxExcess)
	}
}

// uniform and identity are the two extreme mechanisms: every location
// reported alike, and the true location reported as it is.
func uniform(n int) *obf.Matrix {
	m := obf.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, 1/float64(n))
		}
	}
	return m
}

func identity(n int) *obf.Matrix {
	m := obf.NewMatrix(n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}
