package lp

import (
	"math"
	"math/rand"
	"testing"
)

// randomFeasibleLP builds a bounded-feasible random LP in the shape CORGI's
// solves take: a few EQ rows with b=1 plus many sparse LE rows with b=0 and
// mixed-magnitude coefficients.
func randomFeasibleLP(t *testing.T, nv int, rng *rand.Rand) *Problem {
	t.Helper()
	p := NewProblem(nv)
	c := make([]float64, nv)
	for j := range c {
		c[j] = 0.1 + rng.Float64()
	}
	if err := p.SetObjective(c); err != nil {
		t.Fatal(err)
	}
	// A couple of EQ "mass" rows partitioning the variables.
	half := nv / 2
	idx := make([]int, 0, nv)
	val := make([]float64, 0, nv)
	for j := 0; j < half; j++ {
		idx = append(idx, j)
		val = append(val, 1)
	}
	if err := p.AddConstraint(EQ, 1, idx, val); err != nil {
		t.Fatal(err)
	}
	idx, val = idx[:0], val[:0]
	for j := half; j < nv; j++ {
		idx = append(idx, j)
		val = append(val, 1)
	}
	if err := p.AddConstraint(EQ, 1, idx, val); err != nil {
		t.Fatal(err)
	}
	// Sparse two-variable LE rows, b=0, Geo-Ind style x_a <= mult * x_b.
	for i := 0; i < 3*nv; i++ {
		a, b := rng.Intn(nv), rng.Intn(nv)
		if a == b {
			continue
		}
		mult := math.Exp(3 * rng.Float64())
		if err := p.AddConstraint(LE, 0, []int{a, b}, []float64{1, -mult}); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func TestWarmBasisResolveSameProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randomFeasibleLP(t, 40, rng)
	opt := &Options{Perturb: true}
	cold, err := Solve(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Status != Optimal {
		t.Fatalf("cold solve: %v (%s)", cold.Status, cold.Note)
	}
	if len(cold.Basis) != len(p.rows) {
		t.Fatalf("Basis has %d entries, want %d", len(cold.Basis), len(p.rows))
	}
	warm, err := Solve(p, &Options{Perturb: true, WarmBasis: cold.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Optimal {
		t.Fatalf("warm solve: %v (%s)", warm.Status, warm.Note)
	}
	if !warm.Warm {
		t.Fatal("warm basis for the identical problem must be accepted")
	}
	certify(t, p, cold, 1e-6)
	certify(t, p, warm, 1e-6)
	if math.Abs(warm.Objective-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
		t.Fatalf("objective drifted: cold=%v warm=%v", cold.Objective, warm.Objective)
	}
	if warm.Iterations > cold.Iterations/2 {
		t.Errorf("warm restart took %d pivots vs %d cold — expected a large cut", warm.Iterations, cold.Iterations)
	}
}

func TestWarmBasisSurvivesObjectiveChange(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := randomFeasibleLP(t, 30, rng)
	cold, err := Solve(p, &Options{Perturb: true})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Status != Optimal {
		t.Fatalf("cold solve: %v (%s)", cold.Status, cold.Note)
	}
	// Nudge the objective: the old basis stays primal feasible, so the warm
	// start must be accepted and re-optimization must land on the true
	// optimum for the new costs.
	for j := 0; j < p.NumVars(); j++ {
		if err := p.SetObjectiveCoeff(j, 0.1+rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	warm, err := Solve(p, &Options{Perturb: true, WarmBasis: cold.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Optimal {
		t.Fatalf("warm solve: %v (%s)", warm.Status, warm.Note)
	}
	if !warm.Warm {
		t.Fatal("feasible warm basis must be accepted after an objective change")
	}
	certify(t, p, warm, 1e-6)
	ref, err := Solve(p, &Options{Perturb: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(warm.Objective-ref.Objective) > 1e-6*(1+math.Abs(ref.Objective)) {
		t.Fatalf("warm optimum %v differs from cold optimum %v", warm.Objective, ref.Objective)
	}
}

func TestWarmBasisRejectsGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := randomFeasibleLP(t, 20, rng)
	m := len(p.rows)
	dup := make([]int, m)
	for i := range dup {
		dup[i] = 0 // duplicate column everywhere
	}
	short := []int{0, 1}
	outOfRange := make([]int, m)
	for i := range outOfRange {
		outOfRange[i] = 1 << 30
	}
	badArt := make([]int, m)
	for i := range badArt {
		badArt[i] = -(m + 5) // artificial row index out of range
	}
	for name, wb := range map[string][]int{
		"duplicate": dup, "short": short, "out-of-range": outOfRange, "bad-artificial": badArt,
	} {
		sol, err := Solve(p, &Options{Perturb: true, WarmBasis: wb})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sol.Status != Optimal {
			t.Errorf("%s: status %v (%s), want optimal via crash fallback", name, sol.Status, sol.Note)
		}
		if sol.Warm {
			t.Errorf("%s: invalid warm basis reported as accepted", name)
		}
		if sol.Status == Optimal {
			certify(t, p, sol, 1e-6)
		}
	}
}

func TestWarmBasisRoundTripEncoding(t *testing.T) {
	// A problem whose optimum keeps an EQ row degenerate can retain an
	// artificial in the final basis; the encoding must round-trip it.
	rng := rand.New(rand.NewSource(17))
	p := randomFeasibleLP(t, 24, rng)
	sol, err := Solve(p, &Options{Perturb: true})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("solve: %v (%s)", sol.Status, sol.Note)
	}
	m := len(p.rows)
	for i, w := range sol.Basis {
		if w < 0 && -w-1 >= m {
			t.Errorf("entry %d: artificial row %d out of range [0,%d)", i, -w-1, m)
		}
	}
	again, err := Solve(p, &Options{Perturb: true, WarmBasis: sol.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if again.Status != Optimal || !again.Warm {
		t.Fatalf("round-trip warm solve: status=%v warm=%v", again.Status, again.Warm)
	}
	certify(t, p, sol, 1e-6)
	certify(t, p, again, 1e-6)
}
