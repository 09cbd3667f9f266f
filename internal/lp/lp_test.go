package lp

import (
	"math"
	"math/rand"
	"testing"
)

// solveBoth runs both solvers and checks they agree on status and (when
// optimal) objective value; it returns the sparse solution.
func solveBoth(t *testing.T, p *Problem, opt *Options) *Solution {
	t.Helper()
	d, err := SolveDense(p, opt)
	if err != nil {
		t.Fatalf("SolveDense: %v", err)
	}
	s, err := Solve(p, opt)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if d.Status != s.Status {
		t.Fatalf("status mismatch: dense=%v sparse=%v", d.Status, s.Status)
	}
	if d.Status == Optimal {
		if math.Abs(d.Objective-s.Objective) > 1e-6*(1+math.Abs(d.Objective)) {
			t.Fatalf("objective mismatch: dense=%v sparse=%v", d.Objective, s.Objective)
		}
		for _, sol := range []*Solution{d, s} {
			certify(t, p, sol, 1e-6)
		}
	}
	return s
}

// TestNoRows: a problem without constraints is answered without a simplex,
// and the answer is the oracle's: x = 0 when no cost is negative, unbounded
// when one is.
func TestNoRows(t *testing.T) {
	p := NewProblem(2)
	mustObj(t, p, []float64{1, 0})
	if s := solveBoth(t, p, nil); s.Status != Optimal || s.Objective != 0 || len(s.X) != 2 {
		t.Errorf("c >= 0: %+v", s)
	}
	mustObj(t, p, []float64{1, -1})
	if s := solveBoth(t, p, nil); s.Status != Unbounded {
		t.Errorf("a negative cost: %+v", s)
	}
}

func TestProblemValidation(t *testing.T) {
	p := NewProblem(3)
	if p.NumVars() != 3 {
		t.Errorf("NumVars = %d", p.NumVars())
	}
	if err := p.SetObjective([]float64{1, 2}); err == nil {
		t.Error("short objective must fail")
	}
	if err := p.SetObjective([]float64{1, math.NaN(), 3}); err == nil {
		t.Error("NaN objective must fail")
	}
	if err := p.SetObjectiveCoeff(5, 1); err == nil {
		t.Error("out-of-range coeff must fail")
	}
	if err := p.SetObjectiveCoeff(0, math.Inf(1)); err == nil {
		t.Error("inf coeff must fail")
	}
	if err := p.AddConstraint(LE, 1, []int{0, 1}, []float64{1}); err == nil {
		t.Error("length mismatch must fail")
	}
	if err := p.AddConstraint(LE, 1, nil, nil); err == nil {
		t.Error("empty constraint must fail")
	}
	if err := p.AddConstraint(LE, math.NaN(), []int{0}, []float64{1}); err == nil {
		t.Error("NaN rhs must fail")
	}
	if err := p.AddConstraint(LE, 1, []int{0, 0}, []float64{1, 1}); err == nil {
		t.Error("duplicate index must fail")
	}
	if err := p.AddConstraint(LE, 1, []int{7}, []float64{1}); err == nil {
		t.Error("out-of-range index must fail")
	}
	if err := p.AddConstraint(Sense(9), 1, []int{0}, []float64{1}); err == nil {
		t.Error("bad sense must fail")
	}
	if err := p.AddConstraint(LE, 1, []int{0}, []float64{math.Inf(1)}); err == nil {
		t.Error("inf coefficient must fail")
	}
	if err := p.AddConstraint(LE, 1, []int{0, 1}, []float64{1, 1}); err != nil {
		t.Errorf("valid constraint failed: %v", err)
	}
	if len(p.rows) != 1 {
		t.Errorf("NumConstraints = %d", len(p.rows))
	}
}

func TestSenseString(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "==" {
		t.Error("sense strings wrong")
	}
	if Sense(9).String() == "" {
		t.Error("unknown sense should still print")
	}
	for _, st := range []Status{Optimal, Infeasible, Unbounded, IterationLimit, NumericalFailure, Status(99)} {
		if st.String() == "" {
			t.Errorf("status %d has empty string", st)
		}
	}
}

// Classic textbook LP: max 3x+5y s.t. x<=4, 2y<=12, 3x+2y<=18 => (2,6), obj 36.
func TestTextbookMax(t *testing.T) {
	p := NewProblem(2)
	mustObj(t, p, []float64{-3, -5})
	mustCon(t, p, LE, 4, []int{0}, []float64{1})
	mustCon(t, p, LE, 12, []int{1}, []float64{2})
	mustCon(t, p, LE, 18, []int{0, 1}, []float64{3, 2})
	s := solveBoth(t, p, nil)
	if s.Status != Optimal {
		t.Fatalf("status %v", s.Status)
	}
	wantX := []float64{2, 6}
	for i := range wantX {
		if math.Abs(s.X[i]-wantX[i]) > 1e-7 {
			t.Errorf("x[%d] = %v, want %v", i, s.X[i], wantX[i])
		}
	}
	if math.Abs(s.Objective+36) > 1e-7 {
		t.Errorf("objective = %v, want -36", s.Objective)
	}
}

// Equality + GE constraints: min x+y s.t. x+y=10, x>=3, y>=2 => obj 10.
func TestEqualityAndGE(t *testing.T) {
	p := NewProblem(2)
	mustObj(t, p, []float64{1, 1})
	mustCon(t, p, EQ, 10, []int{0, 1}, []float64{1, 1})
	mustCon(t, p, GE, 3, []int{0}, []float64{1})
	mustCon(t, p, GE, 2, []int{1}, []float64{1})
	s := solveBoth(t, p, nil)
	if s.Status != Optimal || math.Abs(s.Objective-10) > 1e-7 {
		t.Fatalf("got %v obj %v", s.Status, s.Objective)
	}
	if math.Abs(s.X[0]+s.X[1]-10) > 1e-7 {
		t.Errorf("x sums to %v", s.X[0]+s.X[1])
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(1)
	mustCon(t, p, GE, 5, []int{0}, []float64{1})
	mustCon(t, p, LE, 3, []int{0}, []float64{1})
	s := solveBoth(t, p, nil)
	if s.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", s.Status)
	}
}

func TestInfeasibleEquality(t *testing.T) {
	p := NewProblem(2)
	mustCon(t, p, EQ, 1, []int{0, 1}, []float64{1, 1})
	mustCon(t, p, EQ, 3, []int{0, 1}, []float64{1, 1})
	s := solveBoth(t, p, nil)
	if s.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(2)
	mustObj(t, p, []float64{-1, 0})
	mustCon(t, p, GE, 1, []int{0}, []float64{1})
	s := solveBoth(t, p, nil)
	if s.Status != Unbounded {
		t.Fatalf("status %v, want unbounded", s.Status)
	}
}

func TestUnconstrained(t *testing.T) {
	p := NewProblem(2)
	mustObj(t, p, []float64{1, 2})
	s := solveBoth(t, p, nil)
	if s.Status != Optimal || s.Objective != 0 {
		t.Fatalf("got %v obj %v, want optimal 0 at origin", s.Status, s.Objective)
	}
	p2 := NewProblem(1)
	mustObj(t, p2, []float64{-1})
	s2 := solveBoth(t, p2, nil)
	if s2.Status != Unbounded {
		t.Fatalf("status %v, want unbounded", s2.Status)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// -x <= -5  <=>  x >= 5; minimize x => 5.
	p := NewProblem(1)
	mustObj(t, p, []float64{1})
	mustCon(t, p, LE, -5, []int{0}, []float64{-1})
	s := solveBoth(t, p, nil)
	if s.Status != Optimal || math.Abs(s.X[0]-5) > 1e-7 {
		t.Fatalf("got %v x=%v", s.Status, s.X)
	}
	// Also GE with negative rhs: -x >= -4 <=> x <= 4; maximize x.
	p2 := NewProblem(1)
	mustObj(t, p2, []float64{-1})
	mustCon(t, p2, GE, -4, []int{0}, []float64{-1})
	s2 := solveBoth(t, p2, nil)
	if s2.Status != Optimal || math.Abs(s2.X[0]-4) > 1e-7 {
		t.Fatalf("got %v x=%v", s2.Status, s2.X)
	}
}

func TestDegenerateLP(t *testing.T) {
	// Highly degenerate: many redundant constraints through the optimum.
	p := NewProblem(2)
	mustObj(t, p, []float64{-1, -1})
	for i := 1; i <= 8; i++ {
		mustCon(t, p, LE, 2, []int{0, 1}, []float64{1, 1})
	}
	mustCon(t, p, LE, 1, []int{0}, []float64{1})
	s := solveBoth(t, p, nil)
	if s.Status != Optimal || math.Abs(s.Objective+2) > 1e-7 {
		t.Fatalf("got %v obj %v, want -2", s.Status, s.Objective)
	}
}

func TestZeroRHSDegenerate(t *testing.T) {
	// All-zero RHS inequalities (the CORGI regime): x <= 2y, y <= 2x,
	// x + y = 1, minimize x. Optimum x = 1/3 (x = 2y binding... check:
	// min x s.t. x>=y/2 i.e. y<=2x -> x >= 1/3).
	p := NewProblem(2)
	mustObj(t, p, []float64{1, 0})
	mustCon(t, p, LE, 0, []int{0, 1}, []float64{1, -2})
	mustCon(t, p, LE, 0, []int{1, 0}, []float64{1, -2})
	mustCon(t, p, EQ, 1, []int{0, 1}, []float64{1, 1})
	for _, perturb := range []bool{false, true} {
		s := solveBoth(t, p, &Options{Perturb: perturb})
		if s.Status != Optimal || math.Abs(s.X[0]-1.0/3) > 1e-6 {
			t.Fatalf("perturb=%v: got %v x=%v, want x0=1/3", perturb, s.Status, s.X)
		}
	}
}

func TestDualsStrongDuality(t *testing.T) {
	// Strong duality: c·x* == b·y* for both solvers.
	p := NewProblem(3)
	mustObj(t, p, []float64{2, 3, 4})
	mustCon(t, p, GE, 6, []int{0, 1, 2}, []float64{1, 2, 1})
	mustCon(t, p, GE, 8, []int{0, 1, 2}, []float64{2, 1, 3})
	mustCon(t, p, EQ, 5, []int{0, 1, 2}, []float64{1, 1, 1})
	for name, solver := range map[string]func(*Problem, *Options) (*Solution, error){
		"dense": SolveDense, "sparse": Solve,
	} {
		s, err := solver(p, nil)
		if err != nil || s.Status != Optimal {
			t.Fatalf("%s: %v %v", name, err, s.Status)
		}
		b := []float64{6, 8, 5}
		by := 0.0
		for i, y := range s.Duals {
			by += b[i] * y
		}
		if math.Abs(by-s.Objective) > 1e-6 {
			t.Errorf("%s: duality gap: b·y = %v, c·x = %v", name, by, s.Objective)
		}
		// Dual sign conventions: y >= 0 for GE rows in a min problem.
		for i := 0; i < 2; i++ {
			if s.Duals[i] < -1e-7 {
				t.Errorf("%s: GE dual %d = %v, want >= 0", name, i, s.Duals[i])
			}
		}
	}
}

func TestEvalAndCheckFeasible(t *testing.T) {
	p := NewProblem(2)
	mustObj(t, p, []float64{1, 2})
	mustCon(t, p, LE, 4, []int{0, 1}, []float64{1, 1})
	mustCon(t, p, GE, 1, []int{0}, []float64{1})
	mustCon(t, p, EQ, 2, []int{1}, []float64{1})
	if got := p.Eval([]float64{1, 2}); got != 5 {
		t.Errorf("Eval = %v", got)
	}
	if v, n := p.CheckFeasible([]float64{1, 2}, 1e-9); n != 0 || v != 0 {
		t.Errorf("feasible point flagged: %v %d", v, n)
	}
	if _, n := p.CheckFeasible([]float64{0, 2}, 1e-9); n != 1 {
		t.Errorf("x0<1 should violate exactly the GE row, got %d", n)
	}
	if _, n := p.CheckFeasible([]float64{-1, 2}, 1e-9); n != 2 {
		t.Errorf("negative x should add a bound violation, got %d", n)
	}
	if v, _ := p.CheckFeasible([]float64{1}, 1e-9); !math.IsInf(v, 1) {
		t.Errorf("wrong-length x should be Inf, got %v", v)
	}
}

// TestRandomLPsAgainstDense cross-checks the sparse solver against the dense
// oracle on random LPs that are feasible by construction.
func TestRandomLPsAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 120; trial++ {
		nv := 2 + rng.Intn(8)
		m := 1 + rng.Intn(10)
		p := NewProblem(nv)
		c := make([]float64, nv)
		for j := range c {
			c[j] = math.Round((rng.Float64()*4-1)*8) / 8
		}
		mustObj(t, p, c)
		// A known interior point keeps most problems feasible.
		x0 := make([]float64, nv)
		for j := range x0 {
			x0[j] = rng.Float64() * 3
		}
		for i := 0; i < m; i++ {
			k := 1 + rng.Intn(nv)
			idx := rng.Perm(nv)[:k]
			val := make([]float64, k)
			ax := 0.0
			for t2 := range val {
				val[t2] = math.Round((rng.Float64()*4-2)*8) / 8
				ax += val[t2] * x0[idx[t2]]
			}
			switch rng.Intn(3) {
			case 0:
				mustCon(t, p, LE, ax+rng.Float64(), idx, val)
			case 1:
				mustCon(t, p, GE, ax-rng.Float64(), idx, val)
			default:
				mustCon(t, p, EQ, ax, idx, val)
			}
		}
		// Bound the feasible region so unboundedness is rare but allowed.
		if rng.Intn(2) == 0 {
			all := make([]int, nv)
			ones := make([]float64, nv)
			tot := 0.0
			for j := range all {
				all[j] = j
				ones[j] = 1
				tot += x0[j]
			}
			mustCon(t, p, LE, tot+1, all, ones)
		}
		solveBoth(t, p, &Options{Seed: int64(trial + 1)})
	}
}

// TestRandomDegenerateLPs stresses the zero-RHS regime with perturbation.
func TestRandomDegenerateLPs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		nv := 3 + rng.Intn(6)
		p := NewProblem(nv)
		c := make([]float64, nv)
		for j := range c {
			c[j] = rng.Float64()
		}
		mustObj(t, p, c)
		// Random ratio constraints x_i <= alpha x_j (all rhs 0).
		for i := 0; i < nv*2; i++ {
			a, b := rng.Intn(nv), rng.Intn(nv)
			if a == b {
				continue
			}
			alpha := 1 + rng.Float64()*3
			mustCon(t, p, LE, 0, []int{a, b}, []float64{1, -alpha})
		}
		all := make([]int, nv)
		ones := make([]float64, nv)
		for j := range all {
			all[j], ones[j] = j, 1
		}
		mustCon(t, p, EQ, 1, all, ones)
		solveBoth(t, p, &Options{Perturb: true, Seed: int64(trial + 1)})
	}
}

func TestIterationLimit(t *testing.T) {
	p := NewProblem(4)
	mustObj(t, p, []float64{-1, -1, -1, -1})
	for i := 0; i < 4; i++ {
		mustCon(t, p, LE, 1, []int{i}, []float64{1})
	}
	s, err := Solve(p, &Options{MaxIters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != IterationLimit {
		t.Fatalf("status %v, want iteration-limit", s.Status)
	}
}

func TestSolutionScalesWithSize(t *testing.T) {
	// Transportation-style LP, moderately sized, checked for feasibility
	// and against the dense oracle.
	for _, n := range []int{5, 9} {
		p := NewProblem(n * n)
		c := make([]float64, n*n)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := range c {
			c[i] = rng.Float64() * 10
		}
		mustObj(t, p, c)
		for i := 0; i < n; i++ { // supply rows
			idx := make([]int, n)
			val := make([]float64, n)
			for j := 0; j < n; j++ {
				idx[j], val[j] = i*n+j, 1
			}
			mustCon(t, p, EQ, 1, idx, val)
		}
		for j := 0; j < n; j++ { // demand columns
			idx := make([]int, n)
			val := make([]float64, n)
			for i := 0; i < n; i++ {
				idx[i], val[i] = i*n+j, 1
			}
			mustCon(t, p, EQ, 1, idx, val)
		}
		solveBoth(t, p, nil)
	}
}

func mustObj(t *testing.T, p *Problem, c []float64) {
	t.Helper()
	if err := p.SetObjective(c); err != nil {
		t.Fatalf("SetObjective: %v", err)
	}
}

func mustCon(t *testing.T, p *Problem, s Sense, b float64, idx []int, val []float64) {
	t.Helper()
	if err := p.AddConstraint(s, b, idx, val); err != nil {
		t.Fatalf("AddConstraint: %v", err)
	}
}
