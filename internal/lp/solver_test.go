package lp

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"corgi/internal/raceon"
)

// pricingLP builds a Dantzig-Wolfe pricing problem of the shape core solves
// at K = side*side: one simplex row over K variables and, for every ordered
// pair of lattice neighbours (i, j), the cone row x_i <= mult * x_j with
// mult = exp(eps * d) over slightly uneven distances d.
func pricingLP(t *testing.T, side int, rng *rand.Rand) *Problem {
	t.Helper()
	k := side * side
	p := NewProblem(k)
	idx := make([]int, k)
	ones := make([]float64, k)
	for j := range idx {
		idx[j], ones[j] = j, 1
	}
	mustCon(t, p, EQ, 1, idx, ones)
	for a := 0; a < k; a++ {
		for b := 0; b < k; b++ {
			dr, dc := a/side-b/side, a%side-b%side
			if d2 := dr*dr + dc*dc; a != b && d2 <= 4 {
				mult := math.Exp(15 * 0.1 * math.Sqrt(float64(d2)) * (1 + 0.2*rng.Float64()))
				mustCon(t, p, LE, 0, []int{a, b}, []float64{1, -mult})
			}
		}
	}
	setPricingObjective(t, p, rng)
	return p
}

// setPricingObjective draws a new block objective w_l - y.
func setPricingObjective(t *testing.T, p *Problem, rng *rand.Rand) {
	t.Helper()
	c := make([]float64, p.NumVars())
	for j := range c {
		c[j] = rng.Float64() - 0.4
	}
	mustObj(t, p, c)
}

// sameSolution holds got to a fresh solver's want, bit for bit, and certifies
// it against p on its own terms.
func sameSolution(t *testing.T, name string, p *Problem, got, want *Solution) {
	t.Helper()
	if got.Status == Optimal {
		certify(t, p, got, 1e-6)
	}
	if got.Status != want.Status || got.Iterations != want.Iterations || got.Reinversions != want.Reinversions ||
		got.Warm != want.Warm || got.Objective != want.Objective {
		t.Fatalf("%s: status %v, %d pivots, %d reinversions, warm %v, objective %v; fresh solver: %v, %d, %d, %v, %v",
			name, got.Status, got.Iterations, got.Reinversions, got.Warm, got.Objective,
			want.Status, want.Iterations, want.Reinversions, want.Warm, want.Objective)
	}
	if !reflect.DeepEqual(got.X, want.X) || !reflect.DeepEqual(got.Duals, want.Duals) || !reflect.DeepEqual(got.Basis, want.Basis) {
		t.Fatalf("%s: X, Duals or Basis differ from a fresh solver's", name)
	}
}

// TestSolverReuse solves A, a larger B, then A again (and A with a new
// objective, the path that keeps the standard form) on one Solver, then B
// under 64 objectives each started from the basis the last one ended on, as
// core re-solves a pricing block. Every result must equal a fresh solver's
// exactly: no stamp, epoch, diagonal, factor or arena tail may leak between
// solves or between problems of different shape.
func TestSolverReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	small := pricingLP(t, 4, rng)
	big := pricingLP(t, 7, rng)
	other := randomFeasibleLP(t, 30, rng)
	opt := &Options{Perturb: true}
	fresh := func(p *Problem, opt *Options) *Solution {
		t.Helper()
		sol, err := Solve(p, opt)
		if err != nil || sol.Status != Optimal {
			t.Fatalf("fresh solve: %v %v", err, sol)
		}
		return sol
	}
	var sv Solver
	reused := func(p *Problem, opt *Options) *Solution {
		t.Helper()
		sol, err := sv.Solve(p, opt)
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	a := fresh(small, opt)
	sameSolution(t, "A", small, reused(small, opt), a)
	sameSolution(t, "B", big, reused(big, opt), fresh(big, opt))
	sameSolution(t, "A after B", small, reused(small, opt), a)
	sameSolution(t, "C", other, reused(other, nil), fresh(other, nil))
	warm := &Options{Perturb: true, WarmBasis: a.Basis}
	sameSolution(t, "A warm", small, reused(small, warm), fresh(small, warm))
	for i := 0; i < 3; i++ {
		setPricingObjective(t, small, rng)
		sameSolution(t, "A, new objective", small, reused(small, warm), fresh(small, warm))
	}
	// A rejected warm basis must restore the crash state on a used workspace.
	bad := &Options{Perturb: true, WarmBasis: append([]int(nil), a.Basis...)}
	bad.WarmBasis[0] = bad.WarmBasis[1]
	sameSolution(t, "A, rejected warm basis", small, reused(small, bad), fresh(small, bad))
	// Growing the problem is a structural change the solver must notice.
	mustCon(t, small, LE, 0.5, []int{0, 1}, []float64{1, 1})
	sameSolution(t, "A plus a row", small, reused(small, opt), fresh(small, opt))
	if _, err := small.AddColumn(-0.2, []int{0, 3}, []float64{1, 0.5}); err != nil {
		t.Fatal(err)
	}
	sameSolution(t, "A plus a column", small, reused(small, opt), fresh(small, opt))

	// A chain of warm re-solves. Objectives come in fours: two new ones, then
	// the second twice more, as a block whose price did not move, which needs
	// no pivot. One solve in the middle is cut off after a pivot, and the next
	// starts from where the workspace was left.
	held := fresh(big, opt)
	warm = &Options{Perturb: true, WarmBasis: held.Basis}
	for i := 0; i < 64; i++ {
		repeat := i%4 >= 2
		if !repeat {
			setPricingObjective(t, big, rng)
		}
		if i == 32 {
			cut := &Options{Perturb: true, WarmBasis: warm.WarmBasis, MaxIters: 1}
			if sol := reused(big, cut); sol.Status != IterationLimit {
				t.Fatalf("one-pivot solve: %v", sol.Status)
			}
		}
		got := reused(big, warm)
		sameSolution(t, "B, chained objective", big, got, fresh(big, warm))
		if !got.Warm || repeat && got.Iterations != 0 {
			t.Fatalf("chained solve %d: warm %v, %d pivots (repeat %v)", i, got.Warm, got.Iterations, repeat)
		}
		warm.WarmBasis = append(warm.WarmBasis[:0:0], got.Basis...)
	}

	// A workspace that has been through a sync.Pool, as core's are between
	// generations, meets the next generation's problem as a zero Solver would.
	// The hard case is a problem of the very shape it last solved: it is
	// another problem and its standard form must be loaded.
	pool := sync.Pool{New: func() any { return new(Solver) }}
	pool.Put(&sv)
	pooled := pool.Get().(*Solver) // the race detector makes Put drop some: then a new one
	next := pricingLP(t, 7, rng)
	got, err := pooled.Solve(next, warm)
	if err != nil {
		t.Fatal(err)
	}
	sameSolution(t, "B's shape after the pool", next, got, fresh(next, warm))
}

// TestSolveAllocationBudget pins what a primed Solver allocates for a
// warm-started K=49 pricing re-solve: the Solution struct it returns, whose
// X, Duals and Basis are the workspace's, and nothing per pivot, per
// reinversion or per solve.
func TestSolveAllocationBudget(t *testing.T) {
	if raceon.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	rng := rand.New(rand.NewSource(49))
	p := pricingLP(t, 7, rng)
	var sv Solver
	sol, err := sv.Solve(p, &Options{Perturb: true})
	if err != nil || sol.Status != Optimal {
		t.Fatalf("priming solve: %v %v", err, sol)
	}
	objectives := make([][]float64, 16)
	for i := range objectives {
		objectives[i] = make([]float64, p.NumVars())
		for j := range objectives[i] {
			objectives[i][j] = rng.Float64() - 0.4
		}
	}
	opt := &Options{Perturb: true, WarmBasis: sol.Basis}
	// Once through every objective, so the arenas have seen their largest
	// eta file before anything is counted.
	run := 0
	solve := func() {
		mustObj(t, p, objectives[run%len(objectives)])
		run++
		got, err := sv.Solve(p, opt)
		if err != nil || got.Status != Optimal || !got.Warm {
			t.Fatalf("re-solve: %v %+v", err, got)
		}
	}
	for range objectives {
		solve()
	}
	avg := testing.AllocsPerRun(len(objectives), solve)
	t.Logf("allocs per warm re-solve: %.1f", avg)
	if avg > 1 {
		t.Errorf("warm pricing re-solve on a primed Solver allocates %.1f times, want <= 1", avg)
	}
}

// TestAddColumnMatchesRebuild grows a column-generation master by AddColumn
// and builds the same master row by row; the two must convert to the same
// standard form, and AddColumn must reject what AddConstraint would.
func TestAddColumnMatchesRebuild(t *testing.T) {
	const k, ncols = 9, 40
	rng := rand.New(rand.NewSource(5))
	cols := make([][]float64, ncols)
	costs := make([]float64, ncols)
	for c := range cols {
		cols[c] = make([]float64, k)
		for i := range cols[c] {
			if rng.Intn(3) > 0 {
				cols[c][i] = rng.Float64()
			}
		}
		costs[c] = rng.Float64()
	}
	rebuilt := NewProblem(k + ncols)
	obj := make([]float64, k+ncols)
	for i := 0; i < k; i++ {
		obj[i] = 100
	}
	copy(obj[k:], costs)
	mustObj(t, rebuilt, obj)
	for i := 0; i < k; i++ {
		idx, val := []int{i}, []float64{1}
		for c := range cols {
			if cols[c][i] != 0 {
				idx, val = append(idx, k+c), append(val, cols[c][i])
			}
		}
		mustCon(t, rebuilt, EQ, 1, idx, val)
	}

	grown := NewProblem(k)
	for i := 0; i < k; i++ {
		if err := grown.SetObjectiveCoeff(i, 100); err != nil {
			t.Fatal(err)
		}
		mustCon(t, grown, EQ, 1, []int{i}, []float64{1})
	}
	for c := range cols {
		var rows []int
		var vals []float64
		for i, v := range cols[c] {
			// Half the zeros are passed explicitly: AddColumn drops them.
			if v != 0 || i%2 == 0 {
				rows, vals = append(rows, i), append(vals, v)
			}
		}
		j, err := grown.AddColumn(costs[c], rows, vals)
		if err != nil || j != k+c {
			t.Fatalf("AddColumn %d: index %d, %v", c, j, err)
		}
	}
	if grown.NumVars() != rebuilt.NumVars() {
		t.Fatalf("grown master has %d variables, rebuilt %d", grown.NumVars(), rebuilt.NumVars())
	}
	a, _ := grown.toStandard()
	b, _ := rebuilt.toStandard()
	a.equilibrate(3)
	b.equilibrate(3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("grown and rebuilt masters differ in standard form")
	}
	// A constraint over the new variables still catches duplicates.
	if err := grown.AddConstraint(LE, 1, []int{k + 3, k + 3}, []float64{1, 1}); err == nil {
		t.Error("duplicate of an added variable must fail")
	}
	mustCon(t, grown, LE, 1, []int{k + 3, k + 4}, []float64{1, 1})

	bad := []struct {
		name string
		c    float64
		rows []int
		vals []float64
	}{
		{"length mismatch", 0, []int{0, 1}, []float64{1}},
		{"NaN cost", math.NaN(), []int{0}, []float64{1}},
		{"row out of range", 0, []int{k + 1}, []float64{1}},
		{"negative row", 0, []int{-1}, []float64{1}},
		{"repeated row", 0, []int{2, 2}, []float64{1, 1}},
		{"descending rows", 0, []int{3, 2}, []float64{1, 1}},
		{"infinite coefficient", 0, []int{0}, []float64{math.Inf(1)}},
	}
	nv := grown.NumVars()
	for _, tc := range bad {
		if _, err := grown.AddColumn(tc.c, tc.rows, tc.vals); err == nil {
			t.Errorf("AddColumn with %s must fail", tc.name)
		}
	}
	if grown.NumVars() != nv {
		t.Errorf("rejected columns changed the problem: %d variables, want %d", grown.NumVars(), nv)
	}
}

// TestDualCleanupCountsPivotsSinceReinversion drives the dual clean-up from
// an optimal K=49 pricing basis whose RHS has been disturbed. A reinversion
// of that basis alone leaves several hundred slack scalings and bump etas, so
// a bound on the length of the eta file (what dualCleanup used to test) fired
// after every pivot; a bound on pivots since the last reinversion does not
// fire at all in a clean-up this short, and every pivot's eta is still there
// at the end.
func TestDualCleanupCountsPivotsSinceReinversion(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	p := pricingLP(t, 7, rng)
	var sv Solver
	sol, err := sv.Solve(p, nil)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("solve: %v %v", err, sol)
	}
	s := &sv.st
	if err := s.reinvert(); err != nil {
		t.Fatal(err)
	}
	slackRows := 0
	for _, d := range s.diag {
		if d != 1 {
			slackRows++
		}
	}
	if slackRows+len(s.etas) < refactorEtas*4 {
		t.Fatalf("basis reinverts to %d scalings and %d etas: too few to tell the two bounds apart", slackRows, len(s.etas))
	}
	for i := range sv.sf.b {
		sv.sf.b[i] += 1e-3 * (rng.Float64() - 0.5)
	}
	s.refreshXB()
	etas, iters := len(s.etas), s.iters
	s.dualCleanup()
	pivots := s.iters - iters
	if pivots < 5 || pivots >= refactorEtas*4 {
		t.Fatalf("clean-up took %d dual pivots, want a handful", pivots)
	}
	if got := len(s.etas) - etas; got != pivots {
		t.Errorf("eta file grew by %d over %d dual pivots: the clean-up reinverted on the way", got, pivots)
	}
}
