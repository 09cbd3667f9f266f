package lp

import (
	"math"
	"testing"
)

// certify checks an Optimal solution against the optimality conditions of
// the problem as the caller stated it (unscaled, unperturbed, no standard
// form), using nothing of the solver but the numbers it returned:
//
//   - primal feasibility: every constraint and x >= 0, within tol;
//   - dual feasibility: the reduced cost c_j - y·a_j of every variable is
//     >= -tol, and a row's dual has the sign its sense allows in a
//     minimisation (<= 0 for LE, >= 0 for GE, free for EQ);
//   - complementary slackness: a row with slack has no dual, a variable with
//     reduced cost is zero, each product within tol;
//   - strong duality: c·x = b·y within tol.
//
// Together these prove x optimal whatever basis, factorisation or starting
// point the solve went through. tol is absolute and scaled by 1 + the
// magnitudes involved where a product of two quantities is tested.
func certify(t *testing.T, p *Problem, sol *Solution, tol float64) {
	t.Helper()
	if sol.Status != Optimal {
		t.Fatalf("certify: status %v (%s)", sol.Status, sol.Note)
	}
	x, y := sol.X, sol.Duals
	if len(x) != p.nv || len(y) != len(p.rows) {
		t.Fatalf("certify: %d primal and %d dual values for %d variables and %d rows", len(x), len(y), p.nv, len(p.rows))
	}
	if worst, n := p.CheckFeasible(x, tol); n > 0 {
		t.Fatalf("certify: primal infeasible, %d violations, worst %g", n, worst)
	}
	// Row activities a_i·x and column prices y·a_j, from the two arenas.
	ax := make([]float64, len(p.rows))
	ya := make([]float64, p.nv)
	for i := range p.rows {
		idx, val := p.rowSpan(&p.rows[i])
		for k, j := range idx {
			ax[i] += val[k] * x[j]
			ya[j] += val[k] * y[i]
		}
	}
	for k := range p.colVar {
		j, rows, vals := p.appended(k)
		for e, i := range rows {
			ax[i] += vals[e] * x[j]
			ya[j] += vals[e] * y[i]
		}
	}
	by := 0.0
	for i, r := range p.rows {
		switch {
		case r.sense == LE && y[i] > tol, r.sense == GE && y[i] < -tol:
			t.Fatalf("certify: row %d (%v) has dual %g of the wrong sign", i, r.sense, y[i])
		}
		if slack := ax[i] - r.b; math.Abs(slack*y[i]) > tol*(1+math.Abs(r.b)) {
			t.Fatalf("certify: row %d has slack %g and dual %g", i, slack, y[i])
		}
		by += r.b * y[i]
	}
	for j, cj := range p.c {
		d := cj - ya[j]
		if d < -tol*(1+math.Abs(cj)) {
			t.Fatalf("certify: variable %d has reduced cost %g", j, d)
		}
		if math.Abs(d*x[j]) > tol*(1+math.Abs(cj)) {
			t.Fatalf("certify: variable %d = %g has reduced cost %g", j, x[j], d)
		}
	}
	if obj := p.Eval(x); math.Abs(obj-by) > tol*(1+math.Abs(obj)) {
		t.Fatalf("certify: c·x = %v but b·y = %v", obj, by)
	}
}
