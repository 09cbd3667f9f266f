package lp

import (
	"math"
)

// toStandard converts the problem into a fresh standard form. Rows keep
// their original order so duals map back one-to-one (dual sign accounts for
// row flips via flipped[]).
func (p *Problem) toStandard() (*standardForm, []bool) {
	sf := new(standardForm)
	sf.load(p)
	return sf, sf.flipped
}

// SolveDense solves the problem with a two-phase primal simplex on a dense
// tableau. It is the correctness oracle for the sparse solver, for small
// problems (hundreds of rows/columns); memory is O(m*(n+m)).
func SolveDense(p *Problem, opt *Options) (*Solution, error) {
	sf, flipped := p.toStandard()
	rowScale, colScale := sf.equilibrate(3)
	tol := optTol
	maxIters := opt.maxIters(sf.m, sf.n)

	m, n := sf.m, sf.n
	if m == 0 {
		// Unconstrained: minimum at x=0 unless some c_j < 0 (then unbounded).
		for _, cj := range sf.c[:p.nv] {
			if cj < -tol {
				return &Solution{Status: Unbounded}, nil
			}
		}
		return &Solution{Status: Optimal, X: make([]float64, p.nv), Duals: []float64{}}, nil
	}

	// Tableau: m rows x (n + m artificials + 1 rhs).
	width := n + m + 1
	t := make([][]float64, m)
	for i := range t {
		t[i] = make([]float64, width)
	}
	for j := 0; j < n; j++ {
		rows, vals := sf.col(j)
		for k, r := range rows {
			t[r][j] = vals[k]
		}
	}
	for i := 0; i < m; i++ {
		t[i][n+i] = 1
		t[i][width-1] = sf.b[i]
	}
	basis := make([]int, m)
	for i := range basis {
		basis[i] = n + i
	}

	// Phase 1: minimize sum of artificials.
	d := make([]float64, n+m) // reduced costs
	for j := 0; j < n; j++ {
		s := 0.0
		for i := 0; i < m; i++ {
			s += t[i][j]
		}
		d[j] = -s
	}
	obj := 0.0
	for i := 0; i < m; i++ {
		obj += t[i][width-1]
	}

	cost1 := func(j int) float64 {
		if j >= n {
			return 1
		}
		return 0
	}
	iters := 0
	status := densePivotLoop(t, d, basis, &obj, n, cost1, true, tol, maxIters, &iters)
	if status == IterationLimit {
		return &Solution{Status: IterationLimit, Iterations: iters}, nil
	}
	// Measure infeasibility from the tableau itself, not the incrementally
	// tracked objective (which drifts over long degenerate runs).
	infeas := 0.0
	for i := 0; i < m; i++ {
		if basis[i] >= n {
			infeas += t[i][width-1]
		}
	}
	if infeas > math.Sqrt(tol) {
		return &Solution{Status: Infeasible, Iterations: iters}, nil
	}
	// Drive out any remaining basic artificials (degenerate pivots). Use the
	// largest available pivot element for stability; rows with no usable
	// pivot are redundant and keep their zero-valued artificial.
	for i := 0; i < m; i++ {
		if basis[i] < n {
			continue
		}
		bestJ, bestA := -1, 1e-6
		for j := 0; j < n; j++ {
			if a := math.Abs(t[i][j]); a > bestA {
				bestA, bestJ = a, j
			}
		}
		if bestJ >= 0 {
			densePivot(t, d, basis, i, bestJ)
		}
	}

	// Phase 2: real objective. Reduced costs are recomputed from scratch
	// here and periodically inside the loop.
	cost := func(j int) float64 {
		if j < n {
			return sf.c[j]
		}
		return 0 // artificials carry zero cost and are barred from entering
	}
	refreshReducedCosts(t, d, basis, cost, &obj)
	status = densePivotLoop(t, d, basis, &obj, n, cost, false, tol, maxIters, &iters)
	switch status {
	case IterationLimit, Unbounded:
		return &Solution{Status: status, Iterations: iters}, nil
	}

	x := make([]float64, p.nv)
	for i := 0; i < m; i++ {
		if basis[i] < p.nv {
			v := t[i][width-1] * colScale[basis[i]]
			if v < 0 {
				v = 0
			}
			x[basis[i]] = v
		}
	}
	// Self-check: long degenerate runs can corrupt the tableau. Refuse to
	// report a corrupted point as optimal.
	if _, bad := p.CheckFeasible(x, 1e-6); bad > 0 {
		return &Solution{Status: NumericalFailure, Iterations: iters, Note: "final solution infeasible"}, nil
	}
	duals := make([]float64, m)
	for i := 0; i < m; i++ {
		y := -d[n+i] * rowScale[i]
		if flipped[i] {
			y = -y
		}
		duals[i] = y
	}
	return &Solution{
		Status:     Optimal,
		X:          x,
		Objective:  p.Eval(x),
		Duals:      duals,
		Iterations: iters,
	}, nil
}

// refreshReducedCosts recomputes the reduced-cost row and objective from
// the tableau and the basis costs, resetting accumulated drift.
func refreshReducedCosts(t [][]float64, d []float64, basis []int, cost func(int) float64, obj *float64) {
	m := len(t)
	width := len(t[0])
	cB := make([]float64, m)
	for i := 0; i < m; i++ {
		cB[i] = cost(basis[i])
	}
	for j := 0; j < width-1; j++ {
		s := cost(j)
		for i := 0; i < m; i++ {
			if cB[i] != 0 {
				s -= cB[i] * t[i][j]
			}
		}
		d[j] = s
	}
	*obj = 0
	for i := 0; i < m; i++ {
		*obj += cB[i] * t[i][width-1]
	}
}

// densePivotLoop runs simplex pivots until optimality, unboundedness, or the
// iteration limit. phase1 bars nothing; otherwise artificial columns
// (indices >= n) may not enter. Uses Dantzig pricing with a Bland fallback
// after a run of degenerate pivots, and refreshes the reduced-cost row
// periodically to contain drift.
func densePivotLoop(t [][]float64, d []float64, basis []int, obj *float64, n int, cost func(int) float64, phase1 bool, tol float64, maxIters int, iters *int) Status {
	m := len(t)
	width := len(t[0])
	limit := n
	if phase1 {
		limit = n + m
	}
	degenRun := 0
	sinceRefresh := 0
	const stallLimit = 64
	for ; *iters < maxIters; *iters++ {
		if sinceRefresh++; sinceRefresh >= 128 {
			refreshReducedCosts(t, d, basis, cost, obj)
			sinceRefresh = 0
		}
		bland := degenRun >= stallLimit
		q := -1
		best := -tol
		for j := 0; j < limit; j++ {
			if d[j] < best {
				if bland {
					// Bland: first improving index.
					q = j
					break
				}
				best = d[j]
				q = j
			}
		}
		if q < 0 {
			return Optimal
		}
		// Harris-style two-pass ratio test: find the relaxed bound, then
		// among admissible rows pick the most stable pivot (largest
		// element) — or the smallest basis index in Bland mode.
		const feasTol = 1e-9
		const pivTol = 1e-9
		thetaMax := math.Inf(1)
		for i := 0; i < m; i++ {
			a := t[i][q]
			if a <= pivTol {
				continue
			}
			xb := t[i][width-1]
			if xb < 0 {
				xb = 0
			}
			if th := (xb + feasTol) / a; th < thetaMax {
				thetaMax = th
			}
		}
		if math.IsInf(thetaMax, 1) {
			return Unbounded
		}
		r := -1
		bestA := 0.0
		for i := 0; i < m; i++ {
			a := t[i][q]
			if a <= pivTol {
				continue
			}
			xb := t[i][width-1]
			if xb < 0 {
				xb = 0
			}
			if xb/a > thetaMax {
				continue
			}
			if bland {
				if r < 0 || basis[i] < basis[r] {
					r, bestA = i, a
				}
			} else if a > bestA ||
				(a == bestA && r >= 0 && betterLeaving(basis, t, i, r, q, n)) {
				r, bestA = i, a
			}
		}
		if r < 0 {
			return Unbounded
		}
		theta := t[r][width-1] / t[r][q]
		if theta < 0 {
			theta = 0
		}
		if theta < tol {
			degenRun++
		} else {
			degenRun = 0
		}
		*obj += d[q] * theta
		densePivot(t, d, basis, r, q)
	}
	return IterationLimit
}

// betterLeaving breaks ratio-test ties: prefer kicking out artificials, then
// the larger pivot element for stability, then the smaller basis index
// (Bland-ish determinism).
func betterLeaving(basis []int, t [][]float64, i, r, q, n int) bool {
	ai, ar := basis[i] >= n, basis[r] >= n
	if ai != ar {
		return ai
	}
	pi, prv := math.Abs(t[i][q]), math.Abs(t[r][q])
	if pi != prv {
		return pi > prv
	}
	return basis[i] < basis[r]
}

// densePivot performs a Gauss-Jordan pivot at (r, q) and updates the reduced
// cost row.
func densePivot(t [][]float64, d []float64, basis []int, r, q int) {
	width := len(t[0])
	piv := t[r][q]
	inv := 1 / piv
	rowR := t[r]
	for j := 0; j < width; j++ {
		rowR[j] *= inv
	}
	rowR[q] = 1
	for i := range t {
		if i == r {
			continue
		}
		f := t[i][q]
		if f == 0 {
			continue
		}
		rowI := t[i]
		for j := 0; j < width; j++ {
			rowI[j] -= f * rowR[j]
		}
		rowI[q] = 0
	}
	f := d[q]
	if f != 0 {
		for j := 0; j < width-1; j++ {
			d[j] -= f * rowR[j]
		}
		d[q] = 0
	}
	basis[r] = q
}
