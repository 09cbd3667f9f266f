package lp

import (
	"math"
	"math/rand"
)

// Solve solves the problem with a sparse revised simplex (product form of
// the inverse). It is the production solver: memory and per-iteration cost
// scale with the number of nonzeros, not m*n. See the package comment for
// the algorithmic inventory. Callers with a sequence of related solves should
// hold a Solver instead.
func Solve(p *Problem, opt *Options) (*Solution, error) {
	return new(Solver).Solve(p, opt)
}

// Solver is the workspace of the sparse simplex: the standard form and its
// scales, the simplex vectors, the eta file, the reinversion scratch and the
// arrays of the Solution it returns, all flat arrays that grow to the largest
// problem seen and are overwritten by each solve. A Solve on a reused Solver
// returns exactly what a fresh one would; reuse saves only the allocations.
// The zero value is ready. A Solver is not safe for concurrent use.
//
// A Solver knows the problem it last loaded by id and revision, never by
// pointer: one parked in a sync.Pool (core parks each generation's pair)
// keeps no Problem alive, and because ids are not reissued it meets every
// later problem exactly as a zero Solver would. What crosses from one owner
// to the next is capacity.
type Solver struct {
	sf    standardForm
	bTrue []float64 // equilibrated RHS before perturbation
	st    sparseState
	rng   *rand.Rand
	// The problem sf was last built from, and its structural revision: while
	// both match, only the objective can have changed, and the standard form,
	// its scales and the RHS carry over.
	prob uint64
	rev  int
}

// Solve is the package-level Solve on this workspace. The X, Duals and Basis
// of the Solution it returns are the workspace's own arrays: they are valid
// until the next Solve on this Solver, and a caller that needs them longer
// copies them.
func (sv *Solver) Solve(p *Problem, opt *Options) (*Solution, error) {
	if len(p.rows) == 0 {
		// Unconstrained over x >= 0: x = 0 is optimal unless some cost is
		// negative, and then that variable grows without bound.
		for _, cj := range p.c {
			if cj < -optTol {
				return &Solution{Status: Unbounded}, nil
			}
		}
		return &Solution{Status: Optimal, X: make([]float64, p.nv), Duals: []float64{}}, nil
	}
	sf := &sv.sf
	if sv.prob == p.id && sv.rev == p.rev {
		sf.setObjective(p.c)
		copy(sf.b, sv.bTrue)
	} else {
		sf.load(p)
		sf.equilibrate(3)
		sv.bTrue = append(sv.bTrue[:0], sf.b...)
		sv.prob, sv.rev = p.id, p.rev
	}

	// Optional RHS perturbation to break degeneracy (CORGI's Geo-Ind rows
	// all have b=0, which otherwise causes severe stalling).
	if opt.perturb() {
		if sv.rng == nil {
			sv.rng = rand.New(rand.NewSource(opt.seed()))
		} else {
			sv.rng.Seed(opt.seed())
		}
		for i := range sf.b {
			sf.b[i] += pertScale * (1 + sv.rng.Float64())
		}
	}
	sv.st.reset(sf, opt)
	return sv.st.run(p, sv.bTrue, opt), nil
}

const (
	optTol     = 1e-9  // feasibility / optimality tolerance
	pivotTol   = 1e-8  // ratio-test / reinversion pivot threshold
	dropTol    = 1e-12 // entries below this are dropped from etas
	pertScale  = 1e-8  // RHS perturbation magnitude
	stallLimit = 256   // degenerate pivots before switching to Bland
)

// refactorEtas is the pivot count between reinversions. It is a variable so
// tests can force frequent reinversion.
var refactorEtas = 80

type sparseState struct {
	sf *standardForm
	m  int
	n  int // structural + slack columns (artificials are n..n+m-1)

	basis   []int // basis[i] = column pivoted at row i
	inBasis []bool
	factor
	xB       []float64 // current basic values, aligned with rows
	work     []float64 // dense scratch for FTRAN
	stamp    []int64   // touch epochs for work
	epoch    int64
	touched  []int32
	y        []float64 // dual scratch
	costs    []float64 // current phase costs, length n+m
	segCur   int
	iters    int
	maxIters int
	// reinversions counts reinvert calls in this solve.
	reinversions int

	artRow  [1]int32  // colOf's row slice for an artificial column
	rowVec  []float64 // dualCleanup: e_r^T B^{-1}; run: row activities of the self-check
	warmCol []int     // tryWarmBasis: the decoded warm basis
	crash   []int     // tryWarmBasis: the crash basis to fall back to

	// The arrays of the Solution run returns.
	x, duals []float64
	basisOut []int
}

// resize returns s with length n, reusing its array when that is large
// enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reset readies the state for a solve of sf from the identity factorisation,
// keeping every array it already owns that is large enough. Nothing of the
// previous solve survives but the epoch counter, which only ever has to move
// forward.
func (s *sparseState) reset(sf *standardForm, opt *Options) {
	m, n := sf.m, sf.n
	s.sf, s.m, s.n = sf, m, n
	s.maxIters = opt.maxIters(m, n)
	s.basis = resize(s.basis, m)
	s.inBasis = resize(s.inBasis, n+m)
	s.xB = resize(s.xB, m)
	s.work = resize(s.work, m)
	s.stamp = resize(s.stamp, m) // stale stamps are all below the next epoch
	s.y = resize(s.y, m)
	s.costs = resize(s.costs, n+m)
	clear(s.inBasis)
	clear(s.work) // dualCleanup reads work[r] whether or not ftran touched row r
	clear(s.costs)
	s.clearFactor()
	s.segCur, s.iters, s.reinversions = 0, 0, 0
}

var unitVal = []float64{1}

// colOf returns column j including artificials (e_i for j = n+i). An
// artificial's row slice is invalidated by the next colOf.
func (s *sparseState) colOf(j int) (rows []int32, vals []float64) {
	if j < s.n {
		return s.sf.col(j)
	}
	s.artRow[0] = int32(j - s.n)
	return s.artRow[:], unitVal
}

// ftran computes w = B^{-1} a_j into s.work, returning the touched indices.
// The returned slice is invalidated by the next ftran.
func (s *sparseState) ftran(rows []int32, vals []float64) []int32 {
	s.epoch++
	s.touched = s.touched[:0]
	w := s.work
	for k, r := range rows {
		v := vals[k]
		if d := s.diag[r]; d != 1 && v != 0 {
			v /= d
		}
		w[r] = v
		s.stamp[r] = s.epoch
		s.touched = append(s.touched, r)
	}
	for e := range s.etas {
		et := &s.etas[e]
		r := et.r
		if s.stamp[r] != s.epoch {
			continue
		}
		t := w[r]
		if t == 0 {
			continue
		}
		t /= et.pivot
		eIdx, eVal := s.etaCol(et)
		for k, j := range eIdx {
			if j == r {
				continue
			}
			if s.stamp[j] != s.epoch {
				s.stamp[j] = s.epoch
				s.touched = append(s.touched, j)
				w[j] = 0
			}
			w[j] -= eVal[k] * t
		}
		w[r] = t
	}
	return s.touched
}

// ftranDense applies B^{-1} to a dense vector in place.
func (s *sparseState) ftranDense(x []float64) {
	for r, d := range s.diag {
		if t := x[r]; d != 1 && t != 0 {
			x[r] = t / d
		}
	}
	for e := range s.etas {
		et := &s.etas[e]
		t := x[et.r]
		if t == 0 {
			continue
		}
		t /= et.pivot
		idx, vals := s.etaCol(et)
		for k, j := range idx {
			if j == et.r {
				continue
			}
			x[j] -= vals[k] * t
		}
		x[et.r] = t
	}
}

// btran applies B^{-T} to a dense vector in place (reverse eta order).
func (s *sparseState) btran(y []float64) {
	for e := len(s.etas) - 1; e >= 0; e-- {
		et := &s.etas[e]
		r := et.r
		sum := 0.0
		idx, vals := s.etaCol(et)
		for k, j := range idx {
			if j == r {
				continue
			}
			sum += vals[k] * y[j]
		}
		y[r] = (y[r] - sum) / et.pivot
	}
	for r, d := range s.diag {
		if d != 1 {
			y[r] /= d
		}
	}
}

// appendEta records the pivot of the transformed column w (given by touched
// indices into s.work) at row r.
func (s *sparseState) appendEta(r int32, touched []int32) {
	w := s.work
	lo := int32(len(s.etaIdx))
	for _, j := range touched {
		v := w[j]
		if j != r && math.Abs(v) < dropTol {
			continue
		}
		s.etaIdx = append(s.etaIdx, j)
		s.etaVal = append(s.etaVal, v)
	}
	s.etas = append(s.etas, eta{r: r, lo: lo, hi: int32(len(s.etaIdx)), pivot: w[r]})
}

// refreshXB recomputes xB = B^{-1} b.
func (s *sparseState) refreshXB() {
	copy(s.xB, s.sf.b)
	s.ftranDense(s.xB)
}

// computeDuals sets s.y = B^{-T} c_B for the current phase costs.
func (s *sparseState) computeDuals() {
	for i := 0; i < s.m; i++ {
		s.y[i] = s.costs[s.basis[i]]
	}
	s.btran(s.y)
}

// reducedCost returns d_j = c_j - y·a_j.
func (s *sparseState) reducedCost(j int) float64 {
	d := s.costs[j]
	rows, vals := s.colOf(j)
	for k, r := range rows {
		d -= s.y[r] * vals[k]
	}
	return d
}

// price selects an entering column with negative reduced cost, or -1 at
// optimality. In Bland mode it returns the lowest-index eligible column;
// otherwise it uses partial pricing (segment scan, most negative wins).
// allowArtificials is false in every phase (artificials never re-enter).
func (s *sparseState) price(bland bool) int {
	nCols := s.n
	dTol := optTol
	if bland {
		for j := 0; j < nCols; j++ {
			if s.inBasis[j] {
				continue
			}
			if s.reducedCost(j) < -dTol {
				return j
			}
		}
		return -1
	}
	segSize := nCols / 16
	if segSize < 256 {
		segSize = 256
	}
	start := s.segCur
	scanned := 0
	for scanned < nCols {
		end := start + segSize
		best, bestD := -1, -dTol
		for j := start; j < end && j < nCols; j++ {
			if s.inBasis[j] {
				continue
			}
			if d := s.reducedCost(j); d < bestD {
				bestD = d
				best = j
			}
		}
		scanned += segSize
		start = end
		if start >= nCols {
			start = 0
		}
		if best >= 0 {
			s.segCur = start
			return best
		}
	}
	return -1
}

// phaseResult is the outcome of a primal simplex phase.
type phaseResult int

const (
	phaseOptimal phaseResult = iota
	phaseUnbounded
	phaseIterLimit
	phaseSingular
)

// primalLoop runs primal simplex pivots with the current costs until
// optimality/unboundedness. It maintains xB, basis, and the eta file.
//
// The ratio test is a Harris-style two-pass: pass 1 finds the tightest
// slightly-relaxed bound theta_max, pass 2 picks, among rows whose exact
// ratio does not exceed it, the one with the largest pivot element. CORGI's
// Geo-Ind constraints carry multipliers up to e^{eps*d} ~ 1e6, where the
// classic min-ratio rule happily pivots on 1e-6-scale elements and destroys
// the factorization; the two-pass rule is the standard cure.
func (s *sparseState) primalLoop() phaseResult {
	degenRun := 0
	confirmations := 0
	etaBase := len(s.etas)
	forceReinvert := false
	s.computeDuals()
	for ; s.iters < s.maxIters; s.iters++ {
		if forceReinvert || len(s.etas)-etaBase >= refactorEtas {
			if err := s.reinvert(); err != nil {
				return phaseSingular
			}
			etaBase = len(s.etas)
			forceReinvert = false
			s.refreshXB()
			s.computeDuals()
		}
		bland := degenRun >= stallLimit
		q := s.price(bland)
		if q < 0 {
			// Confirm optimality against a fresh factorization: drift in
			// the eta file can hide negative reduced costs.
			if len(s.etas) > etaBase && confirmations < 20 {
				confirmations++
				if err := s.reinvert(); err != nil {
					return phaseSingular
				}
				etaBase = len(s.etas)
				s.refreshXB()
				s.computeDuals()
				if q = s.price(bland); q < 0 {
					return phaseOptimal
				}
			} else {
				return phaseOptimal
			}
		}
		rows, vals := s.colOf(q)
		touched := s.ftran(rows, vals)
		// Pass 1: relaxed bound.
		const feasTol = 1e-9
		thetaMax := math.Inf(1)
		for _, i := range touched {
			wi := s.work[i]
			if wi <= pivotTol {
				continue
			}
			xb := s.xB[i]
			if xb < 0 {
				xb = 0
			}
			if t := (xb + feasTol) / wi; t < thetaMax {
				thetaMax = t
			}
		}
		if math.IsInf(thetaMax, 1) {
			return phaseUnbounded
		}
		// Pass 2: among admissible rows pick the most stable pivot (largest
		// |w|); in Bland mode pick the smallest leaving variable index.
		r := int32(-1)
		bestW := 0.0
		for _, i := range touched {
			wi := s.work[i]
			if wi <= pivotTol {
				continue
			}
			xb := s.xB[i]
			if xb < 0 {
				xb = 0
			}
			if xb/wi > thetaMax {
				continue
			}
			if bland {
				if r < 0 || s.basis[i] < s.basis[r] {
					r = i
					bestW = wi
				}
			} else if wi > bestW {
				r = i
				bestW = wi
			}
		}
		if r < 0 {
			return phaseUnbounded
		}
		theta := s.xB[r] / s.work[r]
		if theta < 0 {
			theta = 0
		}
		if theta < optTol {
			degenRun++
		} else {
			degenRun = 0
		}
		// Update basic values: xB -= theta * w; entering takes theta.
		if theta != 0 {
			for _, i := range touched {
				s.xB[i] -= theta * s.work[i]
				if s.xB[i] < 0 && s.xB[i] > -feasTol {
					s.xB[i] = 0
				}
			}
		}
		leaving := s.basis[r]
		s.inBasis[leaving] = false
		s.inBasis[q] = true
		s.basis[r] = q
		s.xB[r] = theta
		s.appendEta(r, touched)
		// A pivot much smaller than the column's largest transformed entry
		// signals dangerous element growth: refactor immediately.
		colMax := 0.0
		for _, i := range touched {
			if a := math.Abs(s.work[i]); a > colMax {
				colMax = a
			}
		}
		if bestW < 1e-7*colMax {
			forceReinvert = true
		}
		s.computeDuals()
	}
	return phaseIterLimit
}

// dualCleanup restores primal feasibility after the RHS perturbation is
// removed, using dual simplex pivots (the basis is dual feasible because it
// was primal optimal for the perturbed problem).
func (s *sparseState) dualCleanup() phaseResult {
	s.rowVec = resize(s.rowVec, s.m)
	rowVec := s.rowVec
	etaBase := len(s.etas)
	for ; s.iters < s.maxIters; s.iters++ {
		// Leaving row: most negative basic value.
		r, worst := -1, -optTol
		for i := 0; i < s.m; i++ {
			if s.xB[i] < worst {
				worst = s.xB[i]
				r = i
			}
		}
		if r < 0 {
			return phaseOptimal
		}
		// rowVec = e_r^T B^{-1}.
		for i := range rowVec {
			rowVec[i] = 0
		}
		rowVec[r] = 1
		s.btran(rowVec)
		s.computeDuals()
		// Entering: min ratio d_j / (-alpha_j) over alpha_j < -pivotTol.
		q, bestRatio, bestAlpha := -1, math.Inf(1), 0.0
		for j := 0; j < s.n; j++ {
			if s.inBasis[j] {
				continue
			}
			rows, vals := s.sf.col(j)
			alpha := 0.0
			for k, i := range rows {
				alpha += rowVec[i] * vals[k]
			}
			if alpha >= -pivotTol {
				continue
			}
			d := s.reducedCost(j)
			if d < 0 {
				d = 0 // numerical dust; dual feasibility holds by construction
			}
			ratio := d / -alpha
			if ratio < bestRatio-optTol || (ratio < bestRatio+optTol && -alpha > -bestAlpha) {
				bestRatio, bestAlpha, q = ratio, alpha, j
			}
		}
		if q < 0 {
			return phaseUnbounded // primal infeasible row with no pivot: infeasible after cleanup
		}
		rows, vals := s.colOf(q)
		touched := s.ftran(rows, vals)
		wr := s.work[r]
		if math.Abs(wr) < pivotTol {
			return phaseSingular
		}
		theta := s.xB[r] / wr
		for _, i := range touched {
			s.xB[i] -= theta * s.work[i]
		}
		leaving := s.basis[r]
		s.inBasis[leaving] = false
		s.inBasis[q] = true
		s.basis[r] = q
		s.xB[r] = theta
		s.appendEta(int32(r), touched)
		// Like primalLoop, count pivots since the last reinversion, not the
		// length of the eta file: a reinversion alone leaves more etas than
		// any fixed bound once the basis is a few hundred rows.
		if len(s.etas)-etaBase >= refactorEtas*4 {
			if err := s.reinvert(); err != nil {
				return phaseSingular
			}
			etaBase = len(s.etas)
			s.refreshXB()
		}
	}
	return phaseIterLimit
}

// tryWarmBasis swaps the just-installed crash basis for a caller-supplied
// warm basis (Options.WarmBasis encoding). The warm basis is accepted only
// if it is structurally valid, factors without singularity, and is primal
// feasible for the current (possibly perturbed) RHS; any failure restores
// the crash state exactly and reports false. Basis membership is a column
// set, so warm bases survive re-equilibration and RHS perturbation across
// solves unchanged.
func (s *sparseState) tryWarmBasis(warm []int) bool {
	if len(warm) != s.m {
		return false
	}
	s.warmCol = resize(s.warmCol, s.m)
	cols := s.warmCol
	for i, w := range warm {
		j := w
		if w < 0 {
			r := -w - 1
			if r >= s.m {
				return false
			}
			j = s.n + r
		} else if j >= s.n {
			return false
		}
		cols[i] = j
	}
	// inBasis holds the crash basis; mark the warm columns over it to catch
	// duplicates, then drop the crash marks.
	s.crash = append(s.crash[:0], s.basis...)
	dup := false
	for _, j := range s.crash {
		s.inBasis[j] = false
	}
	for _, j := range cols {
		dup = dup || s.inBasis[j]
		s.inBasis[j] = true
	}
	copy(s.basis, cols)
	if dup || s.reinvert() != nil {
		s.restoreCrash(cols)
		return false
	}
	s.refreshXB()
	for _, v := range s.xB {
		if v < -1e-7 {
			s.restoreCrash(cols)
			return false
		}
	}
	return true
}

// restoreCrash undoes a rejected warm basis: identity factorisation, crash
// basis, xB = b.
func (s *sparseState) restoreCrash(warm []int) {
	s.clearFactor()
	for _, j := range warm {
		s.inBasis[j] = false
	}
	copy(s.basis, s.crash)
	for _, j := range s.basis {
		s.inBasis[j] = true
	}
	copy(s.xB, s.sf.b)
}

// run executes phase 1, phase 2 and, if perturbed, the exact cleanup. The
// standard form has been equilibrated; rowScale/colScale recover original
// units.
func (s *sparseState) run(p *Problem, bTrue []float64, opt *Options) *Solution {
	flipped, rowScale, colScale := s.sf.flipped, s.sf.rowScale, s.sf.colScale
	// Initial basis: slack where the row has a +1 slack, artificial else.
	for i := 0; i < s.m; i++ {
		if s.sf.slackOf[i] >= 0 && s.sf.slackSign[i] == 1 {
			s.basis[i] = int(s.sf.slackOf[i])
		} else {
			s.basis[i] = s.n + i
		}
		s.inBasis[s.basis[i]] = true
	}
	copy(s.xB, s.sf.b)

	warm := false
	if wb := opt.warmBasis(); len(wb) > 0 {
		warm = s.tryWarmBasis(wb)
	}

	// Phase 1: minimize the sum of artificials (zero cost otherwise).
	nArt := 0
	for j := s.n; j < s.n+s.m; j++ {
		if s.inBasis[j] {
			s.costs[j] = 1
			nArt++
		}
	}
	if nArt > 0 {
		switch s.primalLoop() {
		case phaseIterLimit:
			return s.stopped(IterationLimit, "phase1 iteration limit")
		case phaseSingular:
			return s.stopped(NumericalFailure, "phase1 singular")
		case phaseUnbounded:
			return s.stopped(NumericalFailure, "phase1 unbounded")
		}
		infeas := 0.0
		for i := 0; i < s.m; i++ {
			if s.basis[i] >= s.n {
				infeas += s.xB[i]
			}
		}
		if infeas > 1e-7 {
			return s.stopped(Infeasible, "phase1 positive artificials")
		}
	}

	// Phase 2: the real objective. Artificials keep zero cost and are
	// barred from entering (price scans only j < n).
	for j := 0; j < s.n+s.m; j++ {
		s.costs[j] = 0
	}
	copy(s.costs[:s.sf.n], s.sf.c)
	switch s.primalLoop() {
	case phaseIterLimit:
		return s.stopped(IterationLimit, "phase2 iteration limit")
	case phaseUnbounded:
		return s.stopped(Unbounded, "phase2 unbounded")
	case phaseSingular:
		return s.stopped(NumericalFailure, "phase2 singular")
	}

	// Remove the perturbation and restore exact feasibility.
	if opt.perturb() {
		copy(s.sf.b, bTrue)
		s.refreshXB()
		switch s.dualCleanup() {
		case phaseIterLimit:
			return s.stopped(IterationLimit, "cleanup iteration limit")
		case phaseUnbounded:
			return s.stopped(Infeasible, "cleanup infeasible")
		case phaseSingular:
			return s.stopped(NumericalFailure, "cleanup singular")
		}
		// One more primal pass: cleanup may have left negative reduced costs.
		switch s.primalLoop() {
		case phaseIterLimit:
			return s.stopped(IterationLimit, "post-cleanup iteration limit")
		case phaseUnbounded:
			return s.stopped(Unbounded, "post-cleanup unbounded")
		case phaseSingular:
			return s.stopped(NumericalFailure, "post-cleanup singular")
		}
	}

	nv := p.NumVars()
	s.x = resize(s.x, nv)
	x := s.x
	clear(x)
	for i := 0; i < s.m; i++ {
		if j := s.basis[i]; j < nv {
			v := s.xB[i] * colScale[j]
			if v < 0 {
				v = 0
			}
			x[j] = v
		}
	}
	// Self-check in original units; refuse to report a corrupted point.
	s.rowVec = resize(s.rowVec, s.m)
	if _, bad := p.checkFeasible(x, 1e-6, s.rowVec); bad > 0 {
		return s.stopped(NumericalFailure, "final solution infeasible")
	}
	s.computeDuals()
	s.duals = resize(s.duals, s.m)
	for i := 0; i < s.m; i++ {
		yv := s.y[i] * rowScale[i]
		if flipped[i] {
			yv = -yv
		}
		s.duals[i] = yv
	}
	s.basisOut = resize(s.basisOut, s.m)
	for i, j := range s.basis {
		if j >= s.n {
			s.basisOut[i] = -(j - s.n + 1)
		} else {
			s.basisOut[i] = j
		}
	}
	return &Solution{
		Status:       Optimal,
		X:            x,
		Objective:    p.Eval(x),
		Duals:        s.duals,
		Iterations:   s.iters,
		Reinversions: s.reinversions,
		Basis:        s.basisOut,
		Warm:         warm,
	}
}

// stopped is the Solution of a solve that did not reach an optimum.
func (s *sparseState) stopped(status Status, note string) *Solution {
	return &Solution{Status: status, Iterations: s.iters, Reinversions: s.reinversions, Note: note}
}
