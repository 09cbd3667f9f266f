// Package lp is a from-scratch linear-programming toolkit — the substrate the
// paper obtains from Matlab's linprog (Sec. 6.1). It solves problems of the
// form
//
//	minimize    c·x
//	subject to  a_i·x  (<= | = | >=)  b_i     for each constraint i
//	            x >= 0
//
// The solver, Solve / Solver.Solve, is a sparse revised simplex using the
// product form of the inverse (PFI): CSC column storage, eta-file
// FTRAN/BTRAN, periodic reinversion with singleton-first ordering, partial
// pricing, optional RHS perturbation to defeat the massive primal
// degeneracy of CORGI's Geo-Ind constraint systems (every inequality has
// b = 0). Its correctness oracle, a textbook two-phase primal simplex on a
// dense tableau, lives in the test tree (dense_test.go).
//
// The sparse solver's working memory is flat arrays throughout. The eta file
// is one record per pivot over one index arena and one value arena, truncated
// at each reinversion. Reinversion pivots slack and artificial columns
// structurally — a slack's scaled coefficient becomes an entry of one diagonal
// vector, not an eta — and factors the remaining "bump" by
// threshold-Markowitz elimination over column spans in two more arenas, with
// per-row and per-column count arrays and the same epoch-stamp lookup FTRAN
// uses (factor.go). A Solver owns all of it, plus the standard form and its
// scales, and reuses it from solve to solve; when consecutive solves differ
// only in the objective the standard form and scales carry over too.
//
// The CORGI LPs are huge but extremely sparse — each Geo-Ind row has two
// structural nonzeros — which is exactly the regime PFI handles well.
package lp

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Sense is the direction of a linear constraint.
type Sense int8

// Constraint senses.
const (
	LE Sense = iota // a·x <= b
	GE              // a·x >= b
	EQ              // a·x == b
)

// String implements fmt.Stringer.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return fmt.Sprintf("Sense(%d)", int(s))
}

// row is one sparse constraint: its coefficients over the variables that
// existed when it was added are the span [lo, hi) of the problem's row arenas.
type row struct {
	sense  Sense
	b      float64
	lo, hi int32
}

// Problem is a linear program under construction. All variables are
// implicitly bounded below by zero and unbounded above.
//
// The matrix lives in two pairs of arenas. Constraint rows are spans of
// rowIdx/rowVal in the order they were added. A variable appended by
// AddColumn is a span of colRow/colVal, column-major: appending one touches
// no row. A row's coefficients are therefore its span followed by its entry
// in each later-appended column, in the order the columns came, which is the
// order a row-by-row rebuild would list them in.
type Problem struct {
	id     uint64 // process-unique, from NewProblem; with rev, what a Solver knows a problem by
	nv     int
	c      []float64
	rows   []row
	rowIdx []int32
	rowVal []float64
	// Appended column k is variable colVar[k] with entries
	// colRow/colVal[colPtr[k]:colPtr[k+1]], rows strictly increasing.
	colVar []int32
	colPtr []int32
	colRow []int32
	colVal []float64
	// rev counts structural changes (constraints and columns added), so a
	// Solver can tell a new objective from a new matrix.
	rev int
	// seen[j] == mark says variable j already occurs in the constraint being
	// added.
	seen []int
	mark int
}

// NewProblem creates a problem with numVars non-negative variables and an
// all-zero objective.
func NewProblem(numVars int) *Problem {
	if numVars < 1 {
		panic("lp: problem needs at least one variable")
	}
	return &Problem{id: problemIDs.Add(1), nv: numVars, c: make([]float64, numVars)}
}

var problemIDs atomic.Uint64

// Reset empties p into the problem NewProblem(numVars) returns, keeping the
// arrays it has grown. It takes a new id, so a Solver that last loaded p
// loads it again instead of taking the rebuilt problem, whose revision starts
// over, for the old one. mark goes on counting, so a variable that a
// constraint added before the Reset named is no duplicate in one added after.
func (p *Problem) Reset(numVars int) {
	if numVars < 1 {
		panic("lp: problem needs at least one variable")
	}
	p.id, p.nv, p.rev = problemIDs.Add(1), numVars, 0
	p.c = resize(p.c, numVars)
	clear(p.c)
	p.rows, p.rowIdx, p.rowVal = p.rows[:0], p.rowIdx[:0], p.rowVal[:0]
	p.colVar, p.colPtr, p.colRow, p.colVal = p.colVar[:0], p.colPtr[:0], p.colRow[:0], p.colVal[:0]
}

// NumVars returns the number of variables.
func (p *Problem) NumVars() int { return p.nv }

// SetObjective sets the (minimization) objective coefficients. The slice is
// copied. len(c) must equal NumVars.
func (p *Problem) SetObjective(c []float64) error {
	if len(c) != p.nv {
		return fmt.Errorf("lp: objective has %d coefficients, want %d", len(c), p.nv)
	}
	for i, v := range c {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("lp: objective coefficient %d is %v", i, v)
		}
	}
	copy(p.c, c)
	return nil
}

// SetObjectiveCoeff sets a single objective coefficient.
func (p *Problem) SetObjectiveCoeff(j int, v float64) error {
	if j < 0 || j >= p.nv {
		return fmt.Errorf("lp: variable %d out of range [0,%d)", j, p.nv)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("lp: objective coefficient is %v", v)
	}
	p.c[j] = v
	return nil
}

// AddConstraint appends the constraint sum(val[k]*x[idx[k]]) sense b.
// Duplicate indices within one constraint are rejected.
func (p *Problem) AddConstraint(sense Sense, b float64, idx []int, val []float64) error {
	if len(idx) != len(val) {
		return fmt.Errorf("lp: %d indices but %d values", len(idx), len(val))
	}
	if len(idx) == 0 {
		return fmt.Errorf("lp: empty constraint")
	}
	if math.IsNaN(b) || math.IsInf(b, 0) {
		return fmt.Errorf("lp: rhs is %v", b)
	}
	if sense != LE && sense != GE && sense != EQ {
		return fmt.Errorf("lp: invalid sense %d", sense)
	}
	if len(p.seen) < p.nv {
		p.seen = append(p.seen, make([]int, p.nv-len(p.seen))...)
	}
	p.mark++
	lo := len(p.rowIdx)
	for k, j := range idx {
		var err error
		switch {
		case j < 0 || j >= p.nv:
			err = fmt.Errorf("lp: variable %d out of range [0,%d)", j, p.nv)
		case p.seen[j] == p.mark:
			err = fmt.Errorf("lp: duplicate variable %d in constraint", j)
		case math.IsNaN(val[k]) || math.IsInf(val[k], 0):
			err = fmt.Errorf("lp: coefficient for variable %d is %v", j, val[k])
		}
		if err != nil {
			p.rowIdx, p.rowVal = p.rowIdx[:lo], p.rowVal[:lo]
			return err
		}
		p.seen[j] = p.mark
		if val[k] == 0 {
			continue
		}
		p.rowIdx = append(p.rowIdx, int32(j))
		p.rowVal = append(p.rowVal, val[k])
	}
	p.rows = append(p.rows, row{sense: sense, b: b, lo: int32(lo), hi: int32(len(p.rowIdx))})
	p.rev++
	return nil
}

// rowSpan returns the coefficients row r was added with.
func (p *Problem) rowSpan(r *row) ([]int32, []float64) {
	return p.rowIdx[r.lo:r.hi], p.rowVal[r.lo:r.hi]
}

// appended returns the variable and the entries of appended column k.
func (p *Problem) appended(k int) (j int32, rows []int32, vals []float64) {
	lo, hi := p.colPtr[k], p.colPtr[k+1]
	return p.colVar[k], p.colRow[lo:hi], p.colVal[lo:hi]
}

// AddColumn appends a new non-negative variable with objective coefficient c
// and coefficient vals[k] in the existing constraint rows[k], and returns its
// index. rows must be strictly increasing. This is how a column-generation
// master grows: the result is the problem that building every constraint
// again with the new variable last would give.
func (p *Problem) AddColumn(c float64, rows []int, vals []float64) (int, error) {
	if len(rows) != len(vals) {
		return 0, fmt.Errorf("lp: %d rows but %d values", len(rows), len(vals))
	}
	if math.IsNaN(c) || math.IsInf(c, 0) {
		return 0, fmt.Errorf("lp: objective coefficient is %v", c)
	}
	for k, i := range rows {
		if i < 0 || i >= len(p.rows) {
			return 0, fmt.Errorf("lp: constraint %d out of range [0,%d)", i, len(p.rows))
		}
		if k > 0 && i <= rows[k-1] {
			return 0, fmt.Errorf("lp: column rows not strictly increasing at constraint %d", i)
		}
		if math.IsNaN(vals[k]) || math.IsInf(vals[k], 0) {
			return 0, fmt.Errorf("lp: coefficient for constraint %d is %v", i, vals[k])
		}
	}
	j := p.nv
	if len(p.colPtr) == 0 {
		p.colPtr = append(p.colPtr, 0)
	}
	p.colRow, p.colVal = reserve(p.colRow, len(rows)), reserve(p.colVal, len(rows))
	for k, i := range rows {
		if vals[k] == 0 {
			continue
		}
		p.colRow = append(p.colRow, int32(i))
		p.colVal = append(p.colVal, vals[k])
	}
	p.colVar = append(p.colVar, int32(j))
	p.colPtr = append(p.colPtr, int32(len(p.colRow)))
	p.c = append(p.c, c)
	p.nv++
	p.rev++
	return j, nil
}

// reserve returns s with room for n more elements, doubling when it has to
// grow. A column-generation master appends thousands of columns to these
// arenas, and append grows a slice of that size in 1.25x steps; doubling
// reallocates an arena a logarithmic number of times per problem, and a
// problem that is Reset keeps what it grew.
func reserve[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	grown := make([]T, len(s), max(2*cap(s), len(s)+n))
	copy(grown, s)
	return grown
}

// Status is the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterationLimit
	NumericalFailure
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterationLimit:
		return "iteration-limit"
	case NumericalFailure:
		return "numerical-failure"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Solution is the result of a solve. Solver.Solve returns the Solver's own
// Solution, with X, Duals and Basis in the Solver's own arrays, all of it
// overwritten by its next Solve; from the package-level Solve it is the
// caller's.
type Solution struct {
	Status     Status
	X          []float64 // primal values, length NumVars (valid when Optimal)
	Objective  float64   // c·X
	Duals      []float64 // one per constraint (valid when Optimal)
	Iterations int       // total simplex pivots across phases
	// Reinversions counts the basis factorisations the sparse solver built
	// during this solve: warm installs, periodic refactors and optimality
	// confirmations.
	Reinversions int
	Note         string // diagnostic detail for non-optimal statuses
	// Basis is the optimal basis in Options.WarmBasis encoding (valid when
	// Optimal and the sparse solver ran): one entry per constraint row —
	// a standard-form column index (structurals first, then slacks) when
	// >= 0, or -(i+1) for row i's artificial. Feed it to a related solve's
	// WarmBasis to skip phase 1 and most of phase 2.
	Basis []int
	// Warm reports whether a caller-supplied WarmBasis was accepted as the
	// starting point of this solve.
	Warm bool
}

// Options tunes the solvers. The zero value asks for defaults.
type Options struct {
	// MaxIters bounds total simplex pivots. Default: 50*(m+n)+10000.
	MaxIters int
	// Perturb enables random RHS perturbation to break degeneracy in the
	// sparse solver (recommended for highly degenerate systems). After the
	// perturbed solve the true RHS is restored and the solve is finished
	// exactly from the same basis.
	Perturb bool
	// WarmBasis seeds the sparse solver with a starting basis, typically a
	// prior related solve's Solution.Basis. One entry per constraint row:
	// >= 0 names a standard-form column (structural variables first, then
	// slacks in row order), -(i+1) names row i's artificial. The basis is
	// installed only if it factors cleanly and is primal feasible for the
	// current RHS; otherwise the solver silently falls back to the standard
	// crash basis. An accepted warm basis with no artificials skips phase 1
	// entirely.
	WarmBasis []int
}

func (o *Options) maxIters(m, n int) int {
	if o == nil || o.MaxIters <= 0 {
		return 50*(m+n) + 10000
	}
	return o.MaxIters
}

func (o *Options) perturb() bool { return o != nil && o.Perturb }

func (o *Options) warmBasis() []int {
	if o == nil {
		return nil
	}
	return o.WarmBasis
}

// Eval returns c·x for this problem's objective.
func (p *Problem) Eval(x []float64) float64 {
	obj := 0.0
	for j, v := range p.c {
		obj += v * x[j]
	}
	return obj
}

// CheckFeasible verifies x against every constraint and the non-negativity
// bounds, returning the worst absolute violation found (0 when feasible
// within tol).
func (p *Problem) CheckFeasible(x []float64, tol float64) (maxViolation float64, violated int) {
	return p.checkFeasible(x, tol, nil)
}

// checkFeasible is CheckFeasible with the caller's scratch for the row
// activities (grown if it is too short).
func (p *Problem) checkFeasible(x []float64, tol float64, ax []float64) (maxViolation float64, violated int) {
	if len(x) != p.nv {
		return math.Inf(1), p.nv
	}
	check := func(v float64) {
		if v > tol {
			violated++
			if v > maxViolation {
				maxViolation = v
			}
		}
	}
	for _, xi := range x {
		check(-xi)
	}
	// A row's activity adds up its own span first, then the appended columns
	// in the order they came.
	ax = resize(ax, len(p.rows))
	for i := range p.rows {
		idx, val := p.rowSpan(&p.rows[i])
		sum := 0.0
		for k, j := range idx {
			sum += val[k] * x[j]
		}
		ax[i] = sum
	}
	for k := range p.colVar {
		j, rows, vals := p.appended(k)
		for e, i := range rows {
			ax[i] += vals[e] * x[j]
		}
	}
	for i, r := range p.rows {
		switch r.sense {
		case LE:
			check(ax[i] - r.b)
		case GE:
			check(r.b - ax[i])
		case EQ:
			check(math.Abs(ax[i] - r.b))
		}
	}
	return maxViolation, violated
}

// standardForm is min c·x s.t. Ax = b, x >= 0 with b >= 0, produced by
// adding slack/surplus variables and flipping negative-RHS rows. Columns
// 0..nv-1 are the structural variables; slack columns follow. load fills it
// from a Problem and equilibrate rescales it, both into the arrays it already
// has when they are large enough.
type standardForm struct {
	m, n int // n includes slacks, excludes artificials
	nv   int // structural variable count (columns [0,nv) are structural)
	// CSC structural+slack matrix.
	colPtr []int32
	rowIdx []int32
	vals   []float64
	c      []float64 // length n
	b      []float64 // length m, >= 0
	// slackOf[i] is the column index of row i's slack, or -1 (EQ rows).
	// slackSign[i] is +1 (row had <=) or -1 (>=) after RHS normalization.
	slackOf   []int32
	slackSign []int8
	// flipped[i] says row i was negated to make its RHS non-negative; its
	// dual changes sign on the way back.
	flipped []bool
	// The scales equilibrate applied.
	rowScale, colScale []float64

	next           []int32   // load: per-column fill cursor
	rowMax, rowMin []float64 // equilibrate: per-row extremes
}

// load converts p into sf, unscaled; equilibrate comes next.
func (sf *standardForm) load(p *Problem) {
	m := len(p.rows)
	nSlack := 0
	for _, r := range p.rows {
		if r.sense != EQ {
			nSlack++
		}
	}
	n := p.nv + nSlack
	sf.m, sf.n, sf.nv = m, n, p.nv
	sf.c = resize(sf.c, n)
	sf.b = resize(sf.b, m)
	sf.slackOf = resize(sf.slackOf, m)
	sf.slackSign = resize(sf.slackSign, m)
	sf.flipped = resize(sf.flipped, m)
	clear(sf.slackSign)
	clear(sf.flipped)
	clear(sf.c[copy(sf.c, p.c):])

	// Row data first: the appended columns below need every row's sign.
	slackCol := p.nv
	for i, r := range p.rows {
		b := r.b
		if b < 0 {
			b = -b
			sf.flipped[i] = true
		}
		sf.b[i] = b
		sf.slackOf[i] = -1
		if r.sense != EQ {
			sf.slackOf[i] = int32(slackCol)
			sf.slackSign[i] = 1
			if (r.sense == GE) != sf.flipped[i] {
				sf.slackSign[i] = -1
			}
			slackCol++
		}
	}

	// Count column nonzeros.
	counts := resize(sf.colPtr, n+1)
	clear(counts)
	for _, j := range p.rowIdx {
		counts[j+1]++
	}
	for k, j := range p.colVar {
		counts[j+1] += p.colPtr[k+1] - p.colPtr[k]
	}
	for j := p.nv; j < n; j++ {
		counts[j+1] = 1
	}
	for j := 0; j < n; j++ {
		counts[j+1] += counts[j]
	}
	sf.colPtr = counts
	nnz := int(counts[n])
	sf.rowIdx = resize(sf.rowIdx, nnz)
	sf.vals = resize(sf.vals, nnz)

	// Fill. A column's entries go in row order: an appended column's own
	// entries sit in rows older than any constraint that names it.
	sf.next = resize(sf.next, n)
	next := sf.next
	copy(next, counts[:n])
	put := func(j int32, i int, v float64) {
		if sf.flipped[i] {
			v = -v
		}
		pos := next[j]
		sf.rowIdx[pos] = int32(i)
		sf.vals[pos] = v
		next[j]++
	}
	for k := range p.colVar {
		j, rows, vals := p.appended(k)
		for e, i := range rows {
			put(j, int(i), vals[e])
		}
	}
	for i := range p.rows {
		idx, val := p.rowSpan(&p.rows[i])
		for k, j := range idx {
			put(j, i, val[k])
		}
		if s := sf.slackOf[i]; s >= 0 {
			pos := next[s]
			sf.rowIdx[pos] = int32(i)
			sf.vals[pos] = float64(sf.slackSign[i])
			next[s]++
		}
	}
}

// setObjective replaces the objective with c (structural variables, original
// units) under the column scales already applied to the matrix.
func (sf *standardForm) setObjective(c []float64) {
	for j, v := range c {
		sf.c[j] = v * sf.colScale[j]
	}
}

// col returns the sparse column j of the standard-form matrix.
func (sf *standardForm) col(j int) (rows []int32, vals []float64) {
	lo, hi := sf.colPtr[j], sf.colPtr[j+1]
	return sf.rowIdx[lo:hi], sf.vals[lo:hi]
}

// equilibrate rescales the standard form by iterative geometric-mean
// row/column scaling and returns the applied scales. CORGI's Geo-Ind rows
// mix coefficients 1 and e^{eps*d} (up to ~1e6); without equilibration the
// simplex factorizations overflow their useful precision. After solving the
// scaled problem, recover the original solution as
//
//	x[j] = colScale[j] * xScaled[j],   y[i] = rowScale[i] * yScaled[i].
//
// b and c are scaled in place alongside the matrix.
func (sf *standardForm) equilibrate(iters int) (rowScale, colScale []float64) {
	sf.rowScale = resize(sf.rowScale, sf.m)
	sf.colScale = resize(sf.colScale, sf.n)
	rowScale, colScale = sf.rowScale, sf.colScale
	for i := range rowScale {
		rowScale[i] = 1
	}
	for j := range colScale {
		colScale[j] = 1
	}
	sf.rowMax = resize(sf.rowMax, sf.m)
	sf.rowMin = resize(sf.rowMin, sf.m)
	rowMax, rowMin := sf.rowMax, sf.rowMin
	for pass := 0; pass < iters; pass++ {
		// Column pass.
		for j := 0; j < sf.n; j++ {
			lo, hi := sf.colPtr[j], sf.colPtr[j+1]
			if lo == hi {
				continue
			}
			mx, mn := 0.0, math.Inf(1)
			for k := lo; k < hi; k++ {
				a := math.Abs(sf.vals[k]) * rowScale[sf.rowIdx[k]] * colScale[j]
				if a == 0 {
					continue
				}
				if a > mx {
					mx = a
				}
				if a < mn {
					mn = a
				}
			}
			if mx > 0 {
				colScale[j] /= math.Sqrt(mx * mn)
			}
		}
		// Row pass.
		for i := range rowMax {
			rowMax[i], rowMin[i] = 0, math.Inf(1)
		}
		for j := 0; j < sf.n; j++ {
			lo, hi := sf.colPtr[j], sf.colPtr[j+1]
			for k := lo; k < hi; k++ {
				i := sf.rowIdx[k]
				a := math.Abs(sf.vals[k]) * rowScale[i] * colScale[j]
				if a == 0 {
					continue
				}
				if a > rowMax[i] {
					rowMax[i] = a
				}
				if a < rowMin[i] {
					rowMin[i] = a
				}
			}
		}
		for i := 0; i < sf.m; i++ {
			if rowMax[i] > 0 {
				rowScale[i] /= math.Sqrt(rowMax[i] * rowMin[i])
			}
		}
	}
	// Apply to the matrix, RHS, and objective.
	for j := 0; j < sf.n; j++ {
		lo, hi := sf.colPtr[j], sf.colPtr[j+1]
		for k := lo; k < hi; k++ {
			sf.vals[k] *= rowScale[sf.rowIdx[k]] * colScale[j]
		}
		sf.c[j] *= colScale[j]
	}
	for i := 0; i < sf.m; i++ {
		sf.b[i] *= rowScale[i]
	}
	return rowScale, colScale
}
