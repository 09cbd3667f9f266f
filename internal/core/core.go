// Package core implements CORGI's primary contribution: generation of
// customizable, robust geo-obfuscation matrices (Sec. 4) and the
// server/user control flow around them (Sec. 5).
//
// The pipeline is:
//
//	Instance (cells + priors + targets)
//	   -> linear program of Equ. (8)  [graph-approximated constraints, Sec. 4.2]
//	   -> robust iteration of Algorithm 1 [reserved privacy budget, Sec. 4.4]
//	   -> obf.Matrix, customized user-side by pruning (Sec. 4.3) and
//	      precision reduction (Sec. 4.5).
package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"corgi/internal/budget"
	"corgi/internal/geo"
	"corgi/internal/graphx"
	"corgi/internal/hexgrid"
	"corgi/internal/lp"
	"corgi/internal/obf"
)

// Instance is one obfuscation-matrix generation problem: a finite location
// set V (leaf hex cells), a prior over it, and the target locations Q whose
// travel-cost estimation error defines the quality loss (Equ. 6/7).
type Instance struct {
	sys     *hexgrid.System
	level   int // hex-lattice level of the cells (0 = leaves)
	cells   []hexgrid.Coord
	priors  []float64 // normalized
	graph   *graphx.Graph
	centers []geo.LatLng
	cost    [][]float64 // c[k][l] = E_q |d(k,q)-d(l,q)|  (Equ. 3/6)
	dist    [][]float64 // pairwise haversine center distances
}

// NewInstance builds an instance over the given level-0 cells of sys.
// priors must be non-negative with positive sum (normalized internally);
// targets with probabilities targetProbs (normalized likewise) define the
// quality-loss objective. mode selects the graph-approximation weighting.
func NewInstance(sys *hexgrid.System, cells []hexgrid.Coord, priors []float64,
	targets []geo.LatLng, targetProbs []float64, mode graphx.WeightMode) (*Instance, error) {
	return NewInstanceLevel(sys, 0, cells, priors, targets, targetProbs, mode)
}

// NewInstanceLevel is NewInstance over cells of an arbitrary lattice level
// (used when generating a matrix directly at a coarser precision level, the
// "matrix recalculation" alternative of Sec. 6.2.6).
func NewInstanceLevel(sys *hexgrid.System, level int, cells []hexgrid.Coord, priors []float64,
	targets []geo.LatLng, targetProbs []float64, mode graphx.WeightMode) (*Instance, error) {
	k := len(cells)
	if k < 2 {
		return nil, fmt.Errorf("core: need at least 2 cells, got %d", k)
	}
	if len(priors) != k {
		return nil, fmt.Errorf("core: %d priors for %d cells", len(priors), k)
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("core: need at least one target location")
	}
	if len(targetProbs) != len(targets) {
		return nil, fmt.Errorf("core: %d target probs for %d targets", len(targetProbs), len(targets))
	}
	pr, err := normalize(priors)
	if err != nil {
		return nil, fmt.Errorf("core: priors: %w", err)
	}
	tp, err := normalize(targetProbs)
	if err != nil {
		return nil, fmt.Errorf("core: target probs: %w", err)
	}
	g, err := graphx.Build(cells, func(a, b hexgrid.Coord) float64 {
		return sys.CenterDistance(level, a, b)
	}, mode)
	if err != nil {
		return nil, err
	}
	if !g.Connected() {
		return nil, fmt.Errorf("core: cell set is not connected under the 12-neighbor graph")
	}
	inst := &Instance{
		sys:     sys,
		level:   level,
		cells:   append([]hexgrid.Coord(nil), cells...),
		priors:  pr,
		graph:   g,
		centers: make([]geo.LatLng, k),
	}
	for i, c := range cells {
		inst.centers[i] = sys.Center(level, c)
	}
	inst.dist = make([][]float64, k)
	for i := range inst.dist {
		inst.dist[i] = make([]float64, k)
		for j := range inst.dist[i] {
			if i != j {
				inst.dist[i][j] = geo.Haversine(inst.centers[i], inst.centers[j])
			}
		}
	}
	// Cost matrix: c[k][l] = sum_q Pr(q) * |d(k,q) - d(l,q)|.
	dToTarget := make([][]float64, k)
	for i := range dToTarget {
		dToTarget[i] = make([]float64, len(targets))
		for q, tgt := range targets {
			dToTarget[i][q] = geo.Haversine(inst.centers[i], tgt)
		}
	}
	inst.cost = make([][]float64, k)
	for i := range inst.cost {
		inst.cost[i] = make([]float64, k)
		for j := range inst.cost[i] {
			s := 0.0
			for q := range targets {
				s += tp[q] * math.Abs(dToTarget[i][q]-dToTarget[j][q])
			}
			inst.cost[i][j] = s
		}
	}
	return inst, nil
}

func normalize(v []float64) ([]float64, error) {
	sum := 0.0
	for i, x := range v {
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("entry %d is %v", i, x)
		}
		sum += x
	}
	if sum <= 0 {
		return nil, fmt.Errorf("sum is %v, want positive", sum)
	}
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x / sum
	}
	return out, nil
}

// K returns the number of locations.
func (inst *Instance) K() int { return len(inst.cells) }

// Centers returns the geographic centers (do not modify).
func (inst *Instance) Centers() []geo.LatLng { return inst.centers }

// Priors returns the normalized priors (do not modify).
func (inst *Instance) Priors() []float64 { return inst.priors }

// Dist returns the haversine distance between cells i and j.
func (inst *Instance) Dist(i, j int) float64 { return inst.dist[i][j] }

// Cost returns the expected travel-cost estimation error of reporting l for k.
func (inst *Instance) Cost(k, l int) float64 { return inst.cost[k][l] }

// QualityLoss evaluates Equ. (7) for a matrix over this instance's cells.
func (inst *Instance) QualityLoss(m *obf.Matrix) (float64, error) {
	k := inst.K()
	if m.Dim() != k {
		return 0, fmt.Errorf("core: matrix dim %d vs %d cells", m.Dim(), k)
	}
	loss := 0.0
	for i := 0; i < k; i++ {
		row := m.Row(i)
		ci := inst.cost[i]
		s := 0.0
		for j := 0; j < k; j++ {
			s += row[j] * ci[j]
		}
		loss += inst.priors[i] * s
	}
	return loss, nil
}

// NeighborPairs returns the directed Geo-Ind constraint pairs under the
// graph approximation: both directions of every graph edge, carrying the
// edge's (possibly mode-scaled) weight as the budget distance.
func (inst *Instance) NeighborPairs() []obf.Pair {
	edges := inst.graph.Edges()
	out := make([]obf.Pair, 0, 2*len(edges))
	for _, e := range edges {
		out = append(out, obf.Pair{I: e.From, J: e.To, Dist: e.W})
		out = append(out, obf.Pair{I: e.To, J: e.From, Dist: e.W})
	}
	return out
}

// AllPairs returns every directed pair with true haversine distances: the
// un-approximated constraint set of Equ. (4), used for the Fig. 10
// comparison and for strict audits.
func (inst *Instance) AllPairs() []obf.Pair {
	k := inst.K()
	out := make([]obf.Pair, 0, k*(k-1))
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if i != j {
				out = append(out, obf.Pair{I: i, J: j, Dist: inst.dist[i][j]})
			}
		}
	}
	return out
}

// directSolveLimit is the largest K routed to the monolithic simplex;
// bigger instances use Dantzig-Wolfe decomposition (see dw.go), whose bases
// stay small and well-conditioned.
const directSolveLimit = 12

// Params tunes matrix generation.
type Params struct {
	// Epsilon is the Geo-Ind privacy budget in km^-1 (paper: 15–20).
	Epsilon float64
	// Delta is the number of prunable locations the matrix must survive
	// (delta-prunable robustness, Definition 4.2). Zero reproduces the
	// non-robust baseline.
	Delta int
	// Iterations is t in Algorithm 1 (paper: converges in ~4, uses 10).
	Iterations int
	// UseGraphApprox selects the Sec. 4.2 constraint reduction; when false
	// the full O(K^3) pairwise constraint set is used (Fig. 10 baseline).
	UseGraphApprox bool
	// BudgetVariant selects the reserved-budget approximation form.
	BudgetVariant budget.Variant
	// DWExact runs the column-generation tail to full optimality
	// certification instead of stopping when improvement stalls below 0.1%.
	DWExact bool
	// NoWarmStart disables carrying simplex bases between related solves
	// (Algorithm-1 iterations, DW master rounds and pricing solves). Every
	// solve then starts from the crash basis. Exists to benchmark the
	// warm-start speedup; production leaves it false.
	NoWarmStart bool
}

func (p Params) validate() error {
	if p.Epsilon <= 0 {
		return fmt.Errorf("core: epsilon must be positive, got %v", p.Epsilon)
	}
	if p.Delta < 0 {
		return fmt.Errorf("core: delta must be >= 0, got %d", p.Delta)
	}
	if p.Delta > 0 && p.Iterations < 1 {
		return fmt.Errorf("core: robust generation needs >= 1 iteration, got %d", p.Iterations)
	}
	return nil
}

// Result is the outcome of matrix generation.
type Result struct {
	Matrix *obf.Matrix
	// QualityLoss is Delta(Z) of Equ. (7) for the final matrix.
	QualityLoss float64
	// Trace holds the objective value after each Algorithm-1 iteration
	// (index 0 = the initial non-robust solve), reproducing Fig. 9.
	Trace []float64
	// Constraints is the number of Geo-Ind inequality rows per LP.
	Constraints int
	// LPIterations is the total simplex pivots across all solves.
	LPIterations int
	// Reinversions is the total basis factorisations across all solves.
	Reinversions int
	// WarmAttempts counts LP solves that were offered a warm-start basis
	// from a related earlier solve; WarmAccepts counts those where the
	// solver verified and kept it (skipping phase 1 and most pivots).
	WarmAttempts int
	WarmAccepts  int
	// Elapsed is the wall-clock generation time.
	Elapsed time.Duration
}

// constraintPairs returns the directed pair set used for LP constraints.
func (inst *Instance) constraintPairs(useApprox bool) []obf.Pair {
	if useApprox {
		return inst.NeighborPairs()
	}
	return inst.AllPairs()
}

// solveCarry threads reusable solver state between related solves over the
// same instance (Algorithm-1 iterations): Dantzig-Wolfe generator columns
// and, for the direct solver, the previous optimal simplex basis. The
// constraint shape is identical across iterations — only coefficients move
// with the tightened multipliers — so the old basis is usually still (near-)
// feasible and the warm start lands.
//
// It also owns the LP workspaces of the generation: one lp.Solver for the
// direct LP or the Dantzig-Wolfe master, one for the pricing problem. A carry
// comes from carryPool in GenerateCtx and goes back when the generation
// returns, having forgotten its generator columns and basis. The Solvers keep
// their arrays and nothing else that a later generation can see: an lp.Solver
// knows a problem by an id no later problem has, so what crosses generations
// is capacity.
type solveCarry struct {
	pool    []dwColumn
	basis   []int
	master  lp.Solver
	pricing lp.Solver
}

var carryPool = sync.Pool{New: func() any { return new(solveCarry) }}

// release hands the carry back to carryPool.
func (c *solveCarry) release() {
	c.pool, c.basis = nil, c.basis[:0]
	carryPool.Put(c)
}

// solveStats aggregates per-solve counters surfaced in Result.
type solveStats struct {
	iters        int
	reinversions int
	warmAttempts int
	warmAccepts  int
}

// count adds one LP solve's counters.
func (st *solveStats) count(sol *lp.Solution) {
	st.iters += sol.Iterations
	st.reinversions += sol.Reinversions
	if sol.Warm {
		st.warmAccepts++
	}
}

func (st *solveStats) add(o solveStats) {
	st.iters += o.iters
	st.reinversions += o.reinversions
	st.warmAttempts += o.warmAttempts
	st.warmAccepts += o.warmAccepts
}

// solveMatrix dispatches one LP solve by instance size (direct simplex up
// to directSolveLimit cells, decomposition beyond), updating carry with
// whatever state the next related solve can reuse.
func (inst *Instance) solveMatrix(p Params, pairs []obf.Pair, mult []float64, carry *solveCarry, tightened bool) (*obf.Matrix, solveStats, error) {
	if inst.K() <= directSolveLimit {
		var st solveStats
		opts := lp.Options{Perturb: true}
		if !p.NoWarmStart && len(carry.basis) > 0 {
			opts.WarmBasis = carry.basis
			st.warmAttempts++
		}
		m, sol, err := inst.solveLP(&carry.master, pairs, mult, &opts)
		if sol != nil {
			st.count(sol)
			if sol.Status == lp.Optimal {
				carry.basis = append(carry.basis[:0], sol.Basis...)
			}
		}
		return m, st, err
	}
	return inst.solveDW(pairs, mult, dwOptions{
		Exact: p.DWExact, SeedUniform: tightened, NoWarmStart: p.NoWarmStart,
	}, carry)
}

// solveLP builds and solves the LP of Equ. (8)/(16): minimize quality loss
// subject to row-stochasticity and the per-pair Geo-Ind constraints with
// the given multipliers mult[p] = exp((eps - eps'_p) * d_p).
func (inst *Instance) solveLP(sv *lp.Solver, pairs []obf.Pair, mult []float64, opts *lp.Options) (*obf.Matrix, *lp.Solution, error) {
	k := inst.K()
	nv := k * k
	prob := lp.NewProblem(nv)
	obj := make([]float64, nv)
	for i := 0; i < k; i++ {
		w := inst.priors[i]
		for j := 0; j < k; j++ {
			obj[i*k+j] = w * inst.cost[i][j]
		}
	}
	if err := prob.SetObjective(obj); err != nil {
		return nil, nil, err
	}
	// Row-stochasticity (Equ. 5).
	idx := make([]int, k)
	ones := make([]float64, k)
	for j := range ones {
		ones[j] = 1
	}
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			idx[j] = i*k + j
		}
		if err := prob.AddConstraint(lp.EQ, 1, idx, ones); err != nil {
			return nil, nil, err
		}
	}
	// Geo-Ind rows: z[i][c] - mult * z[j][c] <= 0 for each pair and column.
	two := make([]int, 2)
	vals := make([]float64, 2)
	for pi, p := range pairs {
		m := mult[pi]
		for c := 0; c < k; c++ {
			two[0], two[1] = p.I*k+c, p.J*k+c
			vals[0], vals[1] = 1, -m
			if err := prob.AddConstraint(lp.LE, 0, two, vals); err != nil {
				return nil, nil, err
			}
		}
	}
	sol, err := sv.Solve(prob, opts)
	if err != nil {
		return nil, nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, sol, fmt.Errorf("core: LP %v (delta may be too large for epsilon)", sol.Status)
	}
	m := obf.NewMatrix(k)
	for i := 0; i < k; i++ {
		copy(m.Row(i), sol.X[i*k:(i+1)*k])
	}
	if err := m.NormalizeRows(1e-6); err != nil {
		return nil, sol, fmt.Errorf("core: LP solution: %w", err)
	}
	return m, sol, nil
}

// Generate produces an obfuscation matrix for the instance. With Delta == 0
// it solves the plain LP of Equ. (8) (the paper's non-robust baseline);
// with Delta > 0 it runs Algorithm 1: alternately computing the reserved
// privacy budget (Equ. 14) from the current matrix and re-solving the
// tightened LP of Equ. (16), for Params.Iterations rounds.
func (inst *Instance) Generate(p Params) (*Result, error) {
	return inst.GenerateCtx(context.Background(), p)
}

// GenerateCtx is Generate with cancellation: the context is checked before
// the initial solve and between Algorithm-1 iterations (an individual LP
// solve still runs to completion).
func (inst *Instance) GenerateCtx(ctx context.Context, p Params) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	pairs := inst.constraintPairs(p.UseGraphApprox)
	mult := make([]float64, len(pairs))
	for i, pr := range pairs {
		mult[i] = math.Exp(p.Epsilon * pr.Dist)
	}
	res := &Result{Constraints: len(pairs) * inst.K()}
	carry := carryPool.Get().(*solveCarry)
	defer carry.release()
	m, st, err := inst.solveMatrix(p, pairs, mult, carry, false)
	if err != nil {
		return nil, err
	}
	total := st
	loss, err := inst.QualityLoss(m)
	if err != nil {
		return nil, err
	}
	res.Trace = append(res.Trace, loss)

	for it := 0; it < p.Iterations && p.Delta > 0; it++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Reserved privacy budget from the current matrix (Equ. 14).
		for pi, pr := range pairs {
			ep, err := budget.ApproxPair(m.Row(pr.I), m.Row(pr.J), pr.I, pr.J, pr.Dist, p.Epsilon, p.Delta, p.BudgetVariant)
			if err != nil {
				return nil, fmt.Errorf("core: reserved budget for pair (%d,%d): %w", pr.I, pr.J, err)
			}
			// The reserved budget is capped at eps so the tightened
			// multiplier stays >= 1, which keeps Equ. (16) feasible (the
			// uniform matrix always satisfies it) at the cost of a
			// best-effort (rather than absolute) delta-prunable guarantee
			// for the affected pairs, matching the residual violations the
			// paper itself reports for its robust matrices (Sec. 6.2.4).
			if ep > p.Epsilon {
				ep = p.Epsilon
			}
			mult[pi] = budget.TightenedMultiplier(p.Epsilon, ep, pr.Dist)
		}
		m2, st, err := inst.solveMatrix(p, pairs, mult, carry, true)
		if err != nil {
			return nil, fmt.Errorf("core: iteration %d: %w", it+1, err)
		}
		total.add(st)
		m = m2
		loss, err = inst.QualityLoss(m)
		if err != nil {
			return nil, err
		}
		res.Trace = append(res.Trace, loss)
	}
	res.Matrix = m
	res.QualityLoss = res.Trace[len(res.Trace)-1]
	res.LPIterations = total.iters
	res.Reinversions = total.reinversions
	res.WarmAttempts = total.warmAttempts
	res.WarmAccepts = total.warmAccepts
	res.Elapsed = time.Since(start)
	return res, nil
}

// RandomCellTargets picks n distinct cell centers as target locations Q
// with uniform probabilities, the paper's NR_TARGET protocol.
func RandomCellTargets(sys *hexgrid.System, cells []hexgrid.Coord, n int, seed int64) ([]geo.LatLng, []float64, error) {
	if n < 1 || n > len(cells) {
		return nil, nil, fmt.Errorf("core: %d targets from %d cells", n, len(cells))
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(cells))[:n]
	pts := make([]geo.LatLng, n)
	probs := make([]float64, n)
	for i, idx := range perm {
		pts[i] = sys.Center(0, cells[idx])
		probs[i] = 1
	}
	return pts, probs, nil
}
