// Dantzig-Wolfe column generation for the obfuscation LP.
//
// The LP of Equ. (8)/(16) has block-angular structure: the Geo-Ind
// constraints touch one column of Z at a time, and all columns share the
// same feasible cone
//
//	C = { x >= 0 : x[p.I] <= mult_p * x[p.J]  for every pair p },
//
// while the row-sum constraints sum_l z[i][l] = 1 couple the columns. A
// direct simplex must factor bases with e^{eps*d} ~ 1e6-range entries whose
// elimination chains overflow double precision; the decomposition instead
// solves
//
//	master:     min sum_{l,g} (w_l . g) lambda_{l,g}
//	            s.t. sum_{l,g} lambda_{l,g} * g = 1   (K rows)
//	pricing_l:  min (w_l - y) . x  over  P = C ∩ {sum x = 1}
//
// where the master columns g are vertices of the small polytope P. Master
// bases contain only probability vectors (beautifully scaled); pricing LPs
// have K variables — the regime the sparse solver handles exactly. The
// paper itself points at optimization decomposition as the scalable route
// (Sec. 5.3, citing its ref [12]).
//
// A welcome side effect: every intermediate master solution assembles into
// a matrix whose columns lie in C, so even an early-stopped run returns a
// strictly Geo-Ind-feasible (merely suboptimal) matrix.
package core

import (
	"fmt"
	"math"

	"corgi/internal/lp"
	"corgi/internal/obf"
)

// dwOptions tunes the decomposition.
type dwOptions struct {
	SeedUniform bool // seed the uniform generator per block (tightened cones)
	NoWarmStart bool // disable master/pricing warm starts (benchmarking)
}

const (
	dwMaxRounds = 400  // pricing rounds before giving up
	dwPriceTol  = 1e-9 // a block must price below -dwPriceTol to enter
	learnedCap  = 256  // LP-discovered generators the fast pass offers every block
)

// dwStallTol ends the convergence tail once the master objective improves
// by less than this relative amount over dwStallRounds consecutive rounds.
// The assembled matrix stays exactly feasible; only the objective is within
// ~dwStallTol*dwStallRounds of optimal.
const (
	dwStallTol    = 1e-3
	dwStallRounds = 3
	// dwExactBudget caps the number of exact pricing LP solves per
	// generation; the tail then stops with a feasible, near-optimal
	// master.
	dwExactBudget = 30
)

// dwColumn is one generated master column: generator g used by block l.
type dwColumn struct {
	block int
	g     []float64
	cost  float64
}

// solveDW solves the obfuscation LP by column generation. pairs/mult define
// the cone (identical for every block); the objective is the instance's
// prior-weighted cost. Returns the assembled matrix and solve statistics
// (simplex pivots, warm-start attempts/accepts) across master and pricing
// solves. Master re-solves are warm-started from the previous round's basis
// (column indices are append-only until the pruning pass reindexes them);
// pricing solves are warm-started from the last pricing basis, which stays
// primal feasible because only the objective changes between blocks.
//
// carry supplies the generator columns of the previous related solve
// (re-admitted where they still fit the cone), receives this solve's, and
// owns the two LP workspaces, the two problems they solve and the scratch
// this function works in. The master problem grows by one AddColumn per generated column and
// is Reset and refilled only when pruning reindexes it; the pricing problem
// is refilled once per call and only its objective moves, so its standard
// form and scales are computed once per call.
func (inst *Instance) solveDW(pairs []obf.Pair, mult []float64, opt dwOptions, carry *solveCarry) (*obf.Matrix, solveStats, error) {
	k := inst.K()
	carry.startDW(k)
	blockCost := carry.blockCost // w_l[i] = priors[i]*cost[i*k+l]
	for l := 0; l < k; l++ {
		for i := 0; i < k; i++ {
			blockCost[l][i] = inst.priors[i] * inst.cost[i*k+l]
		}
	}

	// Pricing problem skeleton: K vars, cone rows + simplex row. The
	// objective is rewritten every call.
	var st solveStats
	sub := &carry.sub
	sub.Reset(k)
	{
		idx, ones := carry.rowIdx[:0], carry.rowVal[:0]
		for j := 0; j < k; j++ {
			idx, ones = append(idx, j), append(ones, 1)
		}
		if err := sub.AddConstraint(lp.EQ, 1, idx, ones); err != nil {
			return nil, st, err
		}
		for pi, p := range pairs {
			idx, ones = append(idx[:0], p.I, p.J), append(ones[:0], 1, -mult[pi])
			if err := sub.AddConstraint(lp.LE, 0, idx, ones); err != nil {
				return nil, st, err
			}
		}
		carry.rowIdx, carry.rowVal = idx, ones
	}
	subOpts := lp.Options{Perturb: true}

	// Big-M artificials keep the master feasible until enough columns exist.
	maxW := 0.0
	for l := range blockCost {
		for _, v := range blockCost[l] {
			if a := math.Abs(v); a > maxW {
				maxW = a
			}
		}
	}
	bigM := (maxW + 1) * float64(k) * 10

	// Re-admit seed generators that remain inside the (possibly tightened)
	// cone; their cost is re-derived for their block. The pool is filtered
	// in place: column ci is read before any kept column is written at or
	// past it.
	cols := carry.pool[:0]
	for _, c := range carry.pool {
		if c.block < 0 || c.block >= k || len(c.g) != k {
			continue
		}
		ok := true
		for pi, p := range pairs {
			if c.g[p.I] > mult[pi]*c.g[p.J]+1e-12 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		cost := 0.0
		for i := 0; i < k; i++ {
			cost += blockCost[c.block][i] * c.g[i]
		}
		cols = append(cols, dwColumn{block: c.block, g: c.g, cost: cost})
	}

	// Fast pricing candidates: the single-peak exponential profiles
	// x^(m)_j = exp(-sigma_m(j)), sigma_m = shortest path from m under arc
	// weights ln(mult). These are vertices of P (the tight set is the
	// shortest-path tree), so adding one is always sound; the exact LP
	// below only runs for blocks where no profile prices negative, which
	// keeps convergence exact while eliminating most pricing solves.
	profiles := carry.prof.exponentialProfiles(k, pairs, mult, &carry.slab)

	// Seed every block with the uniform generator when it lies in the cone
	// (guaranteed whenever every multiplier is >= 1, which the capped
	// reserved budget ensures): the master is then feasible from round 0
	// and the Big-M artificials only ever carry numerical dust.
	uniformOK := opt.SeedUniform
	for _, m := range mult {
		if m < 1 {
			uniformOK = false
			break
		}
	}
	if uniformOK {
		u := carry.slab.cut(k)
		for i := range u {
			u[i] = 1 / float64(k)
		}
		for l := 0; l < k; l++ {
			cost := 0.0
			for i := 0; i < k; i++ {
				cost += blockCost[l][i] * u[i]
			}
			cols = append(cols, dwColumn{block: l, g: u, cost: cost})
		}
	}
	objW, needExact := carry.objW, carry.needExact
	// profAdded[l*stride+m] says block l has been given profile m (m < k) or
	// learned generator m-k.
	stride := k + learnedCap
	profAdded := carry.profAdded
	// learned collects LP-discovered generators, at most learnedCap; they
	// are shared across blocks in the fast pass (a vertex found for one
	// block often prices negative for its neighbors too).
	learned := carry.learned[:0]

	// Warm-start state: the previous master basis (invalidated when column
	// pruning reindexes cols) and the last pricing basis.
	masterBasis, subBasis := carry.masterBasis[:0], carry.subBasis[:0]

	// The master: K Big-M artificials (one per row-sum constraint), then one
	// variable per generated column, appended as columns arrive. inMaster is
	// how many of cols the problem already holds; rebuild says refill it.
	mp := &carry.mp
	rebuild := true
	inMaster := 0
	solveMaster := func() (*lp.Solution, error) {
		if rebuild {
			mp.Reset(k)
			for i := 0; i < k; i++ {
				if err := mp.SetObjectiveCoeff(i, bigM); err != nil {
					return nil, err
				}
				idx, val := append(carry.rowIdx[:0], i), append(carry.rowVal[:0], 1)
				if err := mp.AddConstraint(lp.EQ, 1, idx, val); err != nil {
					return nil, err
				}
			}
			rebuild, inMaster = false, 0
		}
		for _, c := range cols[inMaster:] {
			rowIdx, rowVal := carry.rowIdx[:0], carry.rowVal[:0]
			for i, g := range c.g {
				if g != 0 {
					rowIdx = append(rowIdx, i)
					rowVal = append(rowVal, g)
				}
			}
			carry.rowIdx, carry.rowVal = rowIdx, rowVal
			if _, err := mp.AddColumn(c.cost, rowIdx, rowVal); err != nil {
				return nil, err
			}
		}
		inMaster = len(cols)
		var mOpts lp.Options
		if !opt.NoWarmStart && len(masterBasis) > 0 {
			mOpts.WarmBasis = masterBasis
			st.warmAttempts++
		}
		sol, err := carry.master.Solve(mp, &mOpts)
		if err != nil {
			return nil, err
		}
		if sol.Status != lp.Optimal {
			return nil, fmt.Errorf("core: DW master %v (%s)", sol.Status, sol.Note)
		}
		st.count(sol)
		masterBasis = append(masterBasis[:0], sol.Basis...)
		return sol, nil
	}

	var master *lp.Solution
	converged := false
	prevObj := math.Inf(1)
	stall := 0
	cursor := 0
	exactSolves := 0
	for round := 0; round < dwMaxRounds; round++ {
		var err error
		master, err = solveMaster()
		if err != nil {
			return nil, st, err
		}
		// Early-stop on a stalled tail (feasible, near-optimal). Only once
		// the Big-M artificials have left the solution.
		artMass := 0.0
		for i := 0; i < k; i++ {
			artMass += master.X[i]
		}
		if artMass < 1e-9 {
			rel := (prevObj - master.Objective) / math.Max(math.Abs(master.Objective), 1e-12)
			if rel < dwStallTol {
				stall++
				if stall >= dwStallRounds {
					break
				}
			} else {
				stall = 0
			}
		}
		prevObj = master.Objective
		y := master.Duals
		added := 0
		// Fast pass: for every block, try the single-peak profiles first.
		clear(needExact)
		for l := 0; l < k; l++ {
			for i := 0; i < k; i++ {
				objW[i] = blockCost[l][i] - y[i]
			}
			bestProfile, bestVal := -1, -dwPriceTol
			for m := 0; m < k; m++ {
				if profAdded[l*stride+m] {
					continue
				}
				v := 0.0
				for i := 0; i < k; i++ {
					v += objW[i] * profiles[m][i]
				}
				if v < bestVal {
					bestVal = v
					bestProfile = m
				}
			}
			for m := range learned {
				if profAdded[l*stride+k+m] {
					continue
				}
				v := 0.0
				for i := 0; i < k; i++ {
					v += objW[i] * learned[m][i]
				}
				if v < bestVal {
					bestVal = v
					bestProfile = k + m
					if m == 0 {
						// A block whose best candidate is learned generator
						// 0 goes to the exact pass instead. Its key used to
						// be -m-1, which is the no-candidate value; every
						// recorded matrix was solved that way.
						bestProfile = -1
					}
				}
			}
			if bestProfile != -1 {
				var g []float64
				if bestProfile < k {
					g = profiles[bestProfile]
				} else {
					g = learned[bestProfile-k]
				}
				cost := 0.0
				for i := 0; i < k; i++ {
					cost += blockCost[l][i] * g[i]
				}
				cols = append(cols, dwColumn{block: l, g: g, cost: cost})
				profAdded[l*stride+bestProfile] = true
				added++
			} else {
				needExact[l] = true
			}
		}
		// Exact pass: only when the fast pass made no progress at all does
		// a full LP certification round run. This concentrates the
		// expensive pricing solves in the convergence tail.
		if added == 0 {
			if exactSolves >= dwExactBudget && artMass < 1e-9 {
				break // tail budget spent: accept the near-optimal master
			}
			for scan := 0; scan < k; scan++ {
				l := (cursor + scan) % k
				if !needExact[l] {
					continue
				}
				exactSolves++
				for i := 0; i < k; i++ {
					objW[i] = blockCost[l][i] - y[i]
				}
				if err := sub.SetObjective(objW); err != nil {
					return nil, st, err
				}
				sOpts := subOpts
				if !opt.NoWarmStart && len(subBasis) > 0 {
					sOpts.WarmBasis = subBasis
					st.warmAttempts++
				}
				subSol, err := carry.pricing.Solve(sub, &sOpts)
				if err != nil {
					return nil, st, err
				}
				st.count(subSol)
				if subSol.Status == lp.Optimal {
					subBasis = append(subBasis[:0], subSol.Basis...)
				}
				switch subSol.Status {
				case lp.Optimal:
				case lp.Infeasible:
					// The cone intersected with the simplex is empty: the
					// requested budget admits no stochastic matrix.
					return nil, st, fmt.Errorf("core: Geo-Ind constraints infeasible (delta too aggressive for epsilon)")
				default:
					return nil, st, fmt.Errorf("core: DW pricing %v (%s)", subSol.Status, subSol.Note)
				}
				if subSol.Objective < -dwPriceTol {
					g := carry.slab.cut(k)
					copy(g, subSol.X)
					cost := 0.0
					for i := 0; i < k; i++ {
						cost += blockCost[l][i] * g[i]
					}
					cols = append(cols, dwColumn{block: l, g: g, cost: cost})
					added++
					if len(learned) < learnedCap {
						learned = append(learned, g)
					} else {
						learned[len(cols)%learnedCap] = g
					}
					// Batch a handful of improving columns per master
					// re-solve; a full clean sweep is still required to
					// declare convergence.
					cursor = (l + 1) % k
					if added >= 8 {
						break
					}
				}
			}
		}
		// Contain master growth: keep columns the master actually uses
		// plus the freshest generation. The kept columns are compacted in
		// place: column ci is read before any kept column is written at or
		// past it.
		if len(cols) > 12*k {
			kept := cols[:0]
			for ci, c := range cols {
				if ci < len(master.X)-k {
					if master.X[k+ci] > 1e-12 {
						kept = append(kept, c)
						continue
					}
				}
				if ci >= len(cols)-4*k {
					kept = append(kept, c)
				}
			}
			cols = kept
			masterBasis, rebuild = masterBasis[:0], true // pruning reindexed the master's columns
		}
		if added == 0 {
			converged = true
			break
		}
	}
	if master == nil {
		return nil, st, fmt.Errorf("core: DW produced no master solution")
	}
	if !converged {
		// Early stop: re-solve the master over everything generated so far;
		// the assembled matrix is feasible, just possibly suboptimal.
		var err error
		master, err = solveMaster()
		if err != nil {
			return nil, st, err
		}
	}
	// Reject if artificials still carry real weight: no feasible assembly
	// exists. Sub-1e-4 residues are numerical dust (coverage of a row by
	// mass ~e^{-eps*d*diameter}); row normalization absorbs them below the
	// audit tolerance.
	for i := 0; i < k; i++ {
		if master.X[i] > 1e-4 {
			return nil, st, fmt.Errorf("core: DW master infeasible (artificial %d = %g): delta too aggressive for epsilon", i, master.X[i])
		}
	}

	z := obf.NewMatrix(k)
	for ci, c := range cols {
		lambda := master.X[k+ci]
		if lambda <= 0 {
			continue
		}
		for i := 0; i < k; i++ {
			if c.g[i] != 0 {
				z.Set(i, c.block, z.At(i, c.block)+lambda*c.g[i])
			}
		}
	}
	if err := z.NormalizeRows(1e-6); err != nil {
		return nil, st, fmt.Errorf("core: DW assembly: %w", err)
	}
	carry.pool = cols
	carry.masterBasis, carry.subBasis, carry.learned = masterBasis, subBasis, learned
	return z, st, nil
}

// startDW sizes the carry's per-call scratch for a solveDW over k cells and
// clears the record of which generators each block has been given.
func (c *solveCarry) startDW(k int) {
	if len(c.blockCost) != k {
		c.blockCost = squareRows(k)
	}
	c.objW = fit(c.objW, k)
	c.needExact = fit(c.needExact, k)
	c.profAdded = fit(c.profAdded, k*(k+learnedCap))
	clear(c.profAdded)
}

// slab hands out the generator columns of one generation: the profiles and
// uniform seeds of every solveDW and every column an exact pricing solve
// finds. A column is cut once and never moves, however many Algorithm-1
// rounds carry it, and the slab is emptied only when no column is left,
// as the generation ends.
type slab []float64

// cut returns n values of the slab, contents unspecified. When the array is
// full the slab goes on in one twice the size; the columns already cut keep
// the old one.
func (s *slab) cut(n int) []float64 {
	lo := len(*s)
	if lo+n > cap(*s) {
		*s, lo = make(slab, 0, max(2*cap(*s), 64*n)), 0
	}
	*s = (*s)[:lo+n]
	return (*s)[lo : lo+n : lo+n]
}

// profileWork is the scratch of exponentialProfiles, kept by the carry from
// call to call.
type profileWork struct {
	rows  [][]float64
	first []int32
	arcs  []profArc
	dist  []float64
	pq    profHeap
}

type profArc struct {
	to int32
	w  float64
}

// exponentialProfiles returns, for every peak m, the normalized profile
// x_j = exp(-sigma_m(j)) where sigma_m(j) is the shortest directed path
// from m to j under arc weight ln(mult_p) on arc (p.I -> p.J). Such a
// profile satisfies every cone constraint x_i <= mult*x_j (shortest-path
// optimality condition), so it is a feasible — in fact extreme — point of
// P = C ∩ simplex. The profiles are cut from s, so master columns that use
// them outlive the next call; the list of rows is pw's, and the next call
// overwrites it.
func (pw *profileWork) exponentialProfiles(k int, pairs []obf.Pair, mult []float64, s *slab) [][]float64 {
	// Arc list: sigma_j <= sigma_i + ln(mult) encodes x_i <= mult*x_j. Node
	// i's arcs are arcs[first[i]:first[i+1]], in pair order.
	first := fit(pw.first, k+2)
	clear(first)
	for _, p := range pairs {
		first[p.I+2]++
	}
	for i := 2; i < len(first); i++ {
		first[i] += first[i-1]
	}
	arcs := fit(pw.arcs, len(pairs))
	for pi, p := range pairs {
		w := math.Log(mult[pi])
		if w < 0 {
			w = 0 // capped budgets keep mult >= 1; guard regardless
		}
		arcs[first[p.I+1]] = profArc{to: int32(p.J), w: w}
		first[p.I+1]++
	}
	out := fit(pw.rows, k)
	dist := fit(pw.dist, k)
	pq := pw.pq
	for m := 0; m < k; m++ {
		for i := range dist {
			dist[i] = math.Inf(1)
		}
		dist[m] = 0
		pq = append(pq[:0], profItem{node: int32(m)})
		for len(pq) > 0 {
			it := pq.pop()
			if it.d > dist[it.node] {
				continue
			}
			for _, a := range arcs[first[it.node]:first[it.node+1]] {
				if nd := it.d + a.w; nd < dist[a.to] {
					dist[a.to] = nd
					pq.push(profItem{node: a.to, d: nd})
				}
			}
		}
		prof := s.cut(k)
		sum := 0.0
		for i := 0; i < k; i++ {
			prof[i] = math.Exp(-dist[i])
			sum += prof[i]
		}
		if sum > 0 {
			for i := range prof {
				prof[i] /= sum
			}
		}
		out[m] = prof
	}
	pw.rows, pw.first, pw.arcs, pw.dist, pw.pq = out, first, arcs, dist, pq
	return out
}

// fit returns s with length n, reusing its array when that is large enough.
// The contents are unspecified.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// squareRows returns k zeroed rows of length k over one backing array.
func squareRows(k int) [][]float64 {
	flat := make([]float64, k*k)
	rows := make([][]float64, k)
	for i := range rows {
		rows[i] = flat[i*k : (i+1)*k : (i+1)*k]
	}
	return rows
}

type profItem struct {
	node int32
	d    float64
}

// profHeap is a binary min-heap on d over one reused slice. push and pop
// sift exactly as container/heap does, so equal distances leave in the order
// they always did; being typed, they box nothing.
type profHeap []profItem

func (h *profHeap) push(it profItem) {
	*h = append(*h, it)
	s := *h
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !(s[j].d < s[i].d) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *profHeap) pop() profItem {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && s[r].d < s[j].d {
			j = r
		}
		if !(s[j].d < s[i].d) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s[:n]
	return s[n]
}
