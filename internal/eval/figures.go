package eval

import (
	"fmt"
	"math/rand"
	"time"

	"corgi/internal/attack"
	"corgi/internal/budget"
	"corgi/internal/core"
	"corgi/internal/geo"
	"corgi/internal/graphx"
	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
	"corgi/internal/mechanism"
	"corgi/internal/obf"
	"corgi/internal/planar"
)

// Fig9 reproduces Fig. 9: the objective value (quality loss) after each
// Algorithm-1 iteration and its successive differences, for delta = 2 and
// delta = 4, at K = 49, eps = 15. Repeat r runs in the world of seed + r
// (its own corpus, split and seed + 1000 + r target draw): the solve is
// deterministic, and the figure world's targets are all 49 leaves of the
// K=49 cluster whatever the draw, so anything less repeats one row.
func Fig9(cfg *Config) (*Output, error) {
	iters, repeats := 15, 3
	if cfg.quick() {
		iters, repeats = 8, 1
	}
	insts := make([]*core.Instance, repeats)
	for rep := range insts {
		var err error
		if insts[rep], err = figureInstance(cfg.seed()+int64(rep), 7); err != nil {
			return nil, err
		}
	}
	objTab := &Table{ID: "fig9ab", Title: "quality loss per iteration (Fig. 9a/b)",
		Header: []string{"delta", "repeat", "iteration", "quality_loss_km"}}
	diffTab := &Table{ID: "fig9cd", Title: "difference of quality loss in consecutive iterations (Fig. 9c/d)",
		Header: []string{"delta", "repeat", "iteration", "loss_diff_km"}}
	for _, delta := range []int{2, 4} {
		for rep, inst := range insts {
			res, err := inst.Generate(core.Params{
				Epsilon: epsDefault, Delta: delta, Iterations: iters, UseGraphApprox: true,
			})
			if err != nil {
				return nil, err
			}
			for it, loss := range res.Trace {
				objTab.Rows = append(objTab.Rows, []string{d(delta), d(rep + 1), d(it), f6(loss)})
				if it > 0 {
					diffTab.Rows = append(diffTab.Rows,
						[]string{d(delta), d(rep + 1), d(it), f6(loss - res.Trace[it-1])})
				}
			}
		}
	}
	return &Output{Tables: []*Table{objTab, diffTab}}, nil
}

// Fig10a reproduces Fig. 10(a): robust-matrix generation time with and
// without the graph approximation, for increasing delta.
func Fig10a(cfg *Config) (*Output, error) {
	deltas := []int{1, 2, 3, 4, 5, 6, 7}
	iters, m := 10, 7 // K = 49
	if cfg.quick() {
		deltas = []int{1, 3, 5}
		iters, m = 3, 3 // K = 21 keeps the full-constraint runs tractable
	}
	inst, err := figureInstance(cfg.seed(), m)
	if err != nil {
		return nil, err
	}
	tab := &Table{ID: "fig10a", Title: "running time (s) of robust matrix generation (Fig. 10a)",
		Header: []string{"delta", "with_approx_s", "without_approx_s", "speedup"}}
	for _, delta := range deltas {
		with, err := inst.Generate(core.Params{Epsilon: epsDefault, Delta: delta,
			Iterations: iters, UseGraphApprox: true})
		if err != nil {
			return nil, err
		}
		without, err := inst.Generate(core.Params{Epsilon: epsDefault, Delta: delta,
			Iterations: iters, UseGraphApprox: false})
		if err != nil {
			return nil, err
		}
		tab.Rows = append(tab.Rows, []string{
			d(delta),
			fmt.Sprintf("%.3f", with.Elapsed.Seconds()),
			fmt.Sprintf("%.3f", without.Elapsed.Seconds()),
			fmt.Sprintf("%.2fx", without.Elapsed.Seconds()/with.Elapsed.Seconds()),
		})
	}
	return &Output{Tables: []*Table{tab}}, nil
}

// Fig10b reproduces Fig. 10(b): the number of Geo-Ind constraints with and
// without the approximation as the location count grows.
func Fig10b(cfg *Config) (*Output, error) {
	e, err := figureWorld(cfg.seed())
	if err != nil {
		return nil, err
	}
	tab := &Table{ID: "fig10b", Title: "number of Geo-Ind constraints (Fig. 10b)",
		Header: []string{"locations", "without_approx", "with_approx", "reduction_pct"}}
	for m := 1; m <= 7; m++ {
		inst, _, err := e.instance(m)
		if err != nil {
			return nil, err
		}
		k := inst.K()
		without := len(inst.AllPairs()) * k
		with := len(inst.NeighborPairs()) * k
		tab.Rows = append(tab.Rows, []string{
			d(k), d(without), d(with),
			fmt.Sprintf("%.2f", 100*(1-float64(with)/float64(without))),
		})
	}
	return &Output{Tables: []*Table{tab}}, nil
}

// Fig11 reproduces Fig. 11: quality loss vs epsilon for the non-robust
// baseline and CORGI with delta = 1, 2, 3.
func Fig11(cfg *Config) (*Output, error) {
	inst, err := figureInstance(cfg.seed(), 7)
	if err != nil {
		return nil, err
	}
	epsList := []float64{15, 16, 17, 18}
	iters := 10
	if cfg.quick() {
		iters = 4
	}
	tab := &Table{ID: "fig11", Title: "quality loss (km) vs epsilon (Fig. 11)",
		Header: []string{"epsilon", "non_robust", "corgi_d1", "corgi_d2", "corgi_d3"}}
	for _, eps := range epsList {
		row := []string{fmt.Sprintf("%.0f", eps)}
		nr, err := inst.Generate(core.Params{Epsilon: eps, UseGraphApprox: true})
		if err != nil {
			return nil, err
		}
		row = append(row, f6(nr.QualityLoss))
		for _, delta := range []int{1, 2, 3} {
			res, err := inst.Generate(core.Params{Epsilon: eps, Delta: delta,
				Iterations: iters, UseGraphApprox: true})
			if err != nil {
				return nil, err
			}
			row = append(row, f6(res.QualityLoss))
		}
		tab.Rows = append(tab.Rows, row)
	}
	return &Output{Tables: []*Table{tab}}, nil
}

// meanViolation is the violation rate after pruning n random locations,
// averaged over the trials whose prune the matrix could renormalize.
func meanViolation(m *obf.Matrix, pairs []obf.Pair, eps float64, n, trials int, rng *rand.Rand) float64 {
	sum, ok := 0.0, 0
	for t := 0; t < trials; t++ {
		if v, valid := pruneTrial(m, pairs, eps, sample(rng, m.Dim(), n)); valid {
			sum += v
			ok++
		}
	}
	if ok == 0 {
		return 0
	}
	return sum / float64(ok)
}

// violationSweep runs the Fig. 12 protocol for one matrix.
func violationSweep(m *obf.Matrix, pairs []obf.Pair, eps float64, maxPrune, trials int, rng *rand.Rand) []float64 {
	out := make([]float64, maxPrune)
	for n := 1; n <= maxPrune; n++ {
		out[n-1] = meanViolation(m, pairs, eps, n, trials, rng)
	}
	return out
}

// Fig12 reproduces Fig. 12: percentage of violated Geo-Ind constraints vs
// the number of pruned locations, CORGI vs non-robust, for (a) delta = 3 at
// K = 49 and (b) delta = 5 at K = 70.
func Fig12(cfg *Config) (*Output, error) {
	e, err := figureWorld(cfg.seed())
	if err != nil {
		return nil, err
	}
	trials, iters := 500, 10
	if cfg.quick() {
		trials, iters = 40, 4
	}
	var tables []*Table
	for _, setup := range []struct {
		name  string
		m     int
		delta int
	}{
		{"fig12a", 7, 3},  // 49 locations, delta=3
		{"fig12b", 10, 5}, // 70 locations, delta=5
	} {
		inst, _, err := e.instance(setup.m)
		if err != nil {
			return nil, err
		}
		// Violation audits need vertex (optimal) solutions: early-stopped
		// mixtures leave Geo-Ind constraints slack and pruning-immune,
		// hiding the robustness effect under test.
		robust, err := inst.Generate(core.Params{Epsilon: epsDefault, Delta: setup.delta,
			Iterations: iters, UseGraphApprox: true})
		if err != nil {
			return nil, err
		}
		plain, err := inst.Generate(core.Params{Epsilon: epsDefault, UseGraphApprox: true})
		if err != nil {
			return nil, err
		}
		pairs := inst.NeighborPairs()
		rng := rand.New(rand.NewSource(cfg.seed() + int64(setup.m)))
		corgiV := violationSweep(robust.Matrix, pairs, epsDefault, 10, trials, rng)
		plainV := violationSweep(plain.Matrix, pairs, epsDefault, 10, trials, rng)
		tab := &Table{ID: setup.name,
			Title:  fmt.Sprintf("%% violated Geo-Ind constraints, K=%d delta=%d (Fig. 12)", inst.K(), setup.delta),
			Header: []string{"pruned", "non_robust_pct", "corgi_pct"}}
		for n := 1; n <= 10; n++ {
			tab.Rows = append(tab.Rows, []string{d(n), f(plainV[n-1]), f(corgiV[n-1])})
		}
		tables = append(tables, tab)
	}
	return &Output{Tables: tables}, nil
}

// Fig13 reproduces Fig. 13: quality loss for a wider vs narrower
// obfuscation range. The paper compares privacy level 3 (343 leaves) with
// level 2 (49); at single-core scale we compare level 2 (49) with level 1
// (7) — the shape (wider range => higher loss, loss falls with eps, rises
// with delta) is the claim under test.
func Fig13(cfg *Config) (*Output, error) {
	e, err := figureWorld(cfg.seed())
	if err != nil {
		return nil, err
	}
	iters := 6
	if cfg.quick() {
		iters = 3
	}
	gen := func(m, delta int, eps float64) (float64, error) {
		inst, _, err := e.instance(m)
		if err != nil {
			return 0, err
		}
		res, err := inst.Generate(core.Params{Epsilon: eps, Delta: delta, Iterations: iters, UseGraphApprox: true})
		if err != nil {
			return 0, err
		}
		return res.QualityLoss, nil
	}
	tabA := &Table{ID: "fig13a", Title: "quality loss vs epsilon by privacy level (Fig. 13a; delta=2)",
		Header: []string{"epsilon", "privacy_level_low(K=7)", "privacy_level_high(K=49)"}}
	for _, eps := range []float64{15, 16, 17, 18, 19} {
		lo, err := gen(1, 2, eps)
		if err != nil {
			return nil, err
		}
		hi, err := gen(7, 2, eps)
		if err != nil {
			return nil, err
		}
		tabA.Rows = append(tabA.Rows, []string{fmt.Sprintf("%.0f", eps), f6(lo), f6(hi)})
	}
	tabB := &Table{ID: "fig13b", Title: "quality loss vs delta by privacy level (Fig. 13b; eps=15)",
		Header: []string{"delta", "privacy_level_low(K=7)", "privacy_level_high(K=49)"}}
	for _, delta := range []int{1, 2, 3, 4, 5} {
		lo, err := gen(1, delta, epsDefault)
		if err != nil {
			return nil, err
		}
		hi, err := gen(7, delta, epsDefault)
		if err != nil {
			return nil, err
		}
		tabB.Rows = append(tabB.Rows, []string{d(delta), f6(lo), f6(hi)})
	}
	return &Output{Tables: []*Table{tabA, tabB}}, nil
}

// Fig14 reproduces Fig. 14: the running time of obtaining a coarser-level
// matrix by precision reduction vs recalculating it from scratch, (a) as
// the location count grows and (b) as delta grows.
func Fig14(cfg *Config) (*Output, error) {
	e, err := figureWorld(cfg.seed())
	if err != nil {
		return nil, err
	}
	sizes := []int{4, 5, 6, 7, 8, 9, 10} // K = 28..70
	iters := 5
	if cfg.quick() {
		sizes = []int{4, 6, 8, 10}
		iters = 2
	}
	tabA := &Table{ID: "fig14a", Title: "precision reduction vs matrix recalculation (Fig. 14a)",
		Header: []string{"locations", "recalculation_ms", "reduction_ms", "ratio"}}
	for _, m := range sizes {
		inst, leaves, err := e.instance(m)
		if err != nil {
			return nil, err
		}
		base, err := inst.Generate(core.Params{Epsilon: epsDefault, UseGraphApprox: true})
		if err != nil {
			return nil, err
		}
		// Reduction: leaf matrix -> level-1 matrix via Equ. (17).
		groups, parents, err := mechanism.GroupByAncestor(e.tree, leaves, 1)
		if err != nil {
			return nil, err
		}
		leafPr := make([]float64, len(leaves))
		for i, l := range leaves {
			leafPr[i] = e.priors.Of(e.tree, l)
		}
		t0 := time.Now()
		if _, err := obf.PrecisionReduce(base.Matrix, groups, leafPr); err != nil {
			return nil, err
		}
		reduceT := time.Since(t0)
		// Recalculation: solve the LP over the m level-1 cells directly.
		recalcT, err := recalcAtLevel1(e, parents)
		if err != nil {
			return nil, err
		}
		tabA.Rows = append(tabA.Rows, []string{
			d(inst.K()), ms(recalcT), ms(reduceT),
			fmt.Sprintf("%.0fx", float64(recalcT)/float64(reduceT+1)),
		})
	}
	tabB := &Table{ID: "fig14b", Title: "precision reduction vs recalculation as delta grows (Fig. 14b; K=49)",
		Header: []string{"delta", "recalculation_ms", "reduction_ms"}}
	deltas := []int{1, 2, 3, 4, 5, 6, 7}
	if cfg.quick() {
		deltas = []int{1, 3, 5, 7}
	}
	inst, leaves, err := e.instance(7)
	if err != nil {
		return nil, err
	}
	groups, _, err := mechanism.GroupByAncestor(e.tree, leaves, 1)
	if err != nil {
		return nil, err
	}
	leafPr := make([]float64, len(leaves))
	for i, l := range leaves {
		leafPr[i] = e.priors.Of(e.tree, l)
	}
	for _, delta := range deltas {
		res, err := inst.Generate(core.Params{Epsilon: epsDefault, Delta: delta,
			Iterations: iters, UseGraphApprox: true})
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, err := obf.PrecisionReduce(res.Matrix, groups, leafPr); err != nil {
			return nil, err
		}
		reduceT := time.Since(t0)
		tabB.Rows = append(tabB.Rows, []string{
			d(delta), ms(res.Elapsed), ms(reduceT),
		})
	}
	return &Output{Tables: []*Table{tabA, tabB}}, nil
}

func recalcAtLevel1(e *world, parents []loctree.NodeID) (time.Duration, error) {
	cells := make([]hexgrid.Coord, len(parents))
	pr := make([]float64, len(parents))
	for i, p := range parents {
		cells[i] = p.Coord
		pr[i] = e.priors.Of(e.tree, p)
	}
	inst, err := core.NewInstanceLevel(e.tree.System(), 1, cells, pr, e.targets, e.tprobs, graphx.WeightPaper)
	if err != nil {
		return 0, err
	}
	res, err := inst.Generate(core.Params{Epsilon: epsDefault, UseGraphApprox: true})
	if err != nil {
		return 0, err
	}
	return res.Elapsed, nil
}

// Headline reproduces the abstract's claim: pruning 14.28% of locations
// (7 of 49) causes few violations in CORGI's matrix vs many in the
// non-robust one.
func Headline(cfg *Config) (*Output, error) {
	iters, trials := 10, 200
	if cfg.quick() {
		iters, trials = 5, 50
	}
	inst, err := figureInstance(cfg.seed(), 7)
	if err != nil {
		return nil, err
	}
	robust, err := inst.Generate(core.Params{Epsilon: epsDefault, Delta: 3,
		Iterations: iters, UseGraphApprox: true})
	if err != nil {
		return nil, err
	}
	plain, err := inst.Generate(core.Params{Epsilon: epsDefault, UseGraphApprox: true})
	if err != nil {
		return nil, err
	}
	pairs := inst.NeighborPairs()
	rng := rand.New(rand.NewSource(cfg.seed() + 99))
	sumR, sumP, okN := 0.0, 0.0, 0
	for t := 0; t < trials; t++ {
		s := sample(rng, inst.K(), 7)
		r, ok1 := pruneTrial(robust.Matrix, pairs, epsDefault, s)
		p, ok2 := pruneTrial(plain.Matrix, pairs, epsDefault, s)
		if ok1 && ok2 {
			sumR += r
			sumP += p
			okN++
		}
	}
	tab := &Table{ID: "headline", Title: "pruning 7/49 locations (14.28%): violation rates",
		Header: []string{"mechanism", "violations_pct", "paper_reported_pct"}}
	tab.Rows = append(tab.Rows,
		[]string{"CORGI (delta=3)", f(sumR / float64(okN)), "3.07"},
		[]string{"non-robust", f(sumP / float64(okN)), "18.58"},
	)
	return &Output{Tables: []*Table{tab}}, nil
}

// ExtPlanar compares CORGI's LP-optimal matrices against the discretized
// planar Laplace mechanism at matched epsilon.
func ExtPlanar(cfg *Config) (*Output, error) {
	samples := 4000
	if cfg.quick() {
		samples = 1000
	}
	inst, err := figureInstance(cfg.seed(), 3) // K=21
	if err != nil {
		return nil, err
	}
	tab := &Table{ID: "ext-planar", Title: "CORGI vs planar Laplace (K=21)",
		Header: []string{"epsilon", "corgi_loss_km", "laplace_loss_km", "laplace_viol_pct"}}
	centers := make([]geo.XY, inst.K())
	proj := geo.NewProjection(geo.SanFrancisco.Center())
	for i, c := range inst.Centers() {
		centers[i] = proj.Forward(c)
	}
	for _, eps := range []float64{15, 17, 19} {
		res, err := inst.Generate(core.Params{Epsilon: eps, UseGraphApprox: true})
		if err != nil {
			return nil, err
		}
		mech, err := planar.New(eps)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(cfg.seed() + int64(eps)))
		rows, err := mech.EmpiricalMatrix(centers, samples, rng)
		if err != nil {
			return nil, err
		}
		lm, err := obf.FromRows(rows)
		if err != nil {
			return nil, err
		}
		lloss, err := inst.QualityLoss(lm)
		if err != nil {
			return nil, err
		}
		lrep := lm.CheckGeoInd(inst.NeighborPairs(), eps, 1e-6)
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprintf("%.0f", eps), f6(res.QualityLoss), f6(lloss), f(lrep.Percent()),
		})
	}
	return &Output{Tables: []*Table{tab}}, nil
}

// ExtAttack measures the Bayesian adversary's expected inference error
// against non-robust, robust, and pruned matrices.
func ExtAttack(cfg *Config) (*Output, error) {
	iters := 6
	if cfg.quick() {
		iters = 3
	}
	inst, err := figureInstance(cfg.seed(), 3) // K=21
	if err != nil {
		return nil, err
	}
	plain, err := inst.Generate(core.Params{Epsilon: epsDefault, UseGraphApprox: true})
	if err != nil {
		return nil, err
	}
	robust, err := inst.Generate(core.Params{Epsilon: epsDefault, Delta: 3,
		Iterations: iters, UseGraphApprox: true})
	if err != nil {
		return nil, err
	}
	prior := inst.Priors()
	tab := &Table{ID: "ext-attack", Title: "Bayesian adversary expected inference error (km, higher = more private)",
		Header: []string{"mechanism", "inference_error_km", "after_prune3_km"}}
	rng := rand.New(rand.NewSource(cfg.seed() + 5))
	pruneSet := sample(rng, inst.K(), 3)
	for _, row := range []struct {
		name string
		m    *obf.Matrix
	}{{"non-robust", plain.Matrix}, {"CORGI delta=3", robust.Matrix}} {
		before, err := attack.RemapError(prior, row.m, inst.Dist)
		if err != nil {
			return nil, err
		}
		after, err := attack.PrunedRemapError(prior, row.m, inst.Dist, pruneSet)
		if err != nil {
			return nil, err
		}
		tab.Rows = append(tab.Rows, []string{row.name, f6(before), f6(after)})
	}
	return &Output{Tables: []*Table{tab}}, nil
}

// ExtBudget compares the exact reserved budget (Equ. 12, exhaustive) with
// the approximation (Equ. 14) on a small instance.
func ExtBudget(cfg *Config) (*Output, error) {
	inst, err := figureInstance(cfg.seed(), 1) // K=7
	if err != nil {
		return nil, err
	}
	res, err := inst.Generate(core.Params{Epsilon: epsDefault, UseGraphApprox: true})
	if err != nil {
		return nil, err
	}
	m := res.Matrix
	tab := &Table{ID: "ext-budget", Title: "reserved privacy budget: exact (Equ. 12) vs approximate (Equ. 14)",
		Header: []string{"delta", "mean_exact", "mean_approx", "max_gap", "approx_ge_exact"}}
	pairs := inst.NeighborPairs()
	for _, delta := range []int{1, 2} {
		sumE, sumA, maxGap := 0.0, 0.0, 0.0
		holds := true
		for _, p := range pairs {
			ex, err := budget.ExactPair(m.Row(p.I), m.Row(p.J), p.I, p.J, p.Dist, delta)
			if err != nil {
				return nil, err
			}
			ap, err := budget.ApproxPair(m.Row(p.I), m.Row(p.J), p.I, p.J, p.Dist, epsDefault, delta, budget.VariantProof)
			if err != nil {
				return nil, err
			}
			sumE += ex
			sumA += ap
			if gap := ap - ex; gap > maxGap {
				maxGap = gap
			}
			if ap < ex-1e-9 {
				holds = false
			}
		}
		n := float64(len(pairs))
		tab.Rows = append(tab.Rows, []string{
			d(delta), f(sumE / n), f(sumA / n), f(maxGap), fmt.Sprintf("%v", holds),
		})
	}
	return &Output{Tables: []*Table{tab}}, nil
}

// ExtRPBVariant compares the proof (row-i) and printed (row-j) forms of
// Equ. (14) by the violation rates of the matrices they produce.
func ExtRPBVariant(cfg *Config) (*Output, error) {
	iters, trials := 6, 100
	if cfg.quick() {
		iters, trials = 3, 30
	}
	inst, err := figureInstance(cfg.seed(), 3) // K=21
	if err != nil {
		return nil, err
	}
	tab := &Table{ID: "ext-rpbvariant", Title: "RPB variant ablation (delta=3, prune 3, K=21)",
		Header: []string{"variant", "quality_loss_km", "violations_after_prune_pct"}}
	pairs := inst.NeighborPairs()
	for _, v := range []struct {
		name string
		v    budget.Variant
	}{{"proof (row i)", budget.VariantProof}, {"printed (row j)", budget.VariantPrinted}} {
		res, err := inst.Generate(core.Params{Epsilon: epsDefault, Delta: 3,
			Iterations: iters, UseGraphApprox: true, BudgetVariant: v.v})
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(cfg.seed() + 11))
		viol := meanViolation(res.Matrix, pairs, epsDefault, 3, trials, rng)
		tab.Rows = append(tab.Rows, []string{v.name, f6(res.QualityLoss), f(viol)})
	}
	return &Output{Tables: []*Table{tab}}, nil
}

// ExtApproxQuality measures the quality-loss premium of the graph
// approximation and audits approximation-generated matrices against the
// full pairwise constraint set (the lattice-stretch effect, DESIGN §4).
func ExtApproxQuality(cfg *Config) (*Output, error) {
	e, err := figureWorld(cfg.seed())
	if err != nil {
		return nil, err
	}
	sizes := []int{1, 2}
	if !cfg.quick() {
		sizes = []int{1, 2, 3}
	}
	tab := &Table{ID: "ext-approx-quality", Title: "graph approximation: loss premium and all-pairs audit",
		Header: []string{"locations", "full_loss_km", "approx_loss_km", "premium_pct", "allpairs_viol_pct"}}
	for _, m := range sizes {
		inst, _, err := e.instance(m)
		if err != nil {
			return nil, err
		}
		full, err := inst.Generate(core.Params{Epsilon: epsDefault, UseGraphApprox: false})
		if err != nil {
			return nil, err
		}
		approx, err := inst.Generate(core.Params{Epsilon: epsDefault, UseGraphApprox: true})
		if err != nil {
			return nil, err
		}
		rep := approx.Matrix.CheckGeoInd(inst.AllPairs(), epsDefault, 1e-6)
		premium := 0.0
		if full.QualityLoss > 0 {
			premium = 100 * (approx.QualityLoss - full.QualityLoss) / full.QualityLoss
		}
		tab.Rows = append(tab.Rows, []string{
			d(inst.K()), f6(full.QualityLoss), f6(approx.QualityLoss),
			f(premium), f(rep.Percent()),
		})
	}
	return &Output{Tables: []*Table{tab}}, nil
}
