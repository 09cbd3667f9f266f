// Package experiments regenerates every figure of the paper's evaluation
// (Sec. 6, Figs. 9-14) plus the extension studies (the ext-* runners). Each
// experiment is a named Runner producing printable tables; cmd/
// corgi-experiments drives them, and bench_test.go wraps them as testing.B
// benchmarks.
//
// Scale notes: the harness defaults to "quick" settings sized for a single
// core (fewer Algorithm-1 rounds, fewer Monte-Carlo repeats); Full restores
// paper-scale sweeps. Leaf cells are 0.1 km apart so that the paper's
// epsilon axis (15-20 km^-1) lands in the regime where Geo-Ind constraints
// bind (eps*d in [1.5, 3.5]).
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"time"

	"corgi/internal/attack"
	"corgi/internal/budget"
	"corgi/internal/core"
	"corgi/internal/geo"
	"corgi/internal/gowalla"
	"corgi/internal/graphx"
	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
	"corgi/internal/obf"
	"corgi/internal/planar"
)

// Config tunes a run.
type Config struct {
	Quick bool  // reduced repeats/rounds (default mode for the harness)
	Seed  int64 // master seed; 0 means 1
}

func (c *Config) seed() int64 {
	if c == nil || c.Seed == 0 {
		return 1
	}
	return c.Seed
}

func (c *Config) quick() bool { return c == nil || c.Quick }

// Table is one printable result series.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	fmt.Fprintln(w)
}

// Runner produces an experiment's tables.
type Runner func(cfg *Config) ([]*Table, error)

// registryEntry pairs an id with its runner and description.
type registryEntry struct {
	ID   string
	Desc string
	Run  Runner
}

// Registry lists every experiment in presentation order.
var Registry = []registryEntry{
	{"fig9", "Convergence of quality loss over Algorithm-1 iterations (delta=2,4)", Fig9},
	{"fig10a", "Matrix generation time with vs without graph approximation", Fig10a},
	{"fig10b", "Geo-Ind constraint counts with vs without graph approximation", Fig10b},
	{"fig11", "Quality loss vs epsilon for non-robust vs CORGI (delta=1..3)", Fig11},
	{"fig12", "Geo-Ind violations vs number of pruned locations", Fig12},
	{"fig13", "Quality loss vs privacy level (obfuscation range)", Fig13},
	{"fig14", "Precision reduction vs matrix recalculation runtime", Fig14},
	{"headline", "Abstract headline: prune 14.28% -> violation rates", Headline},
	{"ext-planar", "Extension: planar Laplace baseline comparison", ExtPlanar},
	{"ext-attack", "Extension: Bayesian adversary inference error", ExtAttack},
	{"ext-budget", "Extension: exact vs approximate reserved budget", ExtBudget},
	{"ext-rpbvariant", "Extension: RPB row-i (proof) vs row-j (printed) variants", ExtRPBVariant},
	{"ext-approx-quality", "Extension: quality cost of the graph approximation", ExtApproxQuality},
}

// Lookup finds a runner by id.
func Lookup(id string) (Runner, bool) {
	for _, e := range Registry {
		if e.ID == id {
			return e.Run, true
		}
	}
	return nil, false
}

// IDs returns all experiment ids in order.
func IDs() []string {
	out := make([]string, len(Registry))
	for i, e := range Registry {
		out[i] = e.ID
	}
	return out
}

// Describe returns the description for an id.
func Describe(id string) string {
	for _, e := range Registry {
		if e.ID == id {
			return e.Desc
		}
	}
	return ""
}

// env is the shared experimental setup: the SF region, a height-3 tree
// (343 leaves, as in the paper), synthetic Gowalla priors, and NR_TARGET
// target locations.
type env struct {
	sys     *hexgrid.System
	tree    *loctree.Tree
	priors  *loctree.Priors
	train   []gowalla.CheckIn
	test    []gowalla.CheckIn
	targets []geo.LatLng
	tprobs  []float64
	seed    int64
}

const (
	leafSpacingKm = 0.1
	nrTarget      = 49
	epsDefault    = 15.0
)

func newEnv(cfg *Config) (*env, error) {
	seed := cfg.seed()
	sys, err := hexgrid.NewSystem(geo.SanFrancisco.Center(), leafSpacingKm)
	if err != nil {
		return nil, err
	}
	tree, err := loctree.NewAt(sys, geo.SanFrancisco.Center(), 3)
	if err != nil {
		return nil, err
	}
	ds, err := gowalla.Generate(gowalla.GenConfig{Seed: seed})
	if err != nil {
		return nil, err
	}
	// 90/10 split (Sec. 6.2.3): priors from train, user locations from test.
	train, test, err := gowalla.SplitTrainTest(ds.CheckIns, 0.9, seed)
	if err != nil {
		return nil, err
	}
	// Check-ins land across the whole SF box; the tree covers only its
	// center. That matches the paper's approach of indexing an area of
	// interest; priors are smoothed so every leaf is usable.
	leaf, err := gowalla.LeafPriors(train, tree, 1)
	if err != nil {
		return nil, err
	}
	priors, err := loctree.NewPriors(tree, leaf)
	if err != nil {
		return nil, err
	}
	e := &env{sys: sys, tree: tree, priors: priors, train: train, test: test, seed: seed}

	// NR_TARGET targets drawn from the K=49 cluster's leaves so every
	// instance size shares the same service locations.
	cluster, err := tree.ClusterLeaves(7)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 1000))
	perm := rng.Perm(len(cluster))[:nrTarget]
	sort.Ints(perm)
	for _, idx := range perm {
		e.targets = append(e.targets, tree.Center(cluster[idx]))
		e.tprobs = append(e.tprobs, 1)
	}
	return e, nil
}

// instance builds a core.Instance over ClusterLeaves(m) — K = 7m cells.
func (e *env) instance(m int) (*core.Instance, []loctree.NodeID, error) {
	leaves, err := e.tree.ClusterLeaves(m)
	if err != nil {
		return nil, nil, err
	}
	cells := make([]hexgrid.Coord, len(leaves))
	for i, l := range leaves {
		cells[i] = l.Coord
	}
	pr, err := e.priors.Subset(e.tree, leaves, true)
	if err != nil {
		return nil, nil, err
	}
	inst, err := core.NewInstance(e.sys, cells, pr, e.targets, e.tprobs, graphx.WeightPaper)
	if err != nil {
		return nil, nil, err
	}
	return inst, leaves, nil
}

func f(v float64) string  { return fmt.Sprintf("%.4f", v) }
func f6(v float64) string { return fmt.Sprintf("%.6f", v) }
func d(v int) string      { return fmt.Sprintf("%d", v) }
func ms(t time.Duration) string {
	return fmt.Sprintf("%.1f", float64(t.Microseconds())/1000.0)
}

// Fig9 reproduces Fig. 9: the objective value (quality loss) after each
// Algorithm-1 iteration and its successive differences, for delta = 2 and
// delta = 4, at K = 49, eps = 15.
func Fig9(cfg *Config) ([]*Table, error) {
	e, err := newEnv(cfg)
	if err != nil {
		return nil, err
	}
	iters, repeats := 15, 3
	if cfg.quick() {
		iters, repeats = 8, 1
	}
	objTab := &Table{ID: "fig9ab", Title: "quality loss per iteration (Fig. 9a/b)",
		Header: []string{"delta", "repeat", "iteration", "quality_loss_km"}}
	diffTab := &Table{ID: "fig9cd", Title: "difference of quality loss in consecutive iterations (Fig. 9c/d)",
		Header: []string{"delta", "repeat", "iteration", "loss_diff_km"}}
	for _, delta := range []int{2, 4} {
		for rep := 0; rep < repeats; rep++ {
			inst, _, err := e.instance(7)
			if err != nil {
				return nil, err
			}
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
	return []*Table{objTab, diffTab}, nil
}

// Fig10a reproduces Fig. 10(a): robust-matrix generation time with and
// without the graph approximation, for increasing delta.
func Fig10a(cfg *Config) ([]*Table, error) {
	e, err := newEnv(cfg)
	if err != nil {
		return nil, err
	}
	deltas := []int{1, 2, 3, 4, 5, 6, 7}
	iters, m := 10, 7 // K = 49
	if cfg.quick() {
		deltas = []int{1, 3, 5}
		iters, m = 3, 3 // K = 21 keeps the full-constraint runs tractable
	}
	tab := &Table{ID: "fig10a", Title: "running time (s) of robust matrix generation (Fig. 10a)",
		Header: []string{"delta", "with_approx_s", "without_approx_s", "speedup"}}
	for _, delta := range deltas {
		inst, _, err := e.instance(m)
		if err != nil {
			return nil, err
		}
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
	return []*Table{tab}, nil
}

// Fig10b reproduces Fig. 10(b): the number of Geo-Ind constraints with and
// without the approximation as the location count grows.
func Fig10b(cfg *Config) ([]*Table, error) {
	e, err := newEnv(cfg)
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
	return []*Table{tab}, nil
}

// Fig11 reproduces Fig. 11: quality loss vs epsilon for the non-robust
// baseline and CORGI with delta = 1, 2, 3.
func Fig11(cfg *Config) ([]*Table, error) {
	e, err := newEnv(cfg)
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
		inst, _, err := e.instance(7)
		if err != nil {
			return nil, err
		}
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
	return []*Table{tab}, nil
}

// pruneTrial prunes n random locations from a matrix and reports the
// violation rate over the surviving constraint pairs.
func pruneTrial(m *obf.Matrix, pairs []obf.Pair, eps float64, n int, rng *rand.Rand) (float64, bool) {
	s := rng.Perm(m.Dim())[:n]
	pm, keep, err := m.Prune(s)
	if err != nil {
		return 0, false // a row lost all mass: skip trial
	}
	newIdx := make(map[int]int, len(keep))
	for ni, oi := range keep {
		newIdx[oi] = ni
	}
	var surviving []obf.Pair
	for _, p := range pairs {
		ni, iok := newIdx[p.I]
		nj, jok := newIdx[p.J]
		if iok && jok {
			surviving = append(surviving, obf.Pair{I: ni, J: nj, Dist: p.Dist})
		}
	}
	rep := pm.CheckGeoInd(surviving, eps, 1e-6)
	return rep.Percent(), true
}

// violationSweep runs the Fig. 12 protocol for one matrix.
func violationSweep(m *obf.Matrix, pairs []obf.Pair, eps float64, maxPrune, trials int, rng *rand.Rand) []float64 {
	out := make([]float64, maxPrune)
	for n := 1; n <= maxPrune; n++ {
		sum, ok := 0.0, 0
		for t := 0; t < trials; t++ {
			if v, valid := pruneTrial(m, pairs, eps, n, rng); valid {
				sum += v
				ok++
			}
		}
		if ok > 0 {
			out[n-1] = sum / float64(ok)
		}
	}
	return out
}

// Fig12 reproduces Fig. 12: percentage of violated Geo-Ind constraints vs
// the number of pruned locations, CORGI vs non-robust, for (a) delta = 3 at
// K = 49 and (b) delta = 5 at K = 70.
func Fig12(cfg *Config) ([]*Table, error) {
	e, err := newEnv(cfg)
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
		rng := rand.New(rand.NewSource(e.seed + int64(setup.m)))
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
	return tables, nil
}

// Fig13 reproduces Fig. 13: quality loss for a wider vs narrower
// obfuscation range. The paper compares privacy level 3 (343 leaves) with
// level 2 (49); at single-core scale we compare level 2 (49) with level 1
// (7) — the shape (wider range => higher loss, loss falls with eps, rises
// with delta) is the claim under test.
func Fig13(cfg *Config) ([]*Table, error) {
	e, err := newEnv(cfg)
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
		p := core.Params{Epsilon: eps, Delta: delta, Iterations: iters, UseGraphApprox: true}
		if delta == 0 {
			p.Iterations = 0
		}
		res, err := inst.Generate(p)
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
	return []*Table{tabA, tabB}, nil
}

// Fig14 reproduces Fig. 14: the running time of obtaining a coarser-level
// matrix by precision reduction vs recalculating it from scratch, (a) as
// the location count grows and (b) as delta grows.
func Fig14(cfg *Config) ([]*Table, error) {
	e, err := newEnv(cfg)
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
		groups, _, err := groupLeavesByParent(e.tree, leaves)
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
		recalcT, err := recalcAtLevel1(e, leaves, m)
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
	groups, _, err := groupLeavesByParent(e.tree, leaves)
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
	return []*Table{tabA, tabB}, nil
}

func groupLeavesByParent(tree *loctree.Tree, leaves []loctree.NodeID) ([][]int, []loctree.NodeID, error) {
	order := make([]loctree.NodeID, 0)
	groups := map[loctree.NodeID][]int{}
	for i, leaf := range leaves {
		anc, ok := tree.AncestorAt(leaf, 1)
		if !ok {
			return nil, nil, fmt.Errorf("experiments: leaf %v has no level-1 ancestor", leaf)
		}
		if _, seen := groups[anc]; !seen {
			order = append(order, anc)
		}
		groups[anc] = append(groups[anc], i)
	}
	out := make([][]int, len(order))
	for gi, anc := range order {
		out[gi] = groups[anc]
	}
	return out, order, nil
}

func recalcAtLevel1(e *env, leaves []loctree.NodeID, m int) (time.Duration, error) {
	_, parents, err := groupLeavesByParent(e.tree, leaves)
	if err != nil {
		return 0, err
	}
	cells := make([]hexgrid.Coord, len(parents))
	pr := make([]float64, len(parents))
	for i, p := range parents {
		cells[i] = p.Coord
		pr[i] = e.priors.Of(e.tree, p)
	}
	if len(cells) < 2 {
		return 0, fmt.Errorf("experiments: recalculation needs >= 2 cells")
	}
	inst, err := core.NewInstanceLevel(e.sys, 1, cells, pr, e.targets, e.tprobs, graphx.WeightPaper)
	if err != nil {
		return 0, err
	}
	res, err := inst.Generate(core.Params{Epsilon: epsDefault, UseGraphApprox: true})
	if err != nil {
		return 0, err
	}
	_ = m
	return res.Elapsed, nil
}

// Headline reproduces the abstract's claim: pruning 14.28% of locations
// (7 of 49) causes few violations in CORGI's matrix vs many in the
// non-robust one.
func Headline(cfg *Config) ([]*Table, error) {
	e, err := newEnv(cfg)
	if err != nil {
		return nil, err
	}
	iters, trials := 10, 200
	if cfg.quick() {
		iters, trials = 5, 50
	}
	inst, _, err := e.instance(7)
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
	rng := rand.New(rand.NewSource(e.seed + 99))
	sumR, sumP, okN := 0.0, 0.0, 0
	for t := 0; t < trials; t++ {
		s := rng.Perm(inst.K())[:7]
		r, ok1 := pruneTrialWith(robust.Matrix, pairs, epsDefault, s)
		p, ok2 := pruneTrialWith(plain.Matrix, pairs, epsDefault, s)
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
	return []*Table{tab}, nil
}

func pruneTrialWith(m *obf.Matrix, pairs []obf.Pair, eps float64, s []int) (float64, bool) {
	pm, keep, err := m.Prune(s)
	if err != nil {
		return 0, false
	}
	newIdx := make(map[int]int, len(keep))
	for ni, oi := range keep {
		newIdx[oi] = ni
	}
	var surviving []obf.Pair
	for _, p := range pairs {
		ni, iok := newIdx[p.I]
		nj, jok := newIdx[p.J]
		if iok && jok {
			surviving = append(surviving, obf.Pair{I: ni, J: nj, Dist: p.Dist})
		}
	}
	return pm.CheckGeoInd(surviving, eps, 1e-6).Percent(), true
}

// ExtPlanar compares CORGI's LP-optimal matrices against the discretized
// planar Laplace mechanism at matched epsilon.
func ExtPlanar(cfg *Config) ([]*Table, error) {
	e, err := newEnv(cfg)
	if err != nil {
		return nil, err
	}
	samples := 4000
	if cfg.quick() {
		samples = 1000
	}
	inst, _, err := e.instance(3) // K=21
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
		rng := rand.New(rand.NewSource(e.seed + int64(eps)))
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
	return []*Table{tab}, nil
}

// ExtAttack measures the Bayesian adversary's expected inference error
// against non-robust, robust, and pruned matrices.
func ExtAttack(cfg *Config) ([]*Table, error) {
	e, err := newEnv(cfg)
	if err != nil {
		return nil, err
	}
	iters := 6
	if cfg.quick() {
		iters = 3
	}
	inst, _, err := e.instance(3) // K=21
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
	dist := func(i, j int) float64 { return inst.Dist(i, j) }
	prior := inst.Priors()
	tab := &Table{ID: "ext-attack", Title: "Bayesian adversary expected inference error (km, higher = more private)",
		Header: []string{"mechanism", "inference_error_km", "after_prune3_km"}}
	rng := rand.New(rand.NewSource(e.seed + 5))
	pruneSet := rng.Perm(inst.K())[:3]
	for _, row := range []struct {
		name string
		m    *obf.Matrix
	}{{"non-robust", plain.Matrix}, {"CORGI delta=3", robust.Matrix}} {
		before, err := attack.RemapError(prior, row.m, dist)
		if err != nil {
			return nil, err
		}
		after, err := attack.PrunedRemapError(prior, row.m, dist, pruneSet)
		if err != nil {
			return nil, err
		}
		tab.Rows = append(tab.Rows, []string{row.name, f6(before), f6(after)})
	}
	return []*Table{tab}, nil
}

// ExtBudget compares the exact reserved budget (Equ. 12, exhaustive) with
// the approximation (Equ. 14) on a small instance.
func ExtBudget(cfg *Config) ([]*Table, error) {
	e, err := newEnv(cfg)
	if err != nil {
		return nil, err
	}
	inst, _, err := e.instance(1) // K=7
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
	return []*Table{tab}, nil
}

// ExtRPBVariant compares the proof (row-i) and printed (row-j) forms of
// Equ. (14) by the violation rates of the matrices they produce.
func ExtRPBVariant(cfg *Config) ([]*Table, error) {
	e, err := newEnv(cfg)
	if err != nil {
		return nil, err
	}
	iters, trials := 6, 100
	if cfg.quick() {
		iters, trials = 3, 30
	}
	inst, _, err := e.instance(3) // K=21
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
		rng := rand.New(rand.NewSource(e.seed + 11))
		sum, ok := 0.0, 0
		for t := 0; t < trials; t++ {
			if val, valid := pruneTrial(res.Matrix, pairs, epsDefault, 3, rng); valid {
				sum += val
				ok++
			}
		}
		tab.Rows = append(tab.Rows, []string{v.name, f6(res.QualityLoss), f(sum / float64(ok))})
	}
	return []*Table{tab}, nil
}

// ExtApproxQuality measures the quality-loss premium of the graph
// approximation and audits approximation-generated matrices against the
// full pairwise constraint set (the lattice-stretch effect, DESIGN §4).
func ExtApproxQuality(cfg *Config) ([]*Table, error) {
	e, err := newEnv(cfg)
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
	return []*Table{tab}, nil
}
