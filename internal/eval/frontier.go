package eval

import (
	"fmt"
	"math/rand"
	"sort"

	"corgi/internal/attack"
	"corgi/internal/geo"
	"corgi/internal/mechanism"
	"corgi/internal/obf"
)

// The frontier runner sweeps every registered mechanism (internal/
// mechanism.Factories: the LP-optimal robust forest, its non-robust
// baseline, discretized planar Laplace) across epsilon under two
// adversaries and emits a utility-vs-privacy frontier artifact.
//
// Adversary one is the Bayesian remapping attacker (attack.RemapError):
// observe one report, form the posterior, answer with the Bayes-optimal
// remap; its expected distance error is the paper's privacy metric
// (Sec. 6, refs [26, 27]). Each mechanism is measured both intact and
// after δ preference-pruning (attack.PrunedRemapError) — the robustness
// probe: a δ-prunable matrix should hold its error where the non-robust
// baseline collapses or fails to renormalize at all.
//
// Adversary two is the trajectory-correlation attacker (traj.go): a
// forward-filtering HMM that replays Gowalla mobility sessions through
// the real serving stack — resident sessions, re-anchors across subtree
// crossings, budget accounting — and exploits step-to-step correlation
// the single-report metric cannot see. Alongside it the harness checks
// the linear-composition bound internal/budget charges by (t draws cost
// t*eps) against the realized observation-likelihood ratios.
//
// The Frontier JSON ("corgi-frontier/1") is reproduced as a CI artifact;
// its robust_dominates field is the build gate: the robust mechanism's
// post-prune remap error must dominate the non-robust baseline at every
// matched epsilon (matched epsilon fixes the utility side of the
// frontier, so dominance there is dominance at matched utility).

// Schema identifies the frontier artifact format.
const Schema = "corgi-frontier/1"

// frontierDelta is the preference-prune budget the robust mechanisms are
// built for and the pruned-remap probe removes.
const frontierDelta = 3

// Point is one (mechanism, epsilon) cell of the frontier under the
// remapping adversary. Distances are km; higher error = more private,
// lower utility loss = more useful.
type Point struct {
	Epsilon float64 `json:"epsilon"`
	// UtilityLossKm is the expected true-to-reported distance
	// sum_i prior_i sum_j z_ij d_ij — the paper's quality-loss objective.
	UtilityLossKm float64 `json:"utility_loss_km"`
	// RemapErrorKm is the Bayes-optimal remapping adversary's expected
	// inference error against the intact mechanism.
	RemapErrorKm float64 `json:"remap_error_km"`
	// PrunedRemapErrorKm is the same metric after delta leaves are pruned
	// and the matrix renormalized — the worst (lowest) error over the
	// sampled prune sets. Zero when every sampled prune failed.
	PrunedRemapErrorKm float64 `json:"pruned_remap_error_km"`
	// PruneFailed marks a mechanism that could not renormalize some
	// sampled prune set at all (a row lost essentially all mass) — the
	// failure mode delta-prunable generation exists to rule out.
	PruneFailed bool `json:"prune_failed"`
}

// MechanismFrontier is one registered mechanism's sweep.
type MechanismFrontier struct {
	Name   string  `json:"name"`
	Robust bool    `json:"robust"`
	Points []Point `json:"points"`
}

// Frontier is the artifact the frontier runner emits.
type Frontier struct {
	Schema   string    `json:"schema"`
	Seed     int64     `json:"seed"`
	Quick    bool      `json:"quick"`
	Delta    int       `json:"delta"`
	Epsilons []float64 `json:"epsilons"`
	// Cells is the remap-sweep instance size (matrix dimension).
	Cells      int                 `json:"cells"`
	Mechanisms []MechanismFrontier `json:"mechanisms"`
	Trajectory []TrajPoint         `json:"trajectory"`
	// RobustDominates is the CI gate: at every swept epsilon the robust
	// forest mechanism's post-prune remap error is at least the
	// non-robust baseline's (a baseline whose prune failed outright is
	// dominated by definition).
	RobustDominates bool `json:"robust_dominates"`
}

// utilityLoss is the expected reporting distance sum_i p_i sum_j z_ij d_ij.
func utilityLoss(prior []float64, z *obf.Matrix, dist func(i, j int) float64) float64 {
	total := 0.0
	for i := 0; i < z.Dim(); i++ {
		row := z.Row(i)
		for j, v := range row {
			if v > 0 {
				total += prior[i] * v * dist(i, j)
			}
		}
	}
	return total
}

// pruneSets samples `sets` delta-sized prune sets; the pruned metric takes
// the worst case over them, which is the robustness claim's shape
// (delta-prunable = survives any |S| <= delta).
func pruneSets(rng *rand.Rand, n, delta, sets int) [][]int {
	out := make([][]int, sets)
	for s := range out {
		out[s] = sample(rng, n, delta)
		sort.Ints(out[s])
	}
	return out
}

// sweepMechanisms measures every registered mechanism at every epsilon
// under the remapping adversary, over one cluster of leaf cells (K = 21,
// K = 7 when quick). It returns the sweep and K.
func sweepMechanisms(seed int64, quick bool, epsilons []float64) ([]MechanismFrontier, int, error) {
	clusters, iters, sets := 3, 6, 5
	if quick {
		clusters, iters, sets = 1, 3, 3
	}
	// A thin target set concentrates row mass on a few columns, which
	// inflates the reserved budget (Equ. 14) until the tightened multiplier
	// saturates and the robust solve degenerates, so the sweep follows the
	// paper's protocol of spreading targets across the instance.
	k := 7 * clusters
	w, err := newWorld(seed, 2, clusters, max(3, k/3), false)
	if err != nil {
		return nil, 0, err
	}
	leaves, cells, prior, err := w.cluster(clusters)
	if err != nil {
		return nil, 0, err
	}
	centers := make([]geo.LatLng, len(leaves))
	for i, l := range leaves {
		centers[i] = w.tree.Center(l)
	}
	dist := func(i, j int) float64 { return geo.Haversine(centers[i], centers[j]) }
	prunes := pruneSets(rand.New(rand.NewSource(seed+2000)), k, frontierDelta, sets)

	var out []MechanismFrontier
	for _, f := range mechanism.Factories() {
		mf := MechanismFrontier{Name: f.Name, Robust: f.Robust}
		for _, eps := range epsilons {
			z, err := mechanism.Build(f.Name, mechanism.BuildConfig{
				Sys: w.tree.System(), Cells: cells, Priors: prior, Targets: w.targets, TargetProbs: w.tprobs,
				Epsilon: eps, Delta: frontierDelta, Iterations: iters,
			})
			if err != nil {
				return nil, 0, fmt.Errorf("eval: building %s at eps=%g: %w", f.Name, eps, err)
			}
			p := Point{Epsilon: eps, UtilityLossKm: utilityLoss(prior, z, dist)}
			p.RemapErrorKm, err = attack.RemapError(prior, z, dist)
			if err != nil {
				return nil, 0, fmt.Errorf("eval: remap error for %s at eps=%g: %w", f.Name, eps, err)
			}
			worst := -1.0
			for _, set := range prunes {
				e, err := attack.PrunedRemapError(prior, z, dist, set)
				if err != nil {
					// A prune the matrix cannot absorb: the non-robust
					// failure mode, recorded rather than fatal.
					p.PruneFailed = true
					continue
				}
				if worst < 0 || e < worst {
					worst = e
				}
			}
			if worst >= 0 {
				p.PrunedRemapErrorKm = worst
			}
			mf.Points = append(mf.Points, p)
		}
		out = append(out, mf)
	}
	return out, k, nil
}

// robustDominates is the gate: at every epsilon the robust forest
// mechanism's worst-case post-prune error must be at least the
// non-robust baseline's (an outright prune failure is dominated).
func robustDominates(ms []MechanismFrontier) bool {
	var robust, plain *MechanismFrontier
	for i := range ms {
		switch ms[i].Name {
		case "forest-optimal":
			robust = &ms[i]
		case "forest-nonrobust":
			plain = &ms[i]
		}
	}
	if robust == nil || plain == nil {
		return false
	}
	byEps := map[float64]Point{}
	for _, p := range plain.Points {
		byEps[p.Epsilon] = p
	}
	const tol = 1e-9
	for _, rp := range robust.Points {
		pp, ok := byEps[rp.Epsilon]
		if !ok {
			continue
		}
		if rp.PruneFailed {
			return false // the robust mechanism must absorb every sampled prune
		}
		if pp.PruneFailed {
			continue // baseline collapsed outright: dominated at this eps
		}
		if rp.PrunedRemapErrorKm+tol < pp.PrunedRemapErrorKm {
			return false
		}
	}
	return true
}

// RunFrontier executes the full frontier sweep: the remapping adversary
// across all registered mechanisms and epsilons (the grid around the
// paper's eps = 15), then the trajectory-correlation adversary through the
// real serving stack. Equal seeds reproduce equal frontiers. The Frontier
// is the output's artifact; the tables are rendered from it.
func RunFrontier(cfg *Config) (*Output, error) {
	seed, quick := cfg.seed(), cfg.quick()
	epsilons := []float64{5, 10, 15}
	if quick {
		epsilons = []float64{10, 15}
	}
	mechs, cells, err := sweepMechanisms(seed, quick, epsilons)
	if err != nil {
		return nil, err
	}
	traj, err := sweepTrajectories(seed, quick, epsilons)
	if err != nil {
		return nil, err
	}
	fr := &Frontier{
		Schema:          Schema,
		Seed:            seed,
		Quick:           quick,
		Delta:           frontierDelta,
		Epsilons:        epsilons,
		Cells:           cells,
		Mechanisms:      mechs,
		Trajectory:      traj,
		RobustDominates: robustDominates(mechs),
	}
	return &Output{Tables: fr.tables(), Artifact: fr}, nil
}

// tables renders the frontier for the terminal: one row per (mechanism,
// epsilon) under each adversary.
func (fr *Frontier) tables() []*Table {
	remap := &Table{ID: "frontier-remap",
		Title: fmt.Sprintf("remapping adversary, %s: %d cells, delta=%d, robust_dominates=%v",
			fr.Schema, fr.Cells, fr.Delta, fr.RobustDominates),
		Header: []string{"mechanism", "robust", "epsilon", "utility_loss_km", "remap_error_km", "pruned_remap_error_km", "prune_failed"}}
	for _, m := range fr.Mechanisms {
		for _, p := range m.Points {
			remap.Rows = append(remap.Rows, []string{m.Name, fmt.Sprint(m.Robust), fmt.Sprint(p.Epsilon),
				f(p.UtilityLossKm), f(p.RemapErrorKm), f(p.PrunedRemapErrorKm), fmt.Sprint(p.PruneFailed)})
		}
	}
	traj := &Table{ID: "frontier-traj", Title: "trajectory-correlation adversary (HMM over replayed Gowalla sessions)",
		Header: []string{"mechanism", "epsilon", "users", "steps", "reanchors", "traj_error_km", "indep_error_km",
			"correlation_gain", "linear_eps_budget", "composition_ratio", "composition_holds"}}
	for _, tp := range fr.Trajectory {
		traj.Rows = append(traj.Rows, []string{tp.Mechanism, fmt.Sprint(tp.Epsilon), d(tp.Users), d(tp.Steps), d(tp.Reanchors),
			f(tp.TrajErrorKm), f(tp.IndepErrorKm), f(tp.CorrelationGain), f(tp.LinearEpsBudget),
			f(tp.CompositionRatio), fmt.Sprint(tp.CompositionHolds)})
	}
	return []*Table{remap, traj}
}
