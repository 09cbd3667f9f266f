package eval

import (
	"context"
	"fmt"
	"math"
	"sort"

	"corgi/internal/core"
	"corgi/internal/device"
	"corgi/internal/geo"
	"corgi/internal/gowalla"
	"corgi/internal/loctree"
	"corgi/internal/mechanism"
	"corgi/internal/policy"
	"corgi/internal/registry"
)

// TrajPoint is one (mechanism, epsilon) cell of the frontier under the
// trajectory-correlation adversary: Gowalla mobility sessions replayed
// through the device's Algorithm 4 (device.Forest over the mechanism's
// privacy forest), attacked by a forward-filtering HMM that knows the
// mechanism, the leaf priors, and a mobility model — the correlation the
// single-report remap metric cannot exploit.
type TrajPoint struct {
	Mechanism string  `json:"mechanism"`
	Epsilon   float64 `json:"epsilon"`
	Users     int     `json:"users"`
	Steps     int     `json:"steps"`
	// Reanchors counts subtree crossings the device re-anchored its
	// session for mid-stream — the mobility path (session.Rebind)
	// exercised under attack, not just in tests.
	Reanchors int `json:"reanchors"`
	// TrajErrorKm is the HMM adversary's mean distance error per step;
	// IndepErrorKm is the same adversary forced to treat each report
	// independently (posterior from one observation, no mobility carry).
	TrajErrorKm  float64 `json:"traj_error_km"`
	IndepErrorKm float64 `json:"indep_error_km"`
	// CorrelationGain = indep/traj: how much exploiting trajectory
	// correlation sharpens the attack (>= 1 means correlation helps).
	CorrelationGain float64 `json:"correlation_gain"`
	// LinearEpsBudget is the mean per-user epsilon spent under linear
	// composition (what internal/budget charges): epsilon added once per
	// draw, in draw order.
	LinearEpsBudget float64 `json:"linear_eps_budget"`
	// CompositionRatio is the realized observation log-likelihood ratio
	// between same-subtree location hypotheses, relative to the linear
	// Geo-Ind composition bound eps * t * d(i,j) — the worst pair over
	// the replay. <= 1 means the bound the accountant charges by held
	// against this correlating adversary.
	CompositionRatio float64 `json:"composition_ratio"`
	CompositionHolds bool    `json:"composition_holds"`
}

const trajPrivacyLevel = 1

// trajForests builds the two privacy_l = 1, |S| = 0 forests the replay
// draws from, over one region tree: forest-optimal's from a registry
// shard's server (the LP solves a serving region runs) and planar
// Laplace's from one planar entry per subtree.
func trajForests(ctx context.Context, eps float64, seed int64) (*loctree.Tree, *core.Forest, *core.Forest, error) {
	region := fmt.Sprintf("eval-traj-e%g", eps)
	reg, err := registry.New([]registry.Spec{{
		Name:      region,
		CenterLat: geo.SanFrancisco.Center().Lat,
		CenterLng: geo.SanFrancisco.Center().Lng,
		Height:    2,
		Epsilon:   eps,
		// Two robustness rounds keep the per-subtree LP solves cheap; the
		// replay prunes nothing, so delta stays 0 anyway.
		Iterations:    2,
		Targets:       3,
		Seed:          seed,
		UniformPriors: true,
	}}, registry.Options{})
	if err != nil {
		return nil, nil, nil, err
	}
	sh, err := reg.Shard(ctx, region)
	if err != nil {
		return nil, nil, nil, err
	}
	optimal, err := sh.Server.GenerateForestCtx(ctx, trajPrivacyLevel, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	tree := sh.Server.Tree()
	planar := &core.Forest{PrivacyLevel: trajPrivacyLevel, Entries: map[loctree.NodeID]*core.ForestEntry{}}
	for _, root := range tree.LevelNodes(trajPrivacyLevel) {
		if planar.Entries[root], err = core.PlanarEntry(tree, root, eps); err != nil {
			return nil, nil, nil, err
		}
	}
	return tree, optimal, planar, nil
}

// trajStep is one located replay step: the true leaf and the stack's
// reported node.
type trajStep struct {
	truth    loctree.NodeID
	observed loctree.NodeID
}

// mobilityCorpus locates Gowalla trajectories inside the region tree:
// check-ins are generated over the tree's own bounding box so sessions
// wander across privacy subtrees (re-anchors are part of the replay, not
// an edge case).
func mobilityCorpus(tree *loctree.Tree, seed int64, users, steps int) ([][]loctree.NodeID, float64, error) {
	leaves := tree.LevelNodes(0)
	box := geo.BoundingBox{MinLat: math.Inf(1), MinLng: math.Inf(1),
		MaxLat: math.Inf(-1), MaxLng: math.Inf(-1)}
	for _, l := range leaves {
		c := tree.Center(l)
		box.MinLat = math.Min(box.MinLat, c.Lat)
		box.MaxLat = math.Max(box.MaxLat, c.Lat)
		box.MinLng = math.Min(box.MinLng, c.Lng)
		box.MaxLng = math.Max(box.MaxLng, c.Lng)
	}
	ds, err := gowalla.Generate(gowalla.GenConfig{
		Seed:        seed + 3000,
		NumUsers:    users * 4, // headroom: some users won't locate enough steps
		NumCheckIns: users * steps * 8,
		BBox:        box,
	})
	if err != nil {
		return nil, 0, err
	}
	var out [][]loctree.NodeID
	var stepKm []float64
	for _, tr := range gowalla.Trajectories(ds.CheckIns) {
		var path []loctree.NodeID
		for _, c := range tr.Points {
			leaf, ok := tree.Locate(c.Loc, 0)
			if !ok {
				continue
			}
			path = append(path, leaf)
			if len(path) == steps {
				break
			}
		}
		if len(path) < 2 {
			continue
		}
		for i := 1; i < len(path); i++ {
			stepKm = append(stepKm, tree.Distance(path[i-1], path[i]))
		}
		out = append(out, path)
		if len(out) == users {
			break
		}
	}
	if len(out) == 0 {
		return nil, 0, fmt.Errorf("eval: no trajectory landed inside the region")
	}
	sort.Float64s(stepKm)
	lambda := stepKm[len(stepKm)/2]
	if lambda < 0.05 {
		lambda = 0.05 // floor: a degenerate corpus still gets a usable mobility scale
	}
	return out, lambda, nil
}

// hmm is the correlating adversary's model over the region's leaves:
// prior, mobility transition T(a,b) ~ exp(-d/lambda), and per-subtree
// emission rows taken from the forest the device draws from.
type hmm struct {
	tree     *loctree.Tree
	leaves   []loctree.NodeID
	idx      map[loctree.NodeID]int
	rootOf   []loctree.NodeID
	prior    []float64
	trans    [][]float64 // row-normalized
	dist     [][]float64
	emission map[loctree.NodeID]map[loctree.NodeID][]float64 // root -> observed -> per-leaf likelihood
}

func newHMM(tree *loctree.Tree, forest *core.Forest, lambda float64) (*hmm, error) {
	leaves := tree.LevelNodes(0)
	n := len(leaves)
	h := &hmm{
		tree:     tree,
		leaves:   leaves,
		idx:      make(map[loctree.NodeID]int, n),
		rootOf:   make([]loctree.NodeID, n),
		prior:    make([]float64, n),
		trans:    make([][]float64, n),
		dist:     make([][]float64, n),
		emission: map[loctree.NodeID]map[loctree.NodeID][]float64{},
	}
	for i, l := range leaves {
		h.idx[l] = i
		root, ok := tree.AncestorAt(l, trajPrivacyLevel)
		if !ok {
			return nil, fmt.Errorf("eval: no privacy subtree over %v", l)
		}
		h.rootOf[i] = root
		h.prior[i] = 1 / float64(n)
	}
	for i := range leaves {
		h.dist[i] = make([]float64, n)
		h.trans[i] = make([]float64, n)
		sum := 0.0
		for j := range leaves {
			h.dist[i][j] = tree.Distance(leaves[i], leaves[j])
			h.trans[i][j] = math.Exp(-h.dist[i][j] / lambda)
			sum += h.trans[i][j]
		}
		for j := range leaves {
			h.trans[i][j] /= sum
		}
	}
	// Emission tables: for an observed report o (a leaf of subtree root),
	// the likelihood of true leaf l is Z_root[l][o] when l shares the
	// subtree (reports never leave their subtree) and 0 otherwise.
	for _, root := range tree.LevelNodes(trajPrivacyLevel) {
		entry, ok := forest.Entries[root]
		if !ok {
			return nil, fmt.Errorf("eval: forest has no entry for subtree %v", root)
		}
		m, mLeaves := entry.Matrix, entry.Leaves
		col := make(map[loctree.NodeID]int, len(mLeaves))
		for i, l := range mLeaves {
			col[l] = i
		}
		byObs := map[loctree.NodeID][]float64{}
		for _, o := range mLeaves {
			lik := make([]float64, n)
			for li, leaf := range leaves {
				if h.rootOf[li] != root {
					continue
				}
				ri, ok := col[leaf]
				if !ok {
					return nil, fmt.Errorf("eval: leaf %v missing from subtree matrix %v", leaf, root)
				}
				lik[li] = m.At(ri, col[o])
			}
			byObs[o] = lik
		}
		h.emission[root] = byObs
	}
	return h, nil
}

// likelihood returns the per-leaf emission vector for one observed report.
func (h *hmm) likelihood(observed loctree.NodeID) ([]float64, error) {
	root, ok := h.tree.AncestorAt(observed, trajPrivacyLevel)
	if !ok {
		return nil, fmt.Errorf("eval: observed node %v outside the tree", observed)
	}
	lik, ok := h.emission[root][observed]
	if !ok {
		return nil, fmt.Errorf("eval: no emission row for observation %v", observed)
	}
	return lik, nil
}

// remapEstimate is the Bayes-optimal point estimate under a belief:
// argmin_x sum_l belief_l d(l, x).
func (h *hmm) remapEstimate(belief []float64) int {
	best, bestCost := 0, math.Inf(1)
	for x := range h.leaves {
		cost := 0.0
		for l, b := range belief {
			if b > 0 {
				cost += b * h.dist[l][x]
			}
		}
		if cost < bestCost {
			best, bestCost = x, cost
		}
	}
	return best
}

// replayUser runs one trajectory through the forward filter. Returns the
// summed per-step errors for the correlating and independent attackers,
// the step count, and the per-subtree observation log-likelihoods for the
// composition check.
func (h *hmm) replayUser(steps []trajStep) (trajSum, indepSum float64, n int, logLik map[loctree.NodeID][]float64, obsCount map[loctree.NodeID]int, err error) {
	belief := append([]float64(nil), h.prior...)
	// logLik[root][l] accumulates sum_t log Z_root[l][o_t] over the steps
	// observed inside root's subtree; leaves outside root stay NaN.
	logLik = map[loctree.NodeID][]float64{}
	obsCount = map[loctree.NodeID]int{}
	pred := make([]float64, len(belief))
	for _, st := range steps {
		lik, lerr := h.likelihood(st.observed)
		if lerr != nil {
			return 0, 0, 0, nil, nil, lerr
		}
		// Predict: belief through one mobility-transition step.
		for j := range pred {
			pred[j] = 0
		}
		for a, b := range belief {
			if b <= 0 {
				continue
			}
			ta := h.trans[a]
			for j, t := range ta {
				pred[j] += b * t
			}
		}
		// Update: multiply in the emission, renormalize.
		sum := 0.0
		for j := range pred {
			pred[j] *= lik[j]
			sum += pred[j]
		}
		if sum <= 0 {
			// An observation the mobility model finds impossible: reset to
			// the single-step posterior rather than dividing by zero.
			for j := range pred {
				pred[j] = h.prior[j] * lik[j]
				sum += pred[j]
			}
		}
		for j := range pred {
			pred[j] /= sum
		}
		copy(belief, pred)

		truth := h.idx[st.truth]
		trajSum += h.dist[h.remapEstimate(belief)][truth]

		// Independent baseline: posterior from this observation alone.
		indep := make([]float64, len(belief))
		isum := 0.0
		for j := range indep {
			indep[j] = h.prior[j] * lik[j]
			isum += indep[j]
		}
		if isum > 0 {
			for j := range indep {
				indep[j] /= isum
			}
			indepSum += h.dist[h.remapEstimate(indep)][truth]
		} else {
			indepSum += h.dist[h.remapEstimate(h.prior)][truth]
		}
		n++

		// Composition bookkeeping: static-hypothesis log-likelihoods per
		// subtree.
		root, _ := h.tree.AncestorAt(st.observed, trajPrivacyLevel)
		ll, ok := logLik[root]
		if !ok {
			ll = make([]float64, len(h.leaves))
			for j := range ll {
				if h.rootOf[j] == root {
					ll[j] = 0
				} else {
					ll[j] = math.NaN()
				}
			}
			logLik[root] = ll
		}
		obsCount[root]++
		for j := range ll {
			if math.IsNaN(ll[j]) {
				continue
			}
			if lik[j] > 0 {
				ll[j] += math.Log(lik[j])
			} else {
				ll[j] = math.Inf(-1)
			}
		}
	}
	return trajSum, indepSum, n, logLik, obsCount, nil
}

// compositionRatio checks the realized observation log-likelihood ratios
// against the linear Geo-Ind composition bound: for static hypotheses i, j
// in one subtree observed t times, |log L_i - log L_j| <= eps * t * d(i,j)
// (Equ. 2 composed linearly — exactly what internal/budget charges for).
// Returns the worst realized/bound ratio.
func (h *hmm) compositionRatio(eps float64, logLik map[loctree.NodeID][]float64, obsCount map[loctree.NodeID]int) float64 {
	worst := 0.0
	for root, ll := range logLik {
		t := float64(obsCount[root])
		for i := range ll {
			if math.IsNaN(ll[i]) || math.IsInf(ll[i], -1) {
				continue
			}
			for j := range ll {
				if j == i || math.IsNaN(ll[j]) || math.IsInf(ll[j], -1) {
					continue
				}
				d := h.dist[i][j]
				if d <= 0 {
					continue
				}
				if r := (ll[i] - ll[j]) / (eps * t * d); r > worst {
					worst = r
				}
			}
		}
	}
	return worst
}

// runTrajectory replays the corpus through the device's Algorithm 4 over
// one forest (user uid draws with seed+uid) and attacks the transcript.
func runTrajectory(name string, eps float64, seed int64, tree *loctree.Tree, forest *core.Forest,
	corpus [][]loctree.NodeID, lambda float64) (TrajPoint, error) {
	h, err := newHMM(tree, forest, lambda)
	if err != nil {
		return TrajPoint{}, err
	}
	dev := device.InHand(tree, eps, nil, forest)
	pt := TrajPoint{Mechanism: name, Epsilon: eps}
	var trajSum, indepSum, chargedSum, worstRatio float64
	for uid, path := range corpus {
		steps := make([]trajStep, 0, len(path))
		charged := 0.0
		for _, leaf := range path {
			res, err := dev.Report(context.Background(), registry.ReportRequest{
				Cell:   leaf.Coord,
				UID:    int64(uid),
				Policy: policy.Policy{PrivacyLevel: trajPrivacyLevel},
				Seed:   seed + int64(uid),
				Count:  1,
			})
			if err != nil {
				return TrajPoint{}, fmt.Errorf("eval: replaying %s uid=%d: %w", name, uid, err)
			}
			if res.Reanchored {
				pt.Reanchors++
			}
			charged += eps
			steps = append(steps, trajStep{truth: leaf, observed: res.Reports[0]})
		}
		ts, is, n, logLik, obsCount, err := h.replayUser(steps)
		if err != nil {
			return TrajPoint{}, err
		}
		trajSum += ts
		indepSum += is
		pt.Steps += n
		chargedSum += charged
		if r := h.compositionRatio(eps, logLik, obsCount); r > worstRatio {
			worstRatio = r
		}
	}
	pt.Users = len(corpus)
	if pt.Steps > 0 {
		pt.TrajErrorKm = trajSum / float64(pt.Steps)
		pt.IndepErrorKm = indepSum / float64(pt.Steps)
	}
	if pt.TrajErrorKm > 0 {
		pt.CorrelationGain = pt.IndepErrorKm / pt.TrajErrorKm
	}
	if pt.Users > 0 {
		pt.LinearEpsBudget = chargedSum / float64(pt.Users)
	}
	pt.CompositionRatio = worstRatio
	pt.CompositionHolds = worstRatio <= 1+1e-6
	return pt, nil
}

// sweepTrajectories runs the trajectory adversary against the forest
// mechanism and planar Laplace at each swept epsilon, both through the
// device's Algorithm 4.
func sweepTrajectories(seed int64, quick bool, epsilons []float64) ([]TrajPoint, error) {
	users, steps := 12, 16
	if quick {
		users, steps = 6, 8
		epsilons = epsilons[len(epsilons)-1:]
	}
	var out []TrajPoint
	for _, eps := range epsilons {
		tree, optimal, planar, err := trajForests(context.Background(), eps, seed)
		if err != nil {
			return nil, err
		}
		corpus, lambda, err := mobilityCorpus(tree, seed, users, steps)
		if err != nil {
			return nil, err
		}
		for _, m := range []struct {
			name   string
			forest *core.Forest
		}{{"forest-optimal", optimal}, {mechanism.PlanarLaplaceName, planar}} {
			pt, err := runTrajectory(m.name, eps, seed, tree, m.forest, corpus, lambda)
			if err != nil {
				return nil, err
			}
			out = append(out, pt)
		}
	}
	return out, nil
}
