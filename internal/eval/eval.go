// Package eval is the one evaluation package: every figure of the paper's
// evaluation (Sec. 6, Figs. 9-14, the abstract's headline), the extension
// studies (the ext-* runners) and the two-adversary utility-vs-privacy
// frontier (frontier.go, traj.go). Each is a named Runner in one Registry,
// producing printable tables and, for the frontier, a JSON artifact; cmd/
// corgi-experiments loops over the registry, and the root bench_test.go
// wraps the figure runners as testing.B benchmarks.
//
// Scale notes: the harness defaults to "quick" settings sized for a single
// core (fewer Algorithm-1 rounds, fewer Monte-Carlo repeats); Full restores
// paper-scale sweeps. Leaf cells are 0.1 km apart so that the paper's
// epsilon axis (15-20 km^-1) lands in the regime where Geo-Ind constraints
// bind (eps*d in [1.5, 3.5]).
package eval

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"corgi/internal/core"
	"corgi/internal/geo"
	"corgi/internal/gowalla"
	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
	"corgi/internal/obf"
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

// Output is what one runner produces: its printable tables and, for a
// runner that defines one, the value corgi-experiments -out writes as JSON
// (the tables are rendered from it).
type Output struct {
	Tables   []*Table
	Artifact any
}

// Runner produces an experiment's output.
type Runner func(cfg *Config) (*Output, error)

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
	{"frontier", "Utility-vs-privacy frontier: every mechanism under the remapping and trajectory adversaries", RunFrontier},
}

func find(id string) (registryEntry, bool) {
	for _, e := range Registry {
		if e.ID == id {
			return e, true
		}
	}
	return registryEntry{}, false
}

// Lookup finds a runner by id.
func Lookup(id string) (Runner, bool) { e, ok := find(id); return e.Run, ok }

// Describe returns the description for an id, empty when unknown.
func Describe(id string) string { e, _ := find(id); return e.Desc }

// IDs returns all experiment ids in order.
func IDs() []string {
	out := make([]string, len(Registry))
	for i, e := range Registry {
		out[i] = e.ID
	}
	return out
}

// world is the shared evaluation setup: the SF region, a location tree,
// synthetic Gowalla priors, and the NR_TARGET target locations every
// instance cut from it optimizes against.
type world struct {
	tree    *loctree.Tree
	priors  *loctree.Priors
	targets []geo.LatLng
	tprobs  []float64
}

const (
	leafSpacingKm = 0.1
	epsDefault    = 15.0
)

// newWorld builds the setup every runner shares. seed drives the check-in
// corpus, the train split and (as seed + 1000) the target draw; height is
// the tree's (3 = 343 leaves, as in the paper); the nTargets targets are
// drawn from the leaves of the first `clusters` level-1 clusters. With
// holdout the priors come from the 90% train side of the paper's 90/10
// split (Sec. 6.2.3), otherwise from every check-in.
func newWorld(seed int64, height, clusters, nTargets int, holdout bool) (*world, error) {
	sys, err := hexgrid.NewSystem(geo.SanFrancisco.Center(), leafSpacingKm)
	if err != nil {
		return nil, err
	}
	tree, err := loctree.NewAt(sys, geo.SanFrancisco.Center(), height)
	if err != nil {
		return nil, err
	}
	ds, err := gowalla.Generate(gowalla.GenConfig{Seed: seed})
	if err != nil {
		return nil, err
	}
	checkIns := ds.CheckIns
	if holdout {
		if checkIns, _, err = gowalla.SplitTrainTest(checkIns, 0.9, seed); err != nil {
			return nil, err
		}
	}
	// Check-ins land across the whole SF box; the tree covers only its
	// center. That matches the paper's approach of indexing an area of
	// interest; priors are smoothed so every leaf is usable.
	priors, err := loctree.NewPriors(tree, gowalla.LeafPriors(checkIns, tree))
	if err != nil {
		return nil, err
	}
	w := &world{tree: tree, priors: priors}

	// Shared NR_TARGET service locations so every instance and mechanism
	// optimizes the same quality objective. A draw of the whole pool is the
	// pool itself, in tree order.
	pool, err := tree.ClusterLeaves(clusters)
	if err != nil {
		return nil, err
	}
	picked := pool
	if nTargets < len(pool) {
		picked = nil
		for _, idx := range sample(rand.New(rand.NewSource(seed+1000)), len(pool), nTargets) {
			picked = append(picked, pool[idx])
		}
	}
	for _, l := range picked {
		w.targets = append(w.targets, tree.Center(l))
		w.tprobs = append(w.tprobs, 1)
	}
	return w, nil
}

// figureWorld is the world of the paper's figures: the height-3 tree, with
// all NR_TARGET = 49 leaves of the K=49 cluster as targets so every
// instance size shares the same service locations.
func figureWorld(seed int64) (*world, error) { return newWorld(seed, 3, 7, 49, true) }

// figureInstance is the K = 7m instance of figureWorld(seed), for the
// runners that study a single instance.
func figureInstance(seed int64, m int) (*core.Instance, error) {
	w, err := figureWorld(seed)
	if err != nil {
		return nil, err
	}
	inst, _, err := w.instance(m)
	return inst, err
}

// cluster returns the leaves of the first m level-1 clusters (K = 7m
// cells), their coordinates, and the priors renormalized over them.
func (w *world) cluster(m int) ([]loctree.NodeID, []hexgrid.Coord, []float64, error) {
	leaves, err := w.tree.ClusterLeaves(m)
	if err != nil {
		return nil, nil, nil, err
	}
	cells := make([]hexgrid.Coord, len(leaves))
	for i, l := range leaves {
		cells[i] = l.Coord
	}
	pr, err := w.priors.Subset(w.tree, leaves, true)
	if err != nil {
		return nil, nil, nil, err
	}
	return leaves, cells, pr, nil
}

// instance builds a core.Instance over cluster(m).
func (w *world) instance(m int) (*core.Instance, []loctree.NodeID, error) {
	leaves, cells, pr, err := w.cluster(m)
	if err != nil {
		return nil, nil, err
	}
	inst, err := core.NewInstance(w.tree.System(), cells, pr, w.targets, w.tprobs, 0)
	return inst, leaves, err
}

// sample draws n distinct indices out of k: the one sampler behind every
// random prune set and the target draw.
func sample(rng *rand.Rand, k, n int) []int { return rng.Perm(k)[:n] }

// pruneTrial prunes the locations in s from a matrix and reports the
// violation rate over the surviving constraint pairs.
func pruneTrial(m *obf.Matrix, pairs []obf.Pair, eps float64, s []int) (float64, bool) {
	rep, err := m.CheckGeoIndPruned(s, pairs, eps, 1e-6)
	if err != nil {
		return 0, false // a row lost all mass: skip trial
	}
	return rep.Percent(), true
}

func f(v float64) string  { return fmt.Sprintf("%.4f", v) }
func f6(v float64) string { return fmt.Sprintf("%.6f", v) }
func d(v int) string      { return fmt.Sprintf("%d", v) }
func ms(t time.Duration) string {
	return fmt.Sprintf("%.1f", float64(t.Microseconds())/1000.0)
}
