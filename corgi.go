// Package corgi is the public API of this CORGI implementation —
// "CustOmizable Robust Geo-Indistinguishability" (Pappachan, Qiu,
// Squicciarini, Hunsur Manjunath; EDBT 2023). It generates location
// obfuscation matrices that satisfy epsilon-Geo-Indistinguishability and
// remain private after user-side customization: pruning up to delta
// locations from the obfuscation range and reducing reporting precision
// along a hierarchical location tree.
//
// Typical flow (mirroring Fig. 1 of the paper; examples/quickstart runs it):
//
//	region, _ := corgi.NewRegion(corgi.SanFrancisco.Center(), 0.1, 2)
//	priors := corgi.UniformPriors(region.Tree)
//	targets, _ := corgi.RandomLeafTargets(region.Tree, 10, 42)
//	server, _ := corgi.NewServer(region, priors, targets, corgi.Params{
//		Epsilon: 15, Iterations: 3,
//	})
//	forest, _ := server.GenerateForest(1 /* privacy level */, 2 /* delta */)
//	leaf, _ := region.Tree.Locate(real, 0)
//	root, _ := region.Tree.AncestorAt(leaf, 1)
//	entry := forest.Entries[root]
//	pruned, _ := corgi.EvalPreferences(entry.Leaves, pol, attrs)
//	sess, _ := corgi.NewReportSession(corgi.ReportSessionConfig{
//		Tree: region.Tree, Entry: entry, Delta: forest.Delta,
//		Policy: pol, Pruned: pruned, Priors: priors, Seed: 7,
//	})
//	reported, _ := sess.Draw(real) // what the location-based service sees
//
// The heavy lifting lives in internal packages: internal/lp (a from-scratch
// sparse revised simplex), internal/core (the LP formulation, the
// Dantzig-Wolfe decomposition and Algorithms 1/3/4), internal/hexgrid (an
// aperture-7 hexagonal index substituting Uber H3), internal/obf (pruning,
// precision reduction, audits), internal/gowalla (the dataset substrate),
// and internal/planar + internal/attack (baselines and adversaries).
//
// Forest generation is served by a concurrent engine (see ARCHITECTURE.md):
// independent subtree LP solves fan out across a bounded worker pool,
// concurrent requests for the same (node, delta) share one solve, and
// finished matrices live in a byte-bounded LRU cache. NewServer uses the
// engine defaults, and Server.Stats exposes the engine counters. A
// multi-region deployment (named regions, stores, budgets, transports) is
// assembled by internal/node; cmd/corgi-server is flags over it.
package corgi

import (
	"fmt"

	"corgi/internal/core"
	"corgi/internal/geo"
	"corgi/internal/gowalla"
	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
	"corgi/internal/mechanism"
	"corgi/internal/policy"
	"corgi/internal/session"
)

// Re-exported fundamental types. Aliases keep the public API a strict view
// of the internal implementation.
type (
	// LatLng is a geographic point in degrees.
	LatLng = geo.LatLng
	// Tree is the hierarchical location tree of Sec. 3.1.
	Tree = loctree.Tree
	// NodeID identifies a tree node (level + hex cell).
	NodeID = loctree.NodeID
	// Priors is a prior distribution over tree leaves with per-level
	// aggregation.
	Priors = loctree.Priors
	// Policy is the customization triple <Privacy_l, Precision_l,
	// User_Preferences> of Sec. 3.2.
	Policy = policy.Policy
	// Predicate is one Boolean preference <var, op, val>.
	Predicate = policy.Predicate
	// Attributes carries a location's metadata for predicate evaluation.
	Attributes = policy.Attributes
	// Params tunes matrix generation (epsilon, delta, Algorithm-1 rounds).
	Params = core.Params
	// Server is the CORGI server (Algorithm 3).
	Server = core.Server
	// Forest is a privacy forest: one robust matrix per privacy-level node.
	Forest = core.Forest
	// CheckIn is one Gowalla-format check-in record.
	CheckIn = gowalla.CheckIn
	// Metadata holds the per-user/per-cell policy heuristics of Sec. 6.1.
	Metadata = gowalla.Metadata
	// ReportSession is a bound per-user report stream: one forest entry,
	// one evaluated policy, one seeded RNG, O(1) alias-table draws. It is
	// mobility-aware: ReportSession.Rebind re-anchors it onto the forest
	// entry covering a moved user's new location without resetting the RNG
	// stream.
	ReportSession = session.Session
	// ReportSessionConfig configures NewReportSession.
	ReportSessionConfig = session.Config
)

// SanFrancisco is the paper's evaluation region.
var SanFrancisco = geo.SanFrancisco

// Haversine returns the great-circle distance between two points in km.
func Haversine(a, b LatLng) float64 { return geo.Haversine(a, b) }

// ParsePredicate parses "var op value" (e.g. "home != true",
// "distance <= 5").
func ParsePredicate(s string) (Predicate, error) { return policy.ParsePredicate(s) }

// Region bundles a hexagonal system and its location tree.
type Region struct {
	System *hexgrid.System
	Tree   *loctree.Tree
}

// NewRegion builds a height-`height` location tree of hexagonal cells with
// the given leaf center spacing (km), rooted at the cell containing center.
// A height-2 tree has 49 leaves; height 3 has 343 (the paper's setup).
func NewRegion(center LatLng, leafSpacingKm float64, height int) (*Region, error) {
	sys, err := hexgrid.NewSystem(center, leafSpacingKm)
	if err != nil {
		return nil, err
	}
	tree, err := loctree.NewAt(sys, center, height)
	if err != nil {
		return nil, err
	}
	return &Region{System: sys, Tree: tree}, nil
}

// UniformPriors returns the uniform leaf distribution for a tree.
func UniformPriors(t *Tree) *Priors { return loctree.UniformPriors(t) }

// PriorsFromCheckIns counts check-ins per leaf (add-one smoothed), the
// paper's prior construction (Sec. 6.1).
func PriorsFromCheckIns(cs []CheckIn, t *Tree) (*Priors, error) {
	return loctree.NewPriors(t, gowalla.LeafPriors(cs, t))
}

// GenerateCheckIns produces the synthetic Gowalla-style San Francisco
// sample (38,523 check-ins by default; see internal/gowalla for the
// generator's fidelity notes).
func GenerateCheckIns(seed int64) ([]CheckIn, error) {
	ds, err := gowalla.Generate(gowalla.GenConfig{Seed: seed})
	if err != nil {
		return nil, err
	}
	return ds.CheckIns, nil
}

// BuildMetadata derives home/office/outlier/popular heuristics from
// check-ins for policy construction.
func BuildMetadata(cs []CheckIn, t *Tree) *Metadata {
	return gowalla.BuildMetadata(cs, t)
}

// NewServer constructs the CORGI server over a region with default engine
// options. targets are the service locations Q of Equ. (6); params.Delta is
// ignored (chosen per request).
func NewServer(r *Region, priors *Priors, targets []LatLng, params Params) (*Server, error) {
	if r == nil {
		return nil, fmt.Errorf("corgi: nil region")
	}
	probs := make([]float64, len(targets))
	for i := range probs {
		probs[i] = 1
	}
	return core.NewServerWithOptions(r.Tree, priors, targets, probs, params, core.EngineOptions{})
}

// EvalPreferences returns the leaves that fail the policy's preferences —
// the prune set S (step 2 of Fig. 8) a ReportSessionConfig carries. attrs
// must cover every leaf.
func EvalPreferences(leaves []NodeID, pol Policy, attrs map[NodeID]Attributes) ([]NodeID, error) {
	return mechanism.EvalPreferences(leaves, pol, attrs)
}

// NewReportSession binds a per-user report session: the evaluated prune
// set's size |S| is verified against the forest entry's reserved prune
// budget, and every draw is O(1) via cached Walker alias tables —
// the row-wise hot path the serving stack's POST /v1/report uses. Draw
// sequences are deterministic per Config.Seed.
func NewReportSession(cfg ReportSessionConfig) (*ReportSession, error) {
	return session.New(cfg)
}

// RandomLeafTargets picks n distinct leaf centers as service targets, the
// paper's NR_TARGET protocol.
func RandomLeafTargets(t *Tree, n int, seed int64) ([]LatLng, error) {
	leaves := t.LevelNodes(0)
	cells := make([]hexgrid.Coord, len(leaves))
	for i, l := range leaves {
		cells[i] = l.Coord
	}
	targets, _, err := core.RandomCellTargets(t.System(), cells, n, seed)
	return targets, err
}
