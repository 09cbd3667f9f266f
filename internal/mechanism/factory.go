package mechanism

import (
	"fmt"

	"corgi/internal/geo"
	"corgi/internal/hexgrid"
	"corgi/internal/obf"
	"corgi/internal/planar"
)

// BuildConfig parameterizes a mechanism build over one finite cell set.
type BuildConfig struct {
	// Sys anchors the cells geographically (distances in km).
	Sys *hexgrid.System
	// Cells are the leaf cells (level 0) the matrix covers, in row order.
	Cells []hexgrid.Coord
	// Priors are the per-cell priors, index-aligned with Cells.
	Priors []float64
	// Targets / TargetProbs are the service locations the LP's quality
	// objective weighs (the paper's NR_TARGET protocol); builders that
	// need none ignore them.
	Targets     []geo.LatLng
	TargetProbs []float64
	// Epsilon is the Geo-Ind budget (km^-1).
	Epsilon float64
	// Delta is the robustness prune budget (Algorithm 1); 0 builds a
	// non-robust matrix. Builders without a robustness notion ignore it.
	Delta int
	// Iterations bounds Algorithm-1 robustness rounds; a robust build
	// needs at least one.
	Iterations int
}

// Factory is one way of building an obfuscation matrix, named as the
// frontier artifact names it. internal/core lists the three there are
// (core.Mechanisms): it owns the LP solver the forest builders run, and
// the dependency points that way — core imports mechanism, never the
// reverse.
type Factory struct {
	// Name identifies the mechanism in frontier artifacts ("forest-optimal",
	// "planar-laplace", ...). Unique.
	Name string
	// Robust marks builders whose matrices are δ-prunable by
	// construction for the configured Delta (Algorithm 1), as opposed to
	// baselines that merely happen to survive pruning.
	Robust bool
	// Build constructs the row-stochastic matrix over cfg.Cells.
	Build func(cfg BuildConfig) (*obf.Matrix, error)
}

// PlanarLaplaceName is the analytic discretized planar-Laplace builder's
// name — the mechanism degraded serving answers from.
const PlanarLaplaceName = "planar-laplace"

// PlanarLaplace builds the analytic discretized planar-Laplace matrix
// over cfg.Cells (planar.DiscretizedRows over the cell centers): no LP,
// δ-prunable for every δ, since the bound holds row-wise.
func PlanarLaplace(cfg BuildConfig) (*obf.Matrix, error) {
	if cfg.Sys == nil {
		return nil, fmt.Errorf("mechanism: build needs a hexgrid system")
	}
	centers := make([]geo.LatLng, len(cfg.Cells))
	for i, c := range cfg.Cells {
		centers[i] = cfg.Sys.Center(0, c)
	}
	rows, err := planar.DiscretizedRows(len(centers), func(i, j int) float64 {
		return geo.Haversine(centers[i], centers[j])
	}, cfg.Epsilon)
	if err != nil {
		return nil, err
	}
	m := obf.NewMatrix(len(rows))
	for i, row := range rows {
		copy(m.Row(i), row)
	}
	return m, nil
}
