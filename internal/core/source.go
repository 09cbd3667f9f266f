package core

import (
	"fmt"

	"corgi/internal/loctree"
	"corgi/internal/mechanism"
	"corgi/internal/obf"
	"corgi/internal/sample"
)

// ForestEntry satisfies mechanism.Source directly: sessions, leases, and
// the user-side Algorithm 4 path all bind forest entries through the one
// mechanism.Binding implementation, sharing this entry's engine-accounted
// alias cache on the unpruned fast path.
var _ mechanism.Source = (*ForestEntry)(nil)

// SubtreeRoot implements mechanism.Source.
func (e *ForestEntry) SubtreeRoot() loctree.NodeID { return e.Root }

// SupportLeaves implements mechanism.Source.
func (e *ForestEntry) SupportLeaves() []loctree.NodeID { return e.Leaves }

// LeafIndex implements mechanism.Source: one position table per entry,
// with the entry's unpruned bindings beside it, built on first bind and
// dropped with the entry.
func (e *ForestEntry) LeafIndex() *mechanism.LeafIndex { return e.index.Over(e.Root, e.Leaves) }

// Dim implements mechanism.Source; 0 (the invalid-source signal) covers
// nil entries and entries without a matrix.
func (e *ForestEntry) Dim() int {
	if e == nil || e.Matrix == nil {
		return 0
	}
	return e.Matrix.Dim()
}

// MatrixRow implements mechanism.Source.
func (e *ForestEntry) MatrixRow(i int) []float64 { return e.Matrix.Row(i) }

// SharedAliasRow implements mechanism.Source via the entry's lazy,
// byte-accounted per-row alias cache.
func (e *ForestEntry) SharedAliasRow(i int) (*sample.Alias, error) { return e.AliasRow(i) }

// IsDegraded implements mechanism.Source.
func (e *ForestEntry) IsDegraded() bool { return e.Degraded }

// Mechanisms are the ways a matrix can be built, in name order: the
// LP-optimal forest with and without Algorithm 1's robustness rounds (the
// pipeline Server.generate runs, over an explicit cell set) and analytic
// planar Laplace. internal/eval sweeps them and the fuzzed row contract
// binds every one.
var Mechanisms = []mechanism.Factory{
	{Name: "forest-nonrobust", Robust: false, Build: func(cfg mechanism.BuildConfig) (*obf.Matrix, error) {
		return buildForestMatrix(cfg, 0)
	}},
	{Name: "forest-optimal", Robust: true, Build: func(cfg mechanism.BuildConfig) (*obf.Matrix, error) {
		return buildForestMatrix(cfg, cfg.Delta)
	}},
	// δ-prunable for every δ: the analytic bound holds row-wise.
	{Name: mechanism.PlanarLaplaceName, Robust: true, Build: mechanism.PlanarLaplace},
}

func buildForestMatrix(cfg mechanism.BuildConfig, delta int) (*obf.Matrix, error) {
	if cfg.Sys == nil {
		return nil, fmt.Errorf("core: forest build needs a hexgrid system")
	}
	inst, err := NewInstance(cfg.Sys, cfg.Cells, cfg.Priors, cfg.Targets, cfg.TargetProbs, 0)
	if err != nil {
		return nil, err
	}
	res, err := inst.Generate(Params{Epsilon: cfg.Epsilon, Delta: delta, Iterations: cfg.Iterations})
	if err != nil {
		return nil, fmt.Errorf("core: forest build: %w", err)
	}
	return res.Matrix, nil
}
