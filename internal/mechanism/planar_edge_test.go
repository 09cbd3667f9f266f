package mechanism_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"corgi/internal/geo"
	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
	"corgi/internal/mechanism"
	"corgi/internal/obf"
	"corgi/internal/planar"
	"corgi/internal/policy"
)

// edgeWorld is a 3-leaf slice of a level-1 subtree: small enough that a
// delta-2 prune leaves exactly one surviving cell.
func edgeWorld(t *testing.T) (*loctree.Tree, loctree.NodeID, []loctree.NodeID, func(i, j int) float64) {
	t.Helper()
	sys, err := hexgrid.NewSystem(geo.SanFrancisco.Center(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := loctree.NewAt(sys, geo.SanFrancisco.Center(), 1)
	if err != nil {
		t.Fatal(err)
	}
	root := tree.LevelNodes(1)[0]
	leaves := tree.LevelNodes(0)[:3]
	centers := make([]geo.LatLng, len(leaves))
	for i, l := range leaves {
		centers[i] = tree.Center(l)
	}
	dist := func(i, j int) float64 { return geo.Haversine(centers[i], centers[j]) }
	return tree, root, leaves, dist
}

// TestPlanarPruneToSingleCell drives planar.DiscretizedRows through the
// Mechanism interface with a prune set that leaves exactly one surviving
// cell: the binding must keep serving — a single report node whose
// normalized row is [1] and whose draws always land there — rather than
// degenerate. This is the planar fallback's "delta-prunable for every
// delta" claim at its boundary.
func TestPlanarPruneToSingleCell(t *testing.T) {
	tree, root, leaves, dist := edgeWorld(t)
	rows, err := planar.DiscretizedRows(len(leaves), dist, 15)
	if err != nil {
		t.Fatal(err)
	}
	m := obf.NewMatrix(len(rows))
	for i, row := range rows {
		copy(m.Row(i), row)
	}
	src, err := mechanism.NewStaticSource(root, leaves, m, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mechanism.Bind(mechanism.Config{
		Tree:    tree,
		Source:  src,
		Delta:   2,
		Policy:  policy.Policy{PrivacyLevel: 1},
		Pruned:  []loctree.NodeID{leaves[0], leaves[2]},
		Epsilon: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	nodes := b.Nodes()
	if len(nodes) != 1 || nodes[0] != leaves[1] {
		t.Fatalf("nodes = %v, want exactly [%v]", nodes, leaves[1])
	}
	if len(b.Pruned()) != 2 || !b.Source().IsDegraded() {
		t.Fatalf("pruned %v, degraded %v: want 2 pruned, degraded", b.Pruned(), b.Source().IsDegraded())
	}
	row, err := b.RowFor(leaves[1])
	if err != nil {
		t.Fatal(err)
	}
	detached, _, err := b.DetachRows(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w := detached[row]; len(w) != 1 || !(w[0] > 0) {
		t.Fatalf("detached row = %v, want one positive weight (the whole distribution once normalised)", w)
	}
	a, err := b.Alias(row)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 32; i++ {
		if got := a.Draw(rng); got != 0 {
			t.Fatalf("draw %d landed on index %d of a single-cell support", i, got)
		}
	}
	// The pruned cells themselves have no row to draw from at leaf
	// precision (Algorithm 4's loud failure), and an uncovered cell is the
	// retryable sentinel.
	if _, err := b.RowFor(leaves[0]); err == nil {
		t.Fatal("RowFor(pruned leaf) succeeded, want error")
	}
	outside := tree.LevelNodes(0)[3]
	if _, err := b.RowFor(outside); !errors.Is(err, mechanism.ErrOutsideSubtree) {
		t.Fatalf("RowFor(outside) = %v, want ErrOutsideSubtree", err)
	}
}

// TestZeroMassRowPropagatesUnsampleable pins the failure contract: a row
// whose mass the prune set removes entirely must surface as
// ErrUnsampleable from the live alias build, so the serving layers'
// errors.Is classification (5xx, not 4xx) keeps working, and as the nil
// row that marks it unsampleable in a detached lease.
func TestZeroMassRowPropagatesUnsampleable(t *testing.T) {
	tree, root, leaves, _ := edgeWorld(t)
	// Row 0 reports cell 1 with certainty; pruning cell 1 strands it with
	// zero retained mass. Rows 1 and 2 stay healthy.
	m := obf.NewMatrix(3)
	copy(m.Row(0), []float64{0, 1, 0})
	copy(m.Row(1), []float64{0.2, 0.2, 0.6})
	copy(m.Row(2), []float64{0.3, 0.2, 0.5})
	src, err := mechanism.NewStaticSource(root, leaves, m, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mechanism.Bind(mechanism.Config{
		Tree:   tree,
		Source: src,
		Delta:  1,
		Policy: policy.Policy{PrivacyLevel: 1},
		Pruned: []loctree.NodeID{leaves[1]},
	})
	if err != nil {
		t.Fatal(err)
	}
	row, err := b.RowFor(leaves[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Alias(row); !errors.Is(err, mechanism.ErrUnsampleable) {
		t.Fatalf("Alias(zero-mass row) = %v, want ErrUnsampleable", err)
	}
	if rows, _, err := b.DetachRows(nil, nil); err != nil || rows[row] != nil {
		t.Fatalf("DetachRows: zero-mass row %v (%v), want nil, the bundle's unsampleable marker", rows[row], err)
	}
	// The healthy rows keep serving from the same binding.
	healthy, err := b.RowFor(leaves[2])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Alias(healthy); err != nil {
		t.Fatalf("Alias(healthy row) = %v", err)
	}
}

// TestOutsideSubtreeErrorText pins the typed subtree miss: the text reads
// as it did when every miss was formatted eagerly, errors.Is finds the
// sentinel the retry and renew loops test for, and errors.As recovers the
// cell and the subtree.
func TestOutsideSubtreeErrorText(t *testing.T) {
	tree, root, leaves, _ := edgeWorld(t)
	m := obf.NewMatrix(3)
	for i := 0; i < 3; i++ {
		copy(m.Row(i), []float64{0.2, 0.3, 0.5})
	}
	src, err := mechanism.NewStaticSource(root, leaves, m, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mechanism.Bind(mechanism.Config{Tree: tree, Source: src, Policy: policy.Policy{PrivacyLevel: 1}})
	if err != nil {
		t.Fatal(err)
	}
	outside := tree.LevelNodes(0)[3]
	_, err = b.RowFor(outside)
	if !errors.Is(err, mechanism.ErrOutsideSubtree) {
		t.Fatalf("RowFor(outside) = %v, want ErrOutsideSubtree", err)
	}
	var miss *mechanism.OutsideSubtreeError
	if !errors.As(err, &miss) || miss.Leaf != outside || miss.Root != root {
		t.Fatalf("RowFor(outside) = %#v, want an OutsideSubtreeError for cell %v under %v", err, outside, root)
	}
	want := fmt.Sprintf("mechanism: cell outside the bound subtree: cell %v, subtree %v", outside, root)
	if err.Error() != want {
		t.Fatalf("message %q, want %q", err.Error(), want)
	}
	if wrapped := fmt.Errorf("lease: %w", err); !errors.Is(wrapped, mechanism.ErrOutsideSubtree) {
		t.Fatal("a wrapped miss no longer matches ErrOutsideSubtree")
	}
}
