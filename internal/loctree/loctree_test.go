package loctree

import (
	"math"
	"testing"
	"testing/quick"

	"corgi/internal/geo"
	"corgi/internal/hexgrid"
)

func newTestTree(t *testing.T, height int) *Tree {
	t.Helper()
	sys, err := hexgrid.NewSystem(geo.SanFrancisco.Center(), 0.5)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	tree, err := NewAt(sys, geo.SanFrancisco.Center(), height)
	if err != nil {
		t.Fatalf("NewAt: %v", err)
	}
	return tree
}

func TestNewValidation(t *testing.T) {
	sys, _ := hexgrid.NewSystem(geo.SanFrancisco.Center(), 0.5)
	if _, err := New(sys, hexgrid.Coord{}, 0); err == nil {
		t.Error("height 0 should fail")
	}
	if _, err := New(nil, hexgrid.Coord{}, 2); err == nil {
		t.Error("nil system should fail")
	}
	if _, err := NewAt(nil, geo.SanFrancisco.Center(), 2); err == nil {
		t.Error("nil system should fail")
	}
}

func TestTreeShape(t *testing.T) {
	for height := 1; height <= 3; height++ {
		tree := newTestTree(t, height)
		if tree.Height() != height {
			t.Errorf("Height = %d, want %d", tree.Height(), height)
		}
		want := 1
		for h := height; h >= 0; h-- {
			nodes := tree.LevelNodes(h)
			if len(nodes) != want {
				t.Errorf("height %d: level %d has %d nodes, want %d", height, h, len(nodes), want)
			}
			want *= 7
		}
		if tree.NumLeaves() != intPow(7, height) {
			t.Errorf("NumLeaves = %d, want %d", tree.NumLeaves(), intPow(7, height))
		}
	}
}

func intPow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= b
	}
	return out
}

func TestLevelNodesOutOfRange(t *testing.T) {
	tree := newTestTree(t, 2)
	if tree.LevelNodes(-1) != nil || tree.LevelNodes(3) != nil {
		t.Error("out-of-range levels must return nil")
	}
}

// children are the 7 nodes one level below n, as the hexgrid hierarchy
// places them.
func children(n NodeID) []NodeID {
	var out []NodeID
	for _, c := range hexgrid.Children(n.Coord) {
		out = append(out, NodeID{Level: n.Level - 1, Coord: c})
	}
	return out
}

// level is p's distribution over level-h nodes, aligned with LevelNodes(h).
func level(t *testing.T, tree *Tree, p *Priors, h int) []float64 {
	t.Helper()
	v, err := p.Subset(tree, tree.LevelNodes(h), false)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestParentChildConsistency(t *testing.T) {
	tree := newTestTree(t, 3)
	for h := 3; h > 0; h-- {
		for _, n := range tree.LevelNodes(h) {
			for _, c := range children(n) {
				p, ok := tree.AncestorAt(c, n.Level)
				if !ok || p != n {
					t.Fatalf("parent of %v = %v,%v, want %v", c, p, ok, n)
				}
				if !tree.Contains(c) {
					t.Fatalf("child %v not in tree", c)
				}
			}
		}
	}
	if _, ok := tree.AncestorAt(tree.Root(), tree.Height()+1); ok {
		t.Error("root must have no parent")
	}
}

func TestChildrenPartitionLevel(t *testing.T) {
	// Children of all level-h nodes must be exactly the level-(h-1) nodes.
	tree := newTestTree(t, 3)
	for h := 3; h > 0; h-- {
		seen := map[NodeID]bool{}
		for _, n := range tree.LevelNodes(h) {
			for _, c := range children(n) {
				if seen[c] {
					t.Fatalf("node %v has two parents", c)
				}
				seen[c] = true
			}
		}
		if len(seen) != len(tree.LevelNodes(h-1)) {
			t.Fatalf("level %d children cover %d of %d nodes", h, len(seen), len(tree.LevelNodes(h-1)))
		}
	}
}

func TestLeavesUnder(t *testing.T) {
	tree := newTestTree(t, 3)
	root := tree.Root()
	leaves := tree.LeavesUnder(root)
	if len(leaves) != 343 {
		t.Fatalf("root has %d leaves, want 343", len(leaves))
	}
	// LeavesUnder(root) must match LevelNodes(0) exactly (same order).
	level0 := tree.LevelNodes(0)
	for i := range leaves {
		if leaves[i] != level0[i] {
			t.Fatalf("leaf order mismatch at %d: %v vs %v", i, leaves[i], level0[i])
		}
	}
	// Union of leaves under level-2 nodes partitions all leaves.
	seen := map[NodeID]bool{}
	for _, n := range tree.LevelNodes(2) {
		sub := tree.LeavesUnder(n)
		if len(sub) != 49 {
			t.Fatalf("level-2 node has %d leaves, want 49", len(sub))
		}
		for _, l := range sub {
			if seen[l] {
				t.Fatalf("leaf %v under two level-2 nodes", l)
			}
			seen[l] = true
		}
	}
	if len(seen) != 343 {
		t.Fatalf("level-2 subtrees cover %d leaves", len(seen))
	}
	// A leaf's LeavesUnder is itself.
	l := level0[5]
	if got := tree.LeavesUnder(l); len(got) != 1 || got[0] != l {
		t.Errorf("LeavesUnder(leaf) = %v", got)
	}
}

func TestAncestorAt(t *testing.T) {
	tree := newTestTree(t, 3)
	for _, leaf := range tree.LeavesUnder(tree.Root())[:20] {
		cur := leaf
		for lv := 0; lv <= 3; lv++ {
			anc, ok := tree.AncestorAt(leaf, lv)
			if !ok {
				t.Fatalf("AncestorAt(%v, %d) failed", leaf, lv)
			}
			if anc != cur {
				t.Fatalf("AncestorAt(%v, %d) = %v, want %v", leaf, lv, anc, cur)
			}
			if lv < 3 {
				cur = NodeID{Level: lv + 1, Coord: hexgrid.Parent(cur.Coord)}
			}
		}
	}
	if _, ok := tree.AncestorAt(tree.Root(), 0); ok {
		t.Error("ancestor below node must fail")
	}
	if _, ok := tree.AncestorAt(tree.Root(), 4); ok {
		t.Error("ancestor above root must fail")
	}
}

func TestLocate(t *testing.T) {
	tree := newTestTree(t, 2)
	for _, leaf := range tree.LevelNodes(0) {
		p := tree.Center(leaf)
		got, ok := tree.Locate(p, 0)
		if !ok || got != leaf {
			t.Fatalf("Locate(center of %v) = %v,%v", leaf, got, ok)
		}
		anc, _ := tree.AncestorAt(leaf, 1)
		got1, ok := tree.Locate(p, 1)
		if !ok {
			t.Fatalf("Locate level 1 failed for %v", leaf)
		}
		// The level-1 cell containing a leaf center is usually the parent,
		// but aperture-7 children are not strictly contained; accept the
		// geometric answer and only require tree membership.
		if !tree.Contains(got1) {
			t.Fatalf("Locate returned foreign node %v", got1)
		}
		_ = anc
	}
	// A point far outside the region must not locate.
	if _, ok := tree.Locate(geo.LatLng{Lat: 0, Lng: 0}, 0); ok {
		t.Error("far point must not locate in tree")
	}
	if _, ok := tree.Locate(geo.SanFrancisco.Center(), -1); ok {
		t.Error("negative level must fail")
	}
}

func TestDistanceSymmetricPositive(t *testing.T) {
	tree := newTestTree(t, 2)
	leaves := tree.LevelNodes(0)
	a, b := leaves[0], leaves[17]
	d1, d2 := tree.Distance(a, b), tree.Distance(b, a)
	if d1 != d2 || d1 <= 0 {
		t.Errorf("Distance: %v vs %v", d1, d2)
	}
	defer func() {
		if recover() == nil {
			t.Error("cross-level distance must panic")
		}
	}()
	tree.Distance(a, tree.Root())
}

func TestClusterLeaves(t *testing.T) {
	tree := newTestTree(t, 3)
	for _, m := range []int{1, 2, 4, 7, 10} {
		leaves, err := tree.ClusterLeaves(m)
		if err != nil {
			t.Fatalf("ClusterLeaves(%d): %v", m, err)
		}
		if len(leaves) != 7*m {
			t.Fatalf("ClusterLeaves(%d) = %d leaves, want %d", m, len(leaves), 7*m)
		}
		seen := map[NodeID]bool{}
		for _, l := range leaves {
			if !tree.Contains(l) {
				t.Fatalf("cluster leaf %v not in tree", l)
			}
			if seen[l] {
				t.Fatalf("duplicate cluster leaf %v", l)
			}
			seen[l] = true
		}
		// Connectivity under the immediate-neighbor graph.
		if !connected(leaves) {
			t.Fatalf("ClusterLeaves(%d) not connected", m)
		}
	}
	if _, err := tree.ClusterLeaves(0); err == nil {
		t.Error("m=0 must fail")
	}
	if _, err := tree.ClusterLeaves(50); err == nil {
		t.Error("m > 7^(H-1) must fail")
	}
}

func connected(nodes []NodeID) bool {
	in := map[hexgrid.Coord]bool{}
	for _, n := range nodes {
		in[n.Coord] = true
	}
	visited := map[hexgrid.Coord]bool{}
	stack := []hexgrid.Coord{nodes[0].Coord}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[c] {
			continue
		}
		visited[c] = true
		for _, nb := range hexgrid.Neighbors(c) {
			if in[nb] && !visited[nb] {
				stack = append(stack, nb)
			}
		}
	}
	return len(visited) == len(nodes)
}

func TestPriorsValidation(t *testing.T) {
	tree := newTestTree(t, 1)
	if _, err := NewPriors(tree, []float64{1, 2}); err == nil {
		t.Error("wrong length must fail")
	}
	if _, err := NewPriors(tree, []float64{1, 1, 1, 1, 1, 1, -1}); err == nil {
		t.Error("negative prior must fail")
	}
	if _, err := NewPriors(tree, make([]float64, 7)); err == nil {
		t.Error("zero-sum priors must fail")
	}
}

func TestPriorsAggregation(t *testing.T) {
	tree := newTestTree(t, 2)
	leaf := make([]float64, tree.NumLeaves())
	for i := range leaf {
		leaf[i] = float64(i + 1)
	}
	p, err := NewPriors(tree, leaf)
	if err != nil {
		t.Fatalf("NewPriors: %v", err)
	}
	// Leaf level normalized.
	sum := 0.0
	for _, v := range level(t, tree, p, 0) {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("leaf priors sum to %v", sum)
	}
	// Every level sums to 1 and each node's prior equals sum of children.
	for h := 1; h <= 2; h++ {
		lvSum := 0.0
		for _, v := range level(t, tree, p, h) {
			lvSum += v
		}
		if math.Abs(lvSum-1) > 1e-12 {
			t.Errorf("level %d priors sum to %v", h, lvSum)
		}
		for _, n := range tree.LevelNodes(h) {
			childSum := 0.0
			for _, c := range children(n) {
				childSum += p.Of(tree, c)
			}
			if math.Abs(childSum-p.Of(tree, n)) > 1e-12 {
				t.Errorf("node %v prior %v != child sum %v", n, p.Of(tree, n), childSum)
			}
		}
	}
	if p.Of(tree, NodeID{Level: 0, Coord: hexgrid.Coord{Q: 999, R: 999}}) != 0 {
		t.Error("foreign node prior must be 0")
	}
}

func TestPriorsAggregationProperty(t *testing.T) {
	tree := newTestTree(t, 2)
	f := func(seed int64) bool {
		leaf := make([]float64, tree.NumLeaves())
		x := uint64(seed)
		for i := range leaf {
			x = x*6364136223846793005 + 1442695040888963407
			leaf[i] = float64(x%1000) + 1
		}
		p, err := NewPriors(tree, leaf)
		if err != nil {
			return false
		}
		root := p.Of(tree, tree.Root())
		return math.Abs(root-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestUniformPriors(t *testing.T) {
	tree := newTestTree(t, 2)
	p := UniformPriors(tree)
	want := 1.0 / 49
	for _, v := range level(t, tree, p, 0) {
		if math.Abs(v-want) > 1e-12 {
			t.Fatalf("uniform leaf prior %v, want %v", v, want)
		}
	}
}

func TestPriorsSubset(t *testing.T) {
	tree := newTestTree(t, 2)
	p := UniformPriors(tree)
	nodes := tree.LevelNodes(0)[:10]
	raw, err := p.Subset(tree, nodes, false)
	if err != nil {
		t.Fatalf("Subset: %v", err)
	}
	for _, v := range raw {
		if math.Abs(v-1.0/49) > 1e-12 {
			t.Errorf("raw subset value %v", v)
		}
	}
	norm, err := p.Subset(tree, nodes, true)
	if err != nil {
		t.Fatalf("Subset normalize: %v", err)
	}
	sum := 0.0
	for _, v := range norm {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("normalized subset sums to %v", sum)
	}
	if _, err := p.Subset(tree, []NodeID{{Level: 0, Coord: hexgrid.Coord{Q: 99, R: 99}}}, false); err == nil {
		t.Error("foreign node must fail")
	}
}
