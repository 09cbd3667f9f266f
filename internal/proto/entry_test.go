package proto

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"testing"

	"corgi/internal/core"
	"corgi/internal/geo"
	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
	"corgi/internal/obf"
	"corgi/internal/store"
)

// allocatedBy reports the heap bytes one call of f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// entryTree is the height-2 San Francisco tree every test here decodes
// against: seven level-1 subtrees of seven leaves under one root.
func entryTree(tb testing.TB) *loctree.Tree {
	tb.Helper()
	sys, err := hexgrid.NewSystem(geo.SanFrancisco.Center(), 0.1)
	if err != nil {
		tb.Fatal(err)
	}
	tree, err := loctree.NewAt(sys, geo.SanFrancisco.Center(), 2)
	if err != nil {
		tb.Fatal(err)
	}
	return tree
}

// levelForest is a complete, valid forest at one level without an LP
// solve: every row puts 0.75 on its own leaf and 0.25 on the next, so every
// row blob is sparse.
func levelForest(tree *loctree.Tree, level int) *core.Forest {
	forest := &core.Forest{PrivacyLevel: level, Delta: 1, Entries: map[loctree.NodeID]*core.ForestEntry{}}
	for _, node := range tree.LevelNodes(level) {
		leaves := tree.LeavesUnder(node)
		m := obf.NewMatrix(len(leaves))
		for i := range leaves {
			m.Set(i, i, 0.75)
			m.Set(i, (i+1)%len(leaves), 0.25)
		}
		forest.Entries[node] = &core.ForestEntry{Root: node, Leaves: leaves, Matrix: m}
	}
	return forest
}

// entryForms is one forest in both entry forms at once, so a case can
// break the same thing in the dense v1 rows and the compact v2 blobs.
type entryForms struct {
	v1 []ForestEntryWire
	v2 []core.CompactEntry
}

func encodeForms(t *testing.T, tree *loctree.Tree, forest *core.Forest) *entryForms {
	t.Helper()
	v1, err := EncodeForestV1(tree, forest)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := EncodeForestV2(tree, forest)
	if err != nil {
		t.Fatal(err)
	}
	return &entryForms{v1: v1.Entries, v2: v2.Entries}
}

var errRefused = errors.New("snapshot treated as absent")

// TestEveryDecoderRefusesTheSameEntries sends each malformed forest through
// the three ways forest bytes enter a process — a v1 body and a v2 body via
// DecodeForestBody, and a snapshot via ForestStore.Load — and requires all
// three to refuse it: they share one validator, core.DecodeForest.
func TestEveryDecoderRefusesTheSameEntries(t *testing.T) {
	tree := entryTree(t)
	forest := levelForest(tree, 1)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const hash = "0123456789abcdef0123456789abcdef"
	fs, err := store.NewForestStore(st, hash, tree)
	if err != nil {
		t.Fatal(err)
	}
	decoders := map[string]func(*entryForms) error{
		"v1 body": func(w *entryForms) error {
			body, _ := json.Marshal(ForestResponse{PrivacyLevel: 1, Delta: 1, Entries: w.v1})
			_, err := DecodeForestBody(tree, "application/json", body)
			return err
		},
		"v2 body": func(w *entryForms) error {
			body, _ := json.Marshal(ForestResponseV2{PrivacyLevel: 1, Delta: 1, Entries: w.v2})
			_, err := DecodeForestBody(tree, ContentTypeForestV2, body)
			return err
		},
		"snapshot": func(w *entryForms) error {
			if err := st.Save(&store.Snapshot{SpecHash: hash, PrivacyLevel: 1, Delta: 1, Entries: w.v2}); err != nil {
				t.Fatal(err)
			}
			entries, err := fs.Load(context.Background(), 1, 1)
			if err == nil && entries == nil {
				err = errRefused
			}
			return err
		},
	}
	for name, decode := range decoders {
		if err := decode(encodeForms(t, tree, forest)); err != nil {
			t.Fatalf("%s: the pristine forest is refused: %v", name, err)
		}
	}

	// A coordinate that names a tree node, but not one at level 1.
	var offLevel [2]int
	for _, n := range append(tree.LevelNodes(0), tree.Root()) {
		if !tree.Contains(loctree.NodeID{Level: 1, Coord: n.Coord}) {
			offLevel = [2]int{n.Coord.Q, n.Coord.R}
			break
		}
	}
	if offLevel == ([2]int{}) {
		t.Fatal("every tree coordinate is also a level-1 node")
	}
	for _, tc := range []struct {
		name   string
		mutate func(w *entryForms)
	}{
		{"foreign root", func(w *entryForms) { w.v1[0].RootQ, w.v2[0].RootQ = 999, 999 }},
		{"root at the wrong level", func(w *entryForms) {
			w.v1[0].RootQ, w.v1[0].RootR = offLevel[0], offLevel[1]
			w.v2[0].RootQ, w.v2[0].RootR = offLevel[0], offLevel[1]
		}},
		{"missing subtree", func(w *entryForms) { w.v1, w.v2 = w.v1[1:], w.v2[1:] }},
		{"duplicate subtree", func(w *entryForms) { w.v1[1], w.v2[1] = w.v1[0], w.v2[0] }},
		{"leaf from another subtree", func(w *entryForms) {
			w.v1[0].Leaves[0], w.v2[0].Leaves[0] = w.v1[1].Leaves[0], w.v2[1].Leaves[0]
		}},
		{"permuted leaves", func(w *entryForms) {
			l1, l2 := w.v1[0].Leaves, w.v2[0].Leaves
			l1[0], l1[1] = l1[1], l1[0]
			l2[0], l2[1] = l2[1], l2[0]
		}},
		{"leaf outside the tree", func(w *entryForms) { w.v1[0].Leaves[0], w.v2[0].Leaves[0] = [2]int{999, 999}, [2]int{999, 999} }},
		{"dim is not the leaf count", func(w *entryForms) {
			w.v1[0].Rows = w.v1[0].Rows[:len(w.v1[0].Rows)-1]
			w.v2[0].Dim++
		}},
		{"truncated blob", func(w *entryForms) {
			w.v1[0].Rows[0] = w.v1[0].Rows[0][:len(w.v1[0].Rows[0])-1]
			w.v2[0].Data = w.v2[0].Data[:len(w.v2[0].Data)-1]
		}},
		{"trailing bytes", func(w *entryForms) {
			w.v1[0].Rows[0] = append(w.v1[0].Rows[0], 0)
			w.v2[0].Data = append(w.v2[0].Data, 0)
		}},
		{"non-stochastic row", func(w *entryForms) {
			w.v1[0].Rows[0][0] += 0.5
			// Row 0 is sparse: a 2-byte count, then (uint16 column, uint32
			// value) pairs. Zero the first value.
			copy(w.v2[0].Data[4:8], []byte{0, 0, 0, 0})
		}},
	} {
		for name, decode := range decoders {
			w := encodeForms(t, tree, forest)
			tc.mutate(w)
			if err := decode(w); err == nil {
				t.Errorf("%s: %s accepted", tc.name, name)
			}
		}
	}
}

// claimsHugeEntry returns a v2 forest whose first entry claims n leaves
// and blob bytes enough for n empty rows, which is all the codec's own
// count rule asks of a dimension.
func claimsHugeEntry(tb testing.TB, tree *loctree.Tree, n int) *ForestResponseV2 {
	tb.Helper()
	v2, err := EncodeForestV2(tree, levelForest(tree, 1))
	if err != nil {
		tb.Fatal(err)
	}
	big := &v2.Entries[0]
	big.Leaves = make([][2]int, n)
	big.Dim = n
	big.Data = make([]byte, 2*n)
	return v2
}

// TestClaimedDimensionSizesNothing: a v2 body and a snapshot whose entry
// claims 3,000 leaves are refused by the tree check before a 3000² matrix
// (72 MB) is allocated.
func TestClaimedDimensionSizesNothing(t *testing.T) {
	const bound = 1 << 20
	tree := entryTree(t)
	v2 := claimsHugeEntry(t, tree, 3000)
	body, err := json.Marshal(v2)
	if err != nil {
		t.Fatal(err)
	}
	got := allocatedBy(func() { _, err = DecodeForestBody(tree, ContentTypeForestV2, body) })
	if err == nil || got > bound {
		t.Errorf("%d-byte v2 body: err %v, %d bytes allocated, want an error and <= %d", len(body), err, got, bound)
	}

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const hash = "0123456789abcdef0123456789abcdef"
	if err := st.Save(&store.Snapshot{SpecHash: hash, PrivacyLevel: 1, Delta: 1, Entries: v2.Entries}); err != nil {
		t.Fatal(err)
	}
	fs, err := store.NewForestStore(st, hash, tree)
	if err != nil {
		t.Fatal(err)
	}
	var entries []*core.ForestEntry
	got = allocatedBy(func() { entries, err = fs.Load(context.Background(), 1, 1) })
	if entries != nil || err != nil || got > bound {
		t.Errorf("snapshot: %d entries, err %v, %d bytes allocated, want none and <= %d", len(entries), err, got, bound)
	}
}

// sameForest reports how two forests differ, or nil.
func sameForest(a, b *core.Forest) error {
	if a.PrivacyLevel != b.PrivacyLevel || a.Delta != b.Delta || len(a.Entries) != len(b.Entries) {
		return errors.New("level, delta or entry count differ")
	}
	for root, ea := range a.Entries {
		eb := b.Entries[root]
		if eb == nil || len(ea.Leaves) != len(eb.Leaves) || ea.Matrix.Dim() != eb.Matrix.Dim() {
			return errors.New("entry " + root.String() + " differs in shape")
		}
		for i := range ea.Leaves {
			if ea.Leaves[i] != eb.Leaves[i] {
				return errors.New("entry " + root.String() + " differs in its leaves")
			}
			for j := range ea.Leaves {
				if ea.Matrix.At(i, j) != eb.Matrix.At(i, j) {
					return errors.New("entry " + root.String() + " differs in its matrix")
				}
			}
		}
	}
	return nil
}

// FuzzDecodeForestBody feeds arbitrary bodies of either content type to
// DecodeForestBody against a fixed height-2 tree. None may panic; none may
// allocate more than a constant times its length plus the tree's own
// dense-matrix total (the tree, not the body, sizes every matrix); and a
// body that decodes re-encodes to one that decodes to the same forest.
func FuzzDecodeForestBody(f *testing.F) {
	tree := entryTree(f)
	dense := 0
	for level := 1; level <= tree.Height(); level++ {
		for _, node := range tree.LevelNodes(level) {
			dim := len(tree.LeavesUnder(node))
			dense += 8 * dim * dim
		}
	}
	for level := 1; level <= tree.Height(); level++ {
		for _, v2 := range []bool{false, true} {
			v, _, err := encodeForest(tree, levelForest(tree, level), v2)
			if err != nil {
				f.Fatal(err)
			}
			body, _ := json.Marshal(v)
			f.Add(v2, body)
		}
	}
	// 1000 claimed leaves: 8 MB of matrix for a 10 KB body, past the bound.
	huge, _ := json.Marshal(claimsHugeEntry(f, tree, 1000))
	f.Add(true, huge)
	f.Add(false, []byte(`{"privacy_l":1,"entries":[{},{},{},{},{},{},{}]}`))
	f.Fuzz(func(t *testing.T, v2 bool, body []byte) {
		ctype := "application/json"
		if v2 {
			ctype = ContentTypeForestV2
		}
		var (
			forest *core.Forest
			err    error
		)
		// The constant is JSON's: an empty entry, "{}," is 3 bytes of input
		// and an 80-byte struct, and encoding/json grows a long slice to
		// about 5 times its final size in total.
		got := allocatedBy(func() { forest, err = DecodeForestBody(tree, ctype, body) })
		if bound := 256*len(body) + dense + 64<<10; got > uint64(bound) {
			t.Fatalf("%d bytes allocated decoding a %d-byte body, bound %d", got, len(body), bound)
		}
		if err != nil {
			return
		}
		v, _, err := encodeForest(tree, forest, v2)
		if err != nil {
			t.Fatalf("a decoded forest does not re-encode: %v", err)
		}
		again, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeForestBody(tree, ctype, again)
		if err != nil {
			t.Fatalf("re-encoded body\n %s\nis refused: %v", again, err)
		}
		if err := sameForest(forest, back); err != nil {
			t.Fatalf("body\n %s\nre-encodes to\n %s\nwhich decodes to another forest: %v", body, again, err)
		}
	})
}
