package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"testing"

	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
	"corgi/internal/raceon"
)

func nid(level, q, r int) loctree.NodeID {
	return loctree.NodeID{Level: level, Coord: hexgrid.Coord{Q: q, R: r}}
}

// testBundle exercises every row kind: a dense row, a sparse row whose
// zeros must decode to exact 0.0, and an empty (unsampleable) row. The
// weights include values a quantizing codec would mangle.
func testBundle() *LeaseBundle {
	return &LeaseBundle{
		Root:           nid(2, -3, 7),
		PrecisionLevel: 1,
		Degraded:       true,
		Seed:           -987654321,
		RNGPos:         4096,
		Pruned:         []loctree.NodeID{nid(0, 1, -1), nid(0, 4, 4)},
		Nodes:          []loctree.NodeID{nid(0, 0, 0), nid(0, 1, 0), nid(0, 0, 1), nid(0, -1, 1)},
		Rows: [][]float64{
			{math.Pi, 1e-300, math.Nextafter(1, 2), 0.1 + 0.2},
			{0, 0, 5e-324, 0},
			nil,
			{0.25, 0, 0, 0.75},
		},
	}
}

func TestLeaseBundleRoundTrip(t *testing.T) {
	want := testBundle()
	blob, err := EncodeLeaseBundle(want)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) != cap(blob) {
		t.Fatalf("encoder sized its buffer %d for a %d-byte bundle", cap(blob), len(blob))
	}
	got, err := DecodeLeaseBundle(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Root != want.Root || got.PrecisionLevel != want.PrecisionLevel ||
		got.Degraded != want.Degraded || got.Seed != want.Seed || got.RNGPos != want.RNGPos {
		t.Fatalf("header mismatch: got %+v want %+v", got, want)
	}
	if len(got.Pruned) != len(want.Pruned) {
		t.Fatalf("pruned count %d want %d", len(got.Pruned), len(want.Pruned))
	}
	for i := range want.Pruned {
		if got.Pruned[i] != want.Pruned[i] {
			t.Fatalf("pruned[%d] = %v want %v", i, got.Pruned[i], want.Pruned[i])
		}
	}
	if len(got.Nodes) != len(want.Nodes) {
		t.Fatalf("node count %d want %d", len(got.Nodes), len(want.Nodes))
	}
	for i := range want.Nodes {
		if got.Nodes[i] != want.Nodes[i] {
			t.Fatalf("nodes[%d] = %v want %v", i, got.Nodes[i], want.Nodes[i])
		}
	}
	for i, row := range want.Rows {
		if len(row) == 0 {
			if got.Rows[i] != nil {
				t.Fatalf("row %d: want nil (unsampleable), got %v", i, got.Rows[i])
			}
			continue
		}
		for j, w := range row {
			// Bit-for-bit: alias tables are rebuilt from these weights and
			// even one ulp of drift would shift a draw.
			if math.Float64bits(got.Rows[i][j]) != math.Float64bits(w) {
				t.Fatalf("row %d col %d: bits %x want %x", i, j,
					math.Float64bits(got.Rows[i][j]), math.Float64bits(w))
			}
		}
	}
}

func TestLeaseBundleEncodeRejectsBadShapes(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*LeaseBundle)
	}{
		{"no nodes", func(b *LeaseBundle) { b.Nodes = nil; b.Rows = nil }},
		{"row count mismatch", func(b *LeaseBundle) { b.Rows = b.Rows[:2] }},
		{"row width mismatch", func(b *LeaseBundle) { b.Rows[0] = []float64{1, 2} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := testBundle()
			tc.mut(b)
			if _, err := EncodeLeaseBundle(b); err == nil {
				t.Fatal("want encode error, got nil")
			}
		})
	}
}

func TestLeaseBundleDecodeRejectsMalformed(t *testing.T) {
	blob, err := EncodeLeaseBundle(testBundle())
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix must error (truncation at any byte boundary).
	for i := 0; i < len(blob); i++ {
		if _, err := DecodeLeaseBundle(blob[:i]); err == nil {
			t.Fatalf("prefix of %d bytes decoded without error", i)
		}
	}
	if _, err := DecodeLeaseBundle(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Fatal("trailing byte decoded without error")
	}
	bad := append([]byte(nil), blob...)
	bad[4] = leaseVersion + 1
	if _, err := DecodeLeaseBundle(bad); err == nil {
		t.Fatal("bumped version decoded without error")
	}
}

// allocatedBy reports the heap bytes one call of f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// denseBundle is a k-node bundle of dense rows, every weight nonzero.
func denseBundle(k int) *LeaseBundle {
	b := &LeaseBundle{Root: nid(1, 0, 0), Seed: 1, Nodes: make([]loctree.NodeID, k), Rows: make([][]float64, k)}
	for i := range b.Nodes {
		b.Nodes[i] = nid(0, i, -i)
		b.Rows[i] = make([]float64, k)
		for j := range b.Rows[i] {
			b.Rows[i][j] = 1 / float64(1+i+j)
		}
	}
	return b
}

// sparseBundle is a 49-node bundle whose rows all encode sparse, with one
// empty row and a pruned list, so storage that held it has every list and
// an arena of its own.
func sparseBundle() *LeaseBundle {
	const k = 49
	b := &LeaseBundle{Root: nid(2, 1, 1), PrecisionLevel: 1, Seed: -5, RNGPos: 77,
		Pruned: []loctree.NodeID{nid(0, 9, 9), nid(0, 8, 8)},
		Nodes:  make([]loctree.NodeID, k), Rows: make([][]float64, k)}
	for i := range b.Nodes {
		b.Nodes[i] = nid(0, -i, i)
		if i == 3 {
			continue
		}
		b.Rows[i] = make([]float64, k)
		b.Rows[i][i], b.Rows[i][(i*7)%k] = 0.5, 0.25
	}
	return b
}

// sameBundle reports whether two decoded bundles hold the same values, a
// nil row only where the other has one, every weight to the bit.
func sameBundle(a, b *LeaseBundle) bool {
	if a.Root != b.Root || a.PrecisionLevel != b.PrecisionLevel || a.Degraded != b.Degraded ||
		a.Seed != b.Seed || a.RNGPos != b.RNGPos || !slices.Equal(a.Pruned, b.Pruned) ||
		!slices.Equal(a.Nodes, b.Nodes) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if (a.Rows[i] == nil) != (b.Rows[i] == nil) || !slices.EqualFunc(a.Rows[i], b.Rows[i],
			func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			return false
		}
	}
	return true
}

// held returns a bundle whose storage last held blob's decode.
func held(t testing.TB, blob []byte) *LeaseBundle {
	b := new(LeaseBundle)
	if err := DecodeLeaseBundleInto(b, blob); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLeaseBundleDecodeArena pins both sides of the row arena: an honest
// bundle of dense rows decodes in a handful of allocations however many
// rows it has, and none at all into storage that held it, and a bundle
// whose header claims a large n gets only the row space its bytes pay for,
// not n*n up front, fresh or into reused storage.
func TestLeaseBundleDecodeArena(t *testing.T) {
	const k = 49
	dense, err := EncodeLeaseBundle(denseBundle(k))
	if err != nil {
		t.Fatal(err)
	}
	// The bundle, its node list, its row headers, one arena.
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := DecodeLeaseBundle(dense); err != nil {
			t.Fatal(err)
		}
	}); allocs > 4 && !raceon.Enabled {
		t.Errorf("decoding %d dense rows: %v allocations, want <= 4", k, allocs)
	}
	reused := held(t, dense)
	if allocs := testing.AllocsPerRun(20, func() {
		if err := DecodeLeaseBundleInto(reused, dense); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 && !raceon.Enabled {
		t.Errorf("decoding %d dense rows into the storage they were decoded into: %v allocations, want 0", k, allocs)
	}

	const n = 4096 // n*n float64s would be 128 MiB
	empty := &LeaseBundle{Root: nid(2, 0, 0), Nodes: make([]loctree.NodeID, n), Rows: make([][]float64, n)}
	for i := range empty.Nodes {
		empty.Nodes[i] = nid(0, i, 0)
	}
	blob, err := EncodeLeaseBundle(empty)
	if err != nil {
		t.Fatal(err)
	}
	// Three two-byte sparse rows that each demand n zeros, then nothing.
	hostile := append(append([]byte(nil), blob[:len(blob)-n]...), rowSparse, 0, rowSparse, 0, rowSparse, 0)
	const bound = 1 << 20
	for _, into := range []struct {
		name string
		b    func() *LeaseBundle
	}{
		{"fresh", func() *LeaseBundle { return new(LeaseBundle) }},
		{"reused dense K=49", func() *LeaseBundle { return held(t, dense) }},
	} {
		b := into.b()
		if got := allocatedBy(func() { err = DecodeLeaseBundleInto(b, blob) }); err != nil || got > bound {
			t.Errorf("%s: bundle of %d empty rows: err %v, %d bytes allocated, want <= %d", into.name, n, err, got, bound)
		}
		b = into.b()
		if got := allocatedBy(func() { err = DecodeLeaseBundleInto(b, hostile) }); err == nil || got > bound {
			t.Errorf("%s: truncated bundle claiming %d rows: err %v, %d bytes allocated, want an error and <= %d",
				into.name, n, err, got, bound)
		}
	}
}

// TestLeaseBundleCountsBoundedByBytes: a header that claims as many pruned
// leaves or report nodes as MaxLeaseNodes allows, with none of them there,
// is refused before the claim sizes a list.
func TestLeaseBundleCountsBoundedByBytes(t *testing.T) {
	head := append([]byte(leaseMagic), leaseVersion, 0, 0) // flags, precision level
	head = AppendNode(head, nid(1, 0, 0))
	head = append(head, 0, 0) // seed, rng position
	for name, blob := range map[string][]byte{
		"pruned": binary.AppendUvarint(bytes.Clone(head), MaxLeaseNodes),
		"nodes":  binary.AppendUvarint(append(bytes.Clone(head), 0), MaxLeaseNodes),
	} {
		const bound = 16 << 10
		var err error
		if got := allocatedBy(func() { _, err = DecodeLeaseBundle(blob) }); err == nil || got > bound {
			t.Errorf("%s count %d in a %d-byte bundle: err %v, %d bytes allocated, want an error and <= %d",
				name, MaxLeaseNodes, len(blob), err, got, bound)
		}
	}
}

// FuzzDecodeLeaseBundle decodes each input fresh and into storage that
// last held a dense K=49 bundle or a sparse-row one, which must agree,
// error for error: nothing a bundle held may show through a decode into
// it (a sparse row over a dense one is where it would).
func FuzzDecodeLeaseBundle(f *testing.F) {
	var blobs [][]byte
	for _, b := range []*LeaseBundle{testBundle(), sparseBundle(), denseBundle(49)} {
		blob, err := EncodeLeaseBundle(b)
		if err != nil {
			f.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	// The K=49 bundles are priors, not seeds: the minimizer's time grows
	// with the square of an input's length, and the testBundle seed already
	// has every row kind.
	f.Add(blobs[0])
	priors := blobs[1:]
	f.Add([]byte("CGL1"))
	f.Add([]byte{})
	// One storage per prior, kept across inputs: each input is decoded into
	// it right after the prior is.
	storage := make([]LeaseBundle, len(priors))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeLeaseBundle(data)
		for i, prior := range priors {
			into := &storage[i]
			if err := DecodeLeaseBundleInto(into, prior); err != nil {
				t.Fatal(err)
			}
			if got := DecodeLeaseBundleInto(into, data); (got == nil) != (err == nil) || got != nil && got.Error() != err.Error() {
				t.Fatalf("decode into used storage: error %v, fresh decode %v", got, err)
			}
			if err == nil && !sameBundle(into, b) {
				t.Fatalf("decode into used storage differs from a fresh decode")
			}
		}
		if err != nil {
			return
		}
		// A successful decode must satisfy the invariants clientdraw
		// relies on without re-checking.
		if len(b.Nodes) < 1 || len(b.Nodes) != len(b.Rows) {
			t.Fatalf("decoded bundle violates shape: %d nodes, %d rows", len(b.Nodes), len(b.Rows))
		}
		for i, row := range b.Rows {
			if row != nil && len(row) != len(b.Nodes) {
				t.Fatalf("row %d has %d weights for %d nodes", i, len(row), len(b.Nodes))
			}
		}
	})
}

func FuzzDecodeMatrix(f *testing.F) {
	m := sparseMatrix(7, 3, 1)
	blob, err := EncodeMatrix(m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob, 7)
	f.Add([]byte{}, 1)
	f.Add([]byte("CGM1"), 49)
	f.Fuzz(func(t *testing.T, data []byte, dim int) {
		got, err := DecodeMatrix(data, dim)
		if err != nil {
			return
		}
		if got.Dim() != dim {
			t.Fatalf("decoded matrix dim %d want %d", got.Dim(), dim)
		}
	})
}
