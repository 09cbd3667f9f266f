package codec

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"corgi/internal/obf"
	"corgi/internal/raceon"
)

// sparseMatrix builds a row-stochastic matrix with nnz nonzeros per row.
func sparseMatrix(dim, nnz int, seed int64) *obf.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := obf.NewMatrix(dim)
	for i := 0; i < dim; i++ {
		cols := rng.Perm(dim)[:nnz]
		total := 0.0
		vals := make([]float64, nnz)
		for k := range vals {
			vals[k] = rng.Float64() + 0.01
			total += vals[k]
		}
		for k, j := range cols {
			m.Set(i, j, vals[k]/total)
		}
	}
	return m
}

func TestRoundTripWithinTolerance(t *testing.T) {
	for _, nnz := range []int{1, 3, 49} {
		m := sparseMatrix(49, nnz, int64(nnz))
		blob, err := EncodeMatrix(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeMatrix(blob, 49)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 49; i++ {
			for j := 0; j < 49; j++ {
				if d := math.Abs(got.At(i, j) - m.At(i, j)); d > 1e-9 {
					t.Fatalf("nnz=%d (%d,%d): decode error %g", nnz, i, j, d)
				}
			}
		}
	}
}

// TestEncodeMatrixSizedOnce: the blob is allocated at its final length,
// for sparse rows, dense rows and a mix, so encoding a matrix allocates the
// blob and one row of quantized values and nothing else.
func TestEncodeMatrixSizedOnce(t *testing.T) {
	for _, nnz := range []int{1, 3, 49} {
		m := sparseMatrix(49, nnz, int64(nnz))
		for j := range m.Row(0) {
			m.Set(0, j, 1.0/49)
		}
		blob, err := EncodeMatrix(m)
		if err != nil {
			t.Fatal(err)
		}
		if cap(blob) != len(blob) {
			t.Errorf("nnz=%d: %d-byte blob has capacity %d", nnz, len(blob), cap(blob))
		}
		if raceon.Enabled {
			continue
		}
		if allocs := testing.AllocsPerRun(10, func() { _, _ = EncodeMatrix(m) }); allocs > 2 {
			t.Errorf("nnz=%d: EncodeMatrix allocates %.0f times, want 2", nnz, allocs)
		}
	}
}

// TestReEncodeStable checks quantization idempotence: a decoded matrix
// re-encodes to identical bytes. The store's content addressing and the
// protocol's strong ETags both rely on this.
func TestReEncodeStable(t *testing.T) {
	m := sparseMatrix(49, 4, 7)
	blob, err := EncodeMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeMatrix(blob, 49)
	if err != nil {
		t.Fatal(err)
	}
	blob2, err := EncodeMatrix(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("re-encoding a decoded matrix changed the blob")
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	m := sparseMatrix(7, 2, 1)
	blob, err := EncodeMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMatrix(blob[:len(blob)-1], 7); err == nil {
		t.Error("truncated blob must fail")
	}
	if _, err := DecodeMatrix(append(append([]byte(nil), blob...), 0), 7); err == nil {
		t.Error("trailing bytes must fail")
	}
	if _, err := DecodeMatrix(blob, 0); err == nil {
		t.Error("dim 0 must fail")
	}
	if _, err := DecodeMatrix(blob, MaxDim+1); err == nil {
		t.Error("oversized dim must fail")
	}
	// A row claiming more entries than the dimension.
	bad := []byte{9, 0}
	if _, err := DecodeMatrix(bad, 3); err == nil {
		t.Error("overcounted sparse row must fail")
	}
	// A sparse entry naming an out-of-range column.
	bad = []byte{1, 0, 9, 0, 1, 2, 3, 4}
	if _, err := DecodeMatrix(bad, 3); err == nil {
		t.Error("out-of-range column must fail")
	}
}

// TestDecodeMatrixDimBoundedByBytes: every row costs at least its 2-byte
// header, so a dimension the blob cannot pay for is refused before it
// sizes dim² values (72 MB for this one).
func TestDecodeMatrixDimBoundedByBytes(t *testing.T) {
	const bound = 1 << 20
	var err error
	if got := allocatedBy(func() { _, err = DecodeMatrix(make([]byte, 10), 3000) }); err == nil || got > bound {
		t.Errorf("dim 3000 in a 10-byte blob: err %v, %d bytes allocated, want an error and <= %d", err, got, bound)
	}
}
