// Package codec holds the binary encodings of what crosses a process
// boundary, and the one reader they are decoded with:
//
//   - Cursor (cursor.go) is the bounds-checked reader every binary format
//     in the module decodes through — stream frame bodies
//     (internal/stream), lease tokens (internal/budget), and the two
//     formats below — with the appenders their encoders share. A length or
//     count read from outside input is bounded by the bytes that are
//     actually there before anything is sized by it.
//   - The lease bundle (lease.go) is a detached session binding in exact
//     float64 bits, for device-side draws.
//   - The matrix blob (this file) is the compact, quantized, row-sparse
//     matrix encoding of a forest entry's portable form,
//     core.CompactEntry, which is both a wire-v2 entry (internal/proto)
//     and a snapshot entry (internal/store). core.Forest.Compact and
//     core.DecodeForest are its one encoder and one decoder outside this
//     package; it sits below internal/core because core's own imports
//     (internal/budget) already depend on this package.
//
// Each matrix entry is a probability in [0, 1], quantized to a 32-bit fixed
// point q = round(v * (2^32 - 1)); the decode error per entry is at most
// 0.5/(2^32-1) ≈ 1.2e-10, far inside the 1e-9 wire tolerance and the 1e-6
// row-stochasticity check. Rows are stored back-to-back in one binary blob:
//
//	uint16 n  (little endian)
//	n == 0xFFFF: a dense row follows — dim × uint32 quantized values
//	otherwise:   n sparse entries of (uint16 column, uint32 value)
//
// The encoder picks per row whichever form is smaller. LP basic solutions
// are naturally sparse (few nonzero transitions per row), so the sparse arm
// dominates in practice; even a fully dense matrix is ~4 bytes per entry
// versus ~19 characters of decimal JSON.
//
// Quantization is idempotent: quantize(dequantize(q)) == q, so a matrix
// that round-trips through this codec re-encodes to identical bytes. The
// store and the ETag machinery both rely on that stability.
package codec

import (
	"fmt"
	"math"

	"corgi/internal/obf"
)

// quantScale maps [0,1] onto the full uint32 range.
const quantScale = float64(1<<32 - 1)

// denseRowMark flags a dense row in the per-row header. Matrix dimensions
// must stay below it (the paper's largest tree has 343 leaves).
const denseRowMark = 0xFFFF

// MaxDim is the largest matrix dimension the encoding supports.
const MaxDim = denseRowMark - 1

// Quantize maps a value in [0, 1] onto the codec's 32-bit fixed point
// (clamping outside the interval). It is the same per-entry representation
// the row blobs use, exported so other binary formats — the stream
// transport encodes report coordinates with it — share one quantization
// with one documented error bound (0.5/(2^32-1) per entry).
func Quantize(v float64) uint32 {
	if v <= 0 {
		return 0
	}
	if v >= 1 {
		return math.MaxUint32
	}
	return uint32(math.Round(v * quantScale))
}

// Dequantize inverts Quantize. Quantize(Dequantize(q)) == q for every q,
// the idempotence the store and ETag machinery rely on.
func Dequantize(q uint32) float64 { return float64(q) / quantScale }

// EncodeMatrix packs a matrix into the quantized row-sparse binary blob.
func EncodeMatrix(m *obf.Matrix) ([]byte, error) {
	dim := m.Dim()
	if dim > MaxDim {
		return nil, fmt.Errorf("codec: matrix dimension %d exceeds limit %d", dim, MaxDim)
	}
	var buf []byte
	qrow := make([]uint32, dim)
	for i := 0; i < dim; i++ {
		row := m.Row(i)
		nnz := 0
		for j, v := range row {
			qrow[j] = Quantize(v)
			if qrow[j] != 0 {
				nnz++
			}
		}
		sparseBytes := 2 + 6*nnz
		denseBytes := 2 + 4*dim
		if sparseBytes < denseBytes {
			buf = AppendU16(buf, uint16(nnz))
			for j, q := range qrow {
				if q == 0 {
					continue
				}
				buf = AppendU32(AppendU16(buf, uint16(j)), q)
			}
		} else {
			buf = AppendU16(buf, denseRowMark)
			for _, q := range qrow {
				buf = AppendU32(buf, q)
			}
		}
	}
	return buf, nil
}

// DecodeMatrix unpacks a blob back into a dense matrix.
func DecodeMatrix(data []byte, dim int) (*obf.Matrix, error) {
	if dim < 1 || dim > MaxDim {
		return nil, fmt.Errorf("codec: dimension %d out of range", dim)
	}
	// Every row costs at least its 2-byte header, so a dimension the blob
	// cannot pay for is refused before it sizes dim² values.
	if len(data) < 2*dim {
		return nil, fmt.Errorf("codec: %d-byte blob cannot hold %d rows", len(data), dim)
	}
	m := obf.NewMatrix(dim)
	c := NewCursor(data, "codec: matrix blob")
	for i := 0; i < dim && c.Err() == nil; i++ {
		row := m.Row(i)
		n := c.U16()
		if n == denseRowMark {
			for j := range row {
				row[j] = Dequantize(c.U32())
			}
			continue
		}
		if int(n) > dim {
			return nil, fmt.Errorf("codec: row %d claims %d entries for dim %d", i, n, dim)
		}
		for k := 0; k < int(n); k++ {
			col := c.U16()
			if int(col) >= dim {
				return nil, fmt.Errorf("codec: row %d column %d out of range", i, col)
			}
			row[col] = Dequantize(c.U32())
		}
	}
	if err := c.Done(); err != nil {
		return nil, err
	}
	return m, nil
}
