package codec

// This file is the lease-bundle codec: the serialized form of a detached
// session binding (internal/session.DetachLease) that a client replays
// draws from without the server. Unlike the matrix codec in codec.go, row
// weights here are carried as full IEEE-754 float64 bit patterns, never
// quantized: the client rebuilds Walker alias tables from these vectors
// (internal/sample.New), and a quantization error of even ~1.2e-10 per
// entry would shift alias thresholds and break the byte-identical draw
// equivalence the lease pipeline guarantees. math.Float64bits round-trips
// exactly, so a bundle decodes to the same vectors the server sampled from.
//
// Layout (all integers little endian; varints are encoding/binary's):
//
//	"CGL1"               magic
//	uint8  version (2)
//	uint8  flags (bit 0: degraded entry)
//	uvarint precision level
//	node   subtree root
//	varint seed
//	uvarint stream position (draws consumed before the leased window)
//	uvarint pruned count, then that many nodes
//	uvarint node count n (>= 1), then n nodes (the report outcomes)
//	n rows, each:
//	  uint8 kind 0: empty — the row is unsampleable (degenerate after
//	         pruning); a client draw from it fails without consuming a position
//	  uint8 kind 1: dense — n float64 bit patterns
//	  uint8 kind 2: sparse — uvarint nnz, then nnz x (uvarint col,
//	         float64 bits); omitted columns are exactly 0.0
//
// where node := varint level, varint q, varint r. The encoder picks dense
// or sparse per row, whichever is smaller; exact-0.0 weights are the only
// thing sparsity elides, which cannot perturb an alias build. Decoding is
// strict: truncated, oversized, out-of-range, or trailing bytes are
// errors, never panics (fuzz-tested).

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"corgi/internal/loctree"
)

// leaseMagic brands an encoded lease bundle.
const leaseMagic = "CGL1"

// leaseVersion is the current bundle version. It names the draw stream as
// well as the layout: (Seed, RNGPos) address sample.Uniform's stream, and
// a bundle of another version is refused rather than drawn from.
const leaseVersion = 2

// MaxLeaseNodes caps the report-node count a bundle may carry, shared with
// the matrix codec's dimension limit (the paper's largest tree has 343
// leaves; the cap exists so a hostile bundle cannot demand gigabyte
// allocations before validation fails).
const MaxLeaseNodes = MaxDim

const (
	leaseFlagDegraded = 1 << 0

	rowEmpty  = 0
	rowDense  = 1
	rowSparse = 2
)

// LeaseBundle is a detached session binding: everything a client needs to
// replay the server's exact draw sequence for one subtree. Produced by
// session.DetachLease, consumed by internal/clientdraw.
//
// Who owns what depends on the side. A bundle the server detaches is a set
// of views: Pruned and Nodes are the session binding's own lists, and the
// Rows of an unpruned leaf-precision binding are the forest entry's matrix
// rows in place; only the row headers, and the array pruned and precision
// rows are computed into, belong to whoever detached it (the registry's
// pooled lease). Read it, encode it, never write through it. A bundle a
// device decodes owns everything: DecodeLeaseBundleInto reads into the
// bundle's own node lists, row headers and row arena, reusing them from
// one decode to the next, so its slices stay valid only until the bundle
// is decoded into again.
type LeaseBundle struct {
	// Root is the privacy subtree the binding covers.
	Root loctree.NodeID
	// PrecisionLevel is the policy's precision level: 0 draws from leaf
	// rows, >0 from precision-group rows (the client maps a true leaf to
	// its ancestor at this level, as the server does).
	PrecisionLevel int
	// Degraded marks rows detached from a planar-Laplace fallback entry.
	Degraded bool
	// Seed and RNGPos are the stream coordinates: the client's draw i
	// reads sample.Uniform(Seed, RNGPos+i), the variate the server's
	// session would have read there, RNGPos being where the session's
	// stream stood at detach time.
	Seed   int64
	RNGPos uint64
	// Pruned lists the leaves the policy's preferences removed (a draw at
	// one of them fails at leaf precision, matching the server).
	Pruned []loctree.NodeID
	// Nodes are the report outcomes, index-aligned with Rows; a drawn row
	// index names Nodes[i].
	Nodes []loctree.NodeID
	// Rows holds, per report row, the exact weight vector the server's
	// alias build consumes (len == len(Nodes) each). A nil/empty row is
	// unsampleable: degenerate after pruning, refused client-side without
	// consuming RNG.
	Rows [][]float64

	// arena is the array DecodeLeaseBundleInto carves non-empty rows from,
	// in order, kept for the next decode into this bundle.
	arena []float64
}

// uvarintLen is the encoded size of binary.AppendUvarint(nil, x).
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// varintLen is the encoded size of binary.AppendVarint(nil, x) (zig-zag).
func varintLen(x int64) int { return uvarintLen(uint64(x<<1) ^ uint64(x>>63)) }

func nodeLen(n loctree.NodeID) int {
	return varintLen(int64(n.Level)) + varintLen(int64(n.Coord.Q)) + varintLen(int64(n.Coord.R))
}

// rowEncoding picks a non-empty row's wire form, whichever of dense and
// sparse is smaller, and returns its kind, nonzero count and encoded size.
// Sparse pays ~1-2 varint bytes of column index per nonzero on top of the 8
// weight bytes; dense pays 8 per column, zero or not.
func rowEncoding(row []float64) (kind byte, nnz, size int) {
	for _, w := range row {
		if w != 0 {
			nnz++
		}
	}
	if 10*nnz >= 8*len(row) {
		return rowDense, nnz, 1 + 8*len(row)
	}
	size = 1 + uvarintLen(uint64(nnz)) + 8*nnz
	for j, w := range row {
		if w != 0 {
			size += uvarintLen(uint64(j))
		}
	}
	return rowSparse, nnz, size
}

// EncodeLeaseBundle packs a bundle into its binary form, in a buffer of
// its own sized exactly: the result is its only allocation.
func EncodeLeaseBundle(b *LeaseBundle) ([]byte, error) {
	return AppendLeaseBundle(nil, b)
}

// AppendLeaseBundle appends a bundle's binary form to dst. It only reads
// the bundle (whose slices may be views, see LeaseBundle) and sizes the
// encoding first: a dst with room for it is written in place and nothing
// is allocated, and a dst without room is copied once into a buffer that
// has exactly that room. On an error dst comes back as it was.
func AppendLeaseBundle(dst []byte, b *LeaseBundle) ([]byte, error) {
	n := len(b.Nodes)
	if n < 1 || n > MaxLeaseNodes {
		return dst, fmt.Errorf("codec: lease node count %d out of range [1, %d]", n, MaxLeaseNodes)
	}
	if len(b.Rows) != n {
		return dst, fmt.Errorf("codec: lease has %d rows for %d nodes", len(b.Rows), n)
	}
	size := len(leaseMagic) + 2 + uvarintLen(uint64(b.PrecisionLevel)) + nodeLen(b.Root) +
		varintLen(b.Seed) + uvarintLen(b.RNGPos) + uvarintLen(uint64(len(b.Pruned))) + uvarintLen(uint64(n))
	for _, p := range b.Pruned {
		size += nodeLen(p)
	}
	for _, nd := range b.Nodes {
		size += nodeLen(nd)
	}
	for i, row := range b.Rows {
		if len(row) == 0 {
			size++
			continue
		}
		if len(row) != n {
			return dst, fmt.Errorf("codec: lease row %d has %d weights for %d nodes", i, len(row), n)
		}
		_, _, rowSize := rowEncoding(row)
		size += rowSize
	}

	buf := dst
	if cap(buf)-len(buf) < size {
		buf = make([]byte, len(dst), len(dst)+size)
		copy(buf, dst)
	}
	buf = append(buf, leaseMagic...)
	buf = append(buf, leaseVersion)
	var flags byte
	if b.Degraded {
		flags |= leaseFlagDegraded
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(b.PrecisionLevel))
	buf = AppendNode(buf, b.Root)
	buf = binary.AppendVarint(buf, b.Seed)
	buf = binary.AppendUvarint(buf, b.RNGPos)
	buf = binary.AppendUvarint(buf, uint64(len(b.Pruned)))
	for _, p := range b.Pruned {
		buf = AppendNode(buf, p)
	}
	buf = binary.AppendUvarint(buf, uint64(n))
	for _, nd := range b.Nodes {
		buf = AppendNode(buf, nd)
	}
	for _, row := range b.Rows {
		if len(row) == 0 {
			buf = append(buf, rowEmpty)
			continue
		}
		kind, nnz, _ := rowEncoding(row)
		buf = append(buf, kind)
		if kind == rowSparse {
			buf = binary.AppendUvarint(buf, uint64(nnz))
			for j, w := range row {
				if w == 0 {
					continue
				}
				buf = binary.AppendUvarint(buf, uint64(j))
				buf = AppendF64(buf, w)
			}
		} else {
			for _, w := range row {
				buf = AppendF64(buf, w)
			}
		}
	}
	return buf, nil
}

// DecodeLeaseBundle unpacks an encoded bundle into a bundle of its own,
// validating every bound; a malformed input of any shape returns an error,
// never a panic or an oversized allocation.
func DecodeLeaseBundle(data []byte) (*LeaseBundle, error) {
	b := new(LeaseBundle)
	if err := DecodeLeaseBundleInto(b, data); err != nil {
		return nil, err
	}
	return b, nil
}

// DecodeLeaseBundleInto is DecodeLeaseBundle into b's storage: the pruned
// and report node lists, the row headers and the row arena of whatever b
// held before are reused when long enough, and grown when not, so decoding
// a bundle no larger than the last one allocates nothing. Every field is
// overwritten and nothing b held can show through: a row that is empty
// comes back nil and a sparse row is cleared before it is filled. On an
// error b holds nothing a caller may use, but keeps its storage.
func DecodeLeaseBundleInto(b *LeaseBundle, data []byte) error {
	c := NewCursor(data, "codec: lease bundle")
	if string(c.Raw(len(leaseMagic))) != leaseMagic {
		return fmt.Errorf("codec: not a lease bundle")
	}
	if ver := c.U8(); ver != leaseVersion {
		return fmt.Errorf("codec: lease bundle version %d unsupported", ver)
	}
	b.Degraded = c.U8()&leaseFlagDegraded != 0
	prec := c.Uvarint()
	if prec > 64 {
		return fmt.Errorf("codec: lease precision level %d out of range", prec)
	}
	b.PrecisionLevel = int(prec)
	b.Root = c.Node()
	b.Seed = c.Varint()
	b.RNGPos = c.Uvarint()
	// A node is three varints, at least three bytes.
	nPruned := c.Count(3)
	if nPruned > MaxLeaseNodes {
		return fmt.Errorf("codec: lease pruned count %d exceeds %d", nPruned, MaxLeaseNodes)
	}
	b.Pruned = slices.Grow(b.Pruned[:0], nPruned)[:nPruned]
	for i := range b.Pruned {
		b.Pruned[i] = c.Node()
	}
	n := c.Count(3)
	if err := c.Err(); err != nil {
		return err
	}
	if n < 1 || n > MaxLeaseNodes {
		return fmt.Errorf("codec: lease node count %d out of range [1, %d]", n, MaxLeaseNodes)
	}
	b.Nodes = slices.Grow(b.Nodes[:0], n)[:n]
	for i := range b.Nodes {
		b.Nodes[i] = c.Node()
	}
	// Non-empty rows are consecutive n-float pieces of an arena the bundle
	// keeps for the next decode into it. The arena grows by what the input
	// can pay for, never by what the header claims: when a row finds no
	// room, a new arena is made with room for the rows taken so far (they
	// stay where they are; the room is for the next decode) plus as many
	// more as the rest of the input could hold as dense rows (8n+1 bytes
	// each), at least one and at most the rows left, or as many again as
	// were taken if that is more. A bundle of dense rows, the common kind,
	// gets its n*n at once; a hostile one whose two-byte sparse rows each
	// demand n zeros gets room for a few rows at a time, as it pays for
	// them.
	used := 0
	take := func(i, bytesLeft int) []float64 {
		if cap(b.arena)-used < n {
			b.arena = make([]float64, used+min(n-i, max(1, bytesLeft/(8*n+1), used/n))*n)
		}
		row := b.arena[used : used+n : used+n]
		used += n
		return row
	}
	b.Rows = slices.Grow(b.Rows[:0], n)[:n]
	for i := 0; i < n && c.Err() == nil; i++ {
		b.Rows[i] = nil // empty: unsampleable, unless a kind below fills it
		bytesLeft := c.left()
		switch kind := c.U8(); kind {
		case rowEmpty:
		case rowDense:
			if c.left() < 8*n {
				return fmt.Errorf("codec: lease row %d truncated", i)
			}
			row := take(i, bytesLeft)
			for j := range row {
				row[j] = c.F64()
			}
			b.Rows[i] = row
		case rowSparse:
			nnz := c.Uvarint()
			if nnz > uint64(n) {
				return fmt.Errorf("codec: lease row %d claims %d entries for %d nodes", i, nnz, n)
			}
			row := take(i, bytesLeft)
			clear(row)
			for k := uint64(0); k < nnz; k++ {
				col := c.Uvarint()
				if col >= uint64(n) {
					return fmt.Errorf("codec: lease row %d column %d out of range", i, col)
				}
				row[col] = c.F64()
			}
			b.Rows[i] = row
		default:
			return fmt.Errorf("codec: lease row %d has unknown kind %d", i, kind)
		}
	}
	return c.Done()
}
