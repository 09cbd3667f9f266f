package codec

// Cursor and the appenders below are the one reader and the shared writers
// of every binary format the module decodes (see the package comment).
// Integers are little endian and varints are encoding/binary's in their
// shortest form: a cursor refuses an over-long varint, so whatever decodes
// re-encodes to the same bytes.

import (
	"encoding/binary"
	"fmt"
	"math"

	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
)

// Cursor is a bounds-checked reader over one encoded payload. The first
// malformed read latches an error and later reads return zero values, so a
// decoder reads field after field and checks Err once, where it is about to
// trust a value. Bytes and Raw return views into the payload, not copies.
type Cursor struct {
	b    []byte
	off  int
	what string
	err  error
}

// NewCursor starts a cursor at the beginning of b; what names the format
// in its errors.
func NewCursor(b []byte, what string) Cursor { return Cursor{b: b, what: what} }

// fail latches a malformed-read error, unless one is latched already, and
// empties the cursor, so that every later read fails its own bounds check
// and returns a zero value.
func (c *Cursor) fail(field string) {
	if c.err == nil {
		c.err = &readError{what: c.what, field: field, at: c.off}
	}
	c.b, c.off = nil, 0
}

// readError is a read that ran past the input or met a malformed varint.
// Its message is formatted in Error, not in fail: that keeps fail, and so
// each fixed-width read, within the compiler's inlining budget, which is
// what lets a matrix blob's four-byte entries decode without a call each.
type readError struct {
	what, field string
	at          int
}

func (e *readError) Error() string {
	return fmt.Sprintf("%s: truncated or malformed %s at byte %d", e.what, e.field, e.at)
}

// Err returns the latched error, nil while every read has succeeded.
func (c *Cursor) Err() error { return c.err }

// left is how many bytes are left to read.
func (c *Cursor) left() int { return len(c.b) - c.off }

// Done returns the latched error, or an error when bytes are left over:
// every format here is decoded whole.
func (c *Cursor) Done() error {
	if c.off != len(c.b) {
		c.err = fmt.Errorf("%s: %d trailing bytes", c.what, len(c.b)-c.off)
	}
	return c.err
}

// Raw returns the next n bytes.
func (c *Cursor) Raw(n int) []byte {
	if n > c.left() {
		c.fail("bytes")
		return nil
	}
	v := c.b[c.off : c.off+n]
	c.off += n
	return v
}

// U8 reads one byte.
func (c *Cursor) U8() byte {
	if c.off >= len(c.b) {
		c.fail("byte")
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

// U16 reads a little-endian uint16.
func (c *Cursor) U16() uint16 {
	if len(c.b)-c.off < 2 {
		c.fail("uint16")
		return 0
	}
	v := binary.LittleEndian.Uint16(c.b[c.off:])
	c.off += 2
	return v
}

// U32 reads a little-endian uint32.
func (c *Cursor) U32() uint32 {
	if len(c.b)-c.off < 4 {
		c.fail("uint32")
		return 0
	}
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}

// F64 reads a float64 from its little-endian IEEE-754 bits, exactly.
func (c *Cursor) F64() float64 {
	if len(c.b)-c.off < 8 {
		c.fail("float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(c.b[c.off:]))
	c.off += 8
	return v
}

// uvarint reads a varint's unsigned bits, refusing one that is truncated,
// overflows 64 bits, or is longer than its value needs (a last byte of
// zero).
func (c *Cursor) uvarint(field string) uint64 {
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 || n > 1 && c.b[c.off+n-1] == 0 {
		c.fail(field)
		return 0
	}
	c.off += n
	return v
}

// Uvarint reads an unsigned varint.
func (c *Cursor) Uvarint() uint64 { return c.uvarint("uvarint") }

// Varint reads a zig-zag signed varint.
func (c *Cursor) Varint() int64 {
	u := c.uvarint("varint")
	return int64(u>>1) ^ -int64(u&1)
}

// Count reads a uvarint element count and refuses it when the bytes left
// cannot hold that many elements of at least minLen bytes each. A decoder
// that sizes an allocation by the count therefore never allocates for more
// elements than its input paid for; what a format allows beyond that (a
// semantic cap) its decoder checks after.
func (c *Cursor) Count(minLen int) int {
	at := c.off
	n := c.Uvarint()
	if rest := c.left(); n > uint64(rest/minLen) {
		c.err = fmt.Errorf("%s: count %d at byte %d exceeds what the %d bytes left can hold", c.what, n, at, rest)
		c.b, c.off = nil, 0
		return 0
	}
	return int(n)
}

// Bytes reads a uvarint length-prefixed byte string, the form AppendString
// writes. The slice aliases the payload and must not outlive it.
func (c *Cursor) Bytes() []byte {
	n := c.Uvarint()
	if n > uint64(c.left()) {
		c.fail("string")
		return nil
	}
	return c.Raw(int(n))
}

// Str reads a length-prefixed string into a string of its own.
func (c *Cursor) Str() string { return string(c.Bytes()) }

// Node reads a tree node as AppendNode writes it.
func (c *Cursor) Node() loctree.NodeID {
	return loctree.NodeID{Level: int(c.Varint()), Coord: hexgrid.Coord{Q: int(c.Varint()), R: int(c.Varint())}}
}

// AppendString appends s with a uvarint length prefix, the form Bytes and
// Str read.
func AppendString[S string | []byte](b []byte, s S) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendU16 appends v little endian.
func AppendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }

// AppendU32 appends v little endian.
func AppendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// AppendUvarints appends each of vs as a uvarint.
func AppendUvarints(b []byte, vs ...uint64) []byte {
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// AppendF64 appends f's IEEE-754 bits little endian, the form F64 reads.
func AppendF64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendNode appends a tree node as three varints (level, q, r), the form
// Node reads. Lease bundles, lease tokens and LEASE_GRANT frames carry
// nodes this way.
func AppendNode(b []byte, n loctree.NodeID) []byte {
	b = binary.AppendVarint(b, int64(n.Level))
	b = binary.AppendVarint(b, int64(n.Coord.Q))
	return binary.AppendVarint(b, int64(n.Coord.R))
}
