package budget

// This file is the lease half of the budget package: where the Accountant
// enforces how much epsilon a user may spend, the Keyring proves how much
// they already paid. A draw lease pre-pays n draws' epsilon in one Charge
// and hands the client an HMAC-signed token binding everything the server
// must not re-trust the client about — user, region, subtree, prune
// budget, epsilon rate, draw cap, RNG position, expiry. The server keeps
// no per-lease state: a renewal presents the token, the HMAC proves the
// server issued it, and the carried RNG position lets an evicted session
// be rebuilt exactly where the leased stream ends. Keys are per-user
// (derived from one master secret via HMAC-SHA256, in the spirit of the
// Psiphon OSL key hierarchy), so one user's captured token material never
// verifies another user's leases.

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"corgi/internal/codec"
	"corgi/internal/loctree"
)

// ErrBadLeaseToken marks a lease token that fails verification: forged or
// tampered bytes, a wrong user's key, or an expired lease. The serving
// layer maps it to 403 Forbidden — unlike a budget rejection (429), the
// condition does not clear by waiting.
var ErrBadLeaseToken = errors.New("budget: invalid lease token")

// tokenMagic brands an encoded lease token.
const tokenMagic = "CGT1"

// tokenVersion is the current token layout version.
const tokenVersion = 1

// tagLen is the HMAC-SHA256 tag length appended to the token payload.
const tagLen = sha256.Size

// maxTokenFixed bounds an encoded token's size without its region bytes:
// magic, version, ten varints at their widest, the epsilon bits, the tag.
const maxTokenFixed = len(tokenMagic) + 1 + 10*binary.MaxVarintLen64 + 8 + tagLen

// LeaseToken is the signed claim a draw lease carries: the facts the
// server asserted at issuance and refuses to re-derive from client input.
type LeaseToken struct {
	// UID is the user the lease's epsilon was charged to; the token only
	// verifies under that user's derived key.
	UID int64
	// Region and Root name the shard and privacy subtree the leased rows
	// customize.
	Region string
	Root   loctree.NodeID
	// Delta is the prune budget (|S|) the leased binding was built with.
	Delta int
	// Eps is the per-draw epsilon rate charged (linear composition: the
	// lease pre-paid Eps x DrawCap).
	Eps float64
	// DrawCap is how many draws the lease pre-paid; the client-side
	// sampler refuses draws beyond it.
	DrawCap int
	// RNGPos is the draws-consumed position the leased window starts at;
	// RNGPos + DrawCap is where the user's stream continues after it.
	RNGPos uint64
	// IssuedAt / ExpiresAt bound the lease lifetime (Unix milliseconds).
	IssuedAt  int64
	ExpiresAt int64
}

// Expiry returns the token's expiry instant.
func (t LeaseToken) Expiry() time.Time { return time.UnixMilli(t.ExpiresAt) }

// appendTokenPayload serializes the signed portion of a token.
func appendTokenPayload(buf []byte, t LeaseToken) []byte {
	buf = append(buf, tokenMagic...)
	buf = append(buf, tokenVersion)
	buf = binary.AppendVarint(buf, t.UID)
	buf = codec.AppendString(buf, t.Region)
	buf = codec.AppendNode(buf, t.Root)
	buf = binary.AppendUvarint(buf, uint64(t.Delta))
	buf = codec.AppendF64(buf, t.Eps)
	buf = binary.AppendUvarint(buf, uint64(t.DrawCap))
	buf = binary.AppendUvarint(buf, t.RNGPos)
	buf = binary.AppendVarint(buf, t.IssuedAt)
	buf = binary.AppendVarint(buf, t.ExpiresAt)
	return buf
}

// decodeToken parses an encoded token, the signed payload followed by its
// tag, and returns the payload length: the tag is the last tagLen bytes.
// region is the region the caller expects the token to name: a token that
// names it shares that string instead of allocating one.
func decodeToken(data []byte, region string) (LeaseToken, int, error) {
	var t LeaseToken
	payloadLen := len(data) - tagLen
	if payloadLen < 0 {
		return t, 0, fmt.Errorf("%w: bad tag length", ErrBadLeaseToken)
	}
	c := codec.NewCursor(data[:payloadLen], "lease token")
	if string(c.Raw(len(tokenMagic))) != tokenMagic {
		return t, 0, fmt.Errorf("%w: bad magic", ErrBadLeaseToken)
	}
	if v := c.U8(); v != tokenVersion {
		return t, 0, fmt.Errorf("%w: version %d unsupported", ErrBadLeaseToken, v)
	}
	t.UID = c.Varint()
	named := c.Bytes()
	if len(named) > 256 {
		return t, 0, fmt.Errorf("%w: region length %d out of range", ErrBadLeaseToken, len(named))
	}
	t.Root = c.Node()
	t.Delta = int(c.Uvarint())
	t.Eps = c.F64()
	drawCap := c.Uvarint()
	t.RNGPos = c.Uvarint()
	t.IssuedAt = c.Varint()
	t.ExpiresAt = c.Varint()
	if err := c.Done(); err != nil {
		return t, 0, fmt.Errorf("%w: %v", ErrBadLeaseToken, err)
	}
	if drawCap > math.MaxInt32 {
		return t, 0, fmt.Errorf("%w: draw cap %d out of range", ErrBadLeaseToken, drawCap)
	}
	t.DrawCap = int(drawCap)
	if string(named) == region {
		t.Region = region
	} else {
		t.Region = string(named)
	}
	return t, payloadLen, nil
}

// DecodeLeaseToken parses a token WITHOUT authenticating it. Clients use
// it to read their own lease's cap and expiry; servers must only trust
// fields coming out of Keyring.Verify. region is the region the caller
// expects ("" for none): a token naming it shares that string.
func DecodeLeaseToken(data []byte, region string) (LeaseToken, error) {
	t, _, err := decodeToken(data, region)
	return t, err
}

// Keyring derives per-user lease-signing keys from one master secret and
// signs/verifies lease tokens with them.
type Keyring struct {
	master []byte
}

// NewKeyring builds a keyring over a non-empty master secret.
func NewKeyring(secret []byte) (*Keyring, error) {
	if len(secret) == 0 {
		return nil, fmt.Errorf("budget: keyring needs a non-empty secret")
	}
	return &Keyring{master: append([]byte(nil), secret...)}, nil
}

// userKey derives uid's signing key: HMAC-SHA256(master, uid). Capturing
// one user's tag material therefore never helps forging another user's.
func (k *Keyring) userKey(uid int64) [sha256.Size]byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(uid))
	return hmacSHA256(k.master, b[:])
}

// hmacSHA256 is RFC 2104 over sha256.Sum256: H((K ^ opad) || H((K ^ ipad)
// || msg)), a key longer than one block hashed first. It is byte for byte
// what crypto/hmac computes (TestSignMatchesCryptoHMAC holds it to that),
// but hmac.New reaches the hash through the hash.Hash interface, which puts
// two digests and their pads on the heap per MAC, twice per Sign and twice
// per Verify; Sum256 takes a plain slice, so everything here stays on the
// stack. Only a message too long for the inner buffer (a region name of
// several hundred bytes) allocates.
func hmacSHA256(key, msg []byte) [sha256.Size]byte {
	var pad [sha256.BlockSize]byte
	if len(key) > sha256.BlockSize {
		sum := sha256.Sum256(key)
		copy(pad[:], sum[:])
	} else {
		copy(pad[:], key)
	}
	var stack [sha256.BlockSize + 448]byte
	inner := stack[:0]
	if n := sha256.BlockSize + len(msg); n > len(stack) {
		inner = make([]byte, 0, n)
	}
	for _, b := range pad {
		inner = append(inner, b^0x36)
	}
	inner = append(inner, msg...)
	var outer [sha256.BlockSize + sha256.Size]byte
	for i, b := range pad {
		outer[i] = b ^ 0x5c
	}
	sum := sha256.Sum256(inner)
	copy(outer[sha256.BlockSize:], sum[:])
	return sha256.Sum256(outer[:])
}

// Sign encodes and signs a token under its user's derived key, in a buffer
// of its own: the token is its only allocation.
func (k *Keyring) Sign(t LeaseToken) []byte {
	return k.AppendSign(nil, t)
}

// AppendSign appends the signed token to dst. A dst whose spare capacity
// holds the longest token a region as long as t's can encode to (Sign's
// buffers do) is written in place, allocating nothing; a dst without that
// room is copied once into a buffer with exactly that room.
func (k *Keyring) AppendSign(dst []byte, t LeaseToken) []byte {
	if room := maxTokenFixed + len(t.Region); cap(dst)-len(dst) < room {
		buf := make([]byte, len(dst), len(dst)+room)
		copy(buf, dst)
		dst = buf
	}
	start := len(dst)
	dst = appendTokenPayload(dst, t)
	key := k.userKey(t.UID)
	tag := hmacSHA256(key[:], dst[start:])
	return append(dst, tag[:]...)
}

// Verify authenticates an encoded token and checks it against the clock:
// a tampered payload, a truncated tag, a key mismatch (wrong user or
// wrong server secret), or an expired lease all fail with
// ErrBadLeaseToken. Only a verified token's fields may be trusted.
//
// region, when given, is the region the caller expects the token to name.
// A token naming it shares that string and verifies without allocating; a
// token naming another region still verifies, with a Region string of its
// own, and the caller compares. The argument is optional only because
// bench/layers.go calls Verify(data, now).
func (k *Keyring) Verify(data []byte, now time.Time, region ...string) (LeaseToken, error) {
	var want string
	if len(region) > 0 {
		want = region[0]
	}
	t, off, err := decodeToken(data, want)
	if err != nil {
		return LeaseToken{}, err
	}
	key := k.userKey(t.UID)
	tag := hmacSHA256(key[:], data[:off])
	if !hmac.Equal(tag[:], data[off:]) {
		return LeaseToken{}, fmt.Errorf("%w: signature mismatch", ErrBadLeaseToken)
	}
	if now.UnixMilli() > t.ExpiresAt {
		return LeaseToken{}, fmt.Errorf("%w: lease expired %v ago",
			ErrBadLeaseToken, now.Sub(t.Expiry()).Round(time.Millisecond))
	}
	return t, nil
}
