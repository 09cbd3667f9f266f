package budget

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"strings"
	"testing"
	"time"

	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
)

func testToken(now time.Time) LeaseToken {
	return LeaseToken{
		UID:       42,
		Region:    "porto",
		Root:      loctree.NodeID{Level: 2, Coord: hexgrid.Coord{Q: -1, R: 3}},
		Delta:     5,
		Eps:       1.6,
		DrawCap:   256,
		RNGPos:    1024,
		IssuedAt:  now.UnixMilli(),
		ExpiresAt: now.Add(time.Minute).UnixMilli(),
	}
}

func TestLeaseTokenRoundTrip(t *testing.T) {
	now := time.Unix(1700000000, 0)
	kr, err := NewKeyring([]byte("test-master-secret"))
	if err != nil {
		t.Fatal(err)
	}
	want := testToken(now)
	data := kr.Sign(want)

	got, err := kr.Verify(data, now)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("verified token = %+v want %+v", got, want)
	}
	// Unauthenticated decode (the client-side read path) sees the same
	// fields.
	dec, err := DecodeLeaseToken(data)
	if err != nil {
		t.Fatal(err)
	}
	if dec != want {
		t.Fatalf("decoded token = %+v want %+v", dec, want)
	}
}

func TestLeaseTokenForgeryRejected(t *testing.T) {
	now := time.Unix(1700000000, 0)
	kr, err := NewKeyring([]byte("test-master-secret"))
	if err != nil {
		t.Fatal(err)
	}
	data := kr.Sign(testToken(now))

	// Flipping any single byte — payload or tag — must fail verification.
	for i := range data {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x40
		if _, err := kr.Verify(bad, now); err == nil {
			t.Fatalf("token with byte %d flipped verified", i)
		}
	}
	// A different master secret (wrong server) must fail too.
	other, err := NewKeyring([]byte("a-different-secret"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Verify(data, now); err == nil {
		t.Fatal("token verified under a foreign keyring")
	}
	// Truncated tag.
	if _, err := kr.Verify(data[:len(data)-1], now); err == nil {
		t.Fatal("token with truncated tag verified")
	}
}

func TestLeaseTokenCrossUserKeyIsolation(t *testing.T) {
	now := time.Unix(1700000000, 0)
	kr, err := NewKeyring([]byte("test-master-secret"))
	if err != nil {
		t.Fatal(err)
	}
	tok := testToken(now)
	data := kr.Sign(tok)
	// Re-signing the same claims under another UID produces a different
	// tag: per-user derived keys, not one shared key.
	tok2 := tok
	tok2.UID = 43
	data2 := kr.Sign(tok2)
	if string(data[len(data)-tagLen:]) == string(data2[len(data2)-tagLen:]) {
		t.Fatal("two users' tokens share an HMAC tag")
	}
}

func TestLeaseTokenExpiry(t *testing.T) {
	now := time.Unix(1700000000, 0)
	kr, err := NewKeyring([]byte("test-master-secret"))
	if err != nil {
		t.Fatal(err)
	}
	tok := testToken(now)
	data := kr.Sign(tok)
	// Valid right up to the expiry instant, rejected one millisecond past.
	if _, err := kr.Verify(data, tok.Expiry()); err != nil {
		t.Fatalf("token rejected at expiry instant: %v", err)
	}
	if _, err := kr.Verify(data, tok.Expiry().Add(time.Millisecond)); err == nil {
		t.Fatal("expired token verified")
	}
}

// TestSignMatchesCryptoHMAC holds the package's own RFC 2104 construction to
// crypto/hmac's output, byte for byte, over random tokens and over master
// secrets on every side of SHA-256's 64-byte block (a longer key is hashed
// first). The second half pins the wire across commits: a token signed by
// the hmac.New code this construction replaced still verifies.
func TestSignMatchesCryptoHMAC(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, secretLen := range []int{1, 32, 64, 100} {
		secret := make([]byte, secretLen)
		rng.Read(secret)
		kr, err := NewKeyring(secret)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			tok := LeaseToken{
				UID:       rng.Int63() - rng.Int63(),
				Region:    strings.Repeat("r", rng.Intn(40)),
				Root:      loctree.NodeID{Level: rng.Intn(4), Coord: hexgrid.Coord{Q: rng.Intn(99) - 49, R: rng.Intn(99) - 49}},
				Delta:     rng.Intn(50),
				Eps:       rng.Float64() * 20,
				DrawCap:   1 + rng.Intn(1<<16),
				RNGPos:    rng.Uint64(),
				IssuedAt:  rng.Int63(),
				ExpiresAt: rng.Int63(),
			}
			if i == 0 {
				// Too long for the inner hash's stack buffer.
				tok.Region = strings.Repeat("x", 600)
			}
			var uid [8]byte
			binary.LittleEndian.PutUint64(uid[:], uint64(tok.UID))
			derive := hmac.New(sha256.New, secret)
			derive.Write(uid[:])
			payload := appendTokenPayload(nil, tok)
			mac := hmac.New(sha256.New, derive.Sum(nil))
			mac.Write(payload)
			if got, want := kr.Sign(tok), mac.Sum(payload); !bytes.Equal(got, want) {
				t.Fatalf("secret of %d bytes, token %d: Sign = %x, crypto/hmac = %x", secretLen, i, got, want)
			}
		}
	}

	const parentToken = "43475431015405706f72746f040106059a9999999999f93f8002800880a0abfef962c0c9b2fef962" +
		"9844130cb7bd20703be04ff60a566a63d757c3f1cfb29bad248acf6538539f51"
	data, err := hex.DecodeString(parentToken)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1700000000, 0)
	kr, err := NewKeyring([]byte("test-master-secret"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := kr.Verify(data, now)
	if err != nil {
		t.Fatalf("token signed at the parent commit: %v", err)
	}
	if want := testToken(now); got != want {
		t.Fatalf("parent token verified as %+v, want %+v", got, want)
	}
	if resigned := kr.Sign(got); !bytes.Equal(resigned, data) {
		t.Fatalf("re-signing the parent token's claims gives %x, want %x", resigned, data)
	}
}

func TestNewKeyringRejectsEmptySecret(t *testing.T) {
	if _, err := NewKeyring(nil); err == nil {
		t.Fatal("empty secret accepted")
	}
}

func FuzzDecodeLeaseToken(f *testing.F) {
	now := time.Unix(1700000000, 0)
	kr, err := NewKeyring([]byte("test-master-secret"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(kr.Sign(testToken(now)))
	f.Add([]byte("CGT1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tok, err := DecodeLeaseToken(data)
		if err != nil {
			return
		}
		if tok.DrawCap < 0 || len(tok.Region) > 256 {
			t.Fatalf("decoded token violates bounds: %+v", tok)
		}
		// Whatever decodes can be signed, and what was signed verifies to
		// the same claims (compared as signed bytes: a NaN rate is not == itself).
		signed := kr.Sign(tok)
		got, err := kr.Verify(signed, tok.Expiry())
		if err != nil {
			t.Fatalf("Verify(Sign(%+v)): %v", tok, err)
		}
		if !bytes.Equal(kr.Sign(got), signed) {
			t.Fatalf("Verify(Sign(t)) = %+v, want %+v", got, tok)
		}
	})
}
