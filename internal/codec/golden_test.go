package codec

import (
	"bytes"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata goldens")

// readGolden returns the hex golden at testdata/name.hex, first writing got
// there under -update.
func readGolden(t *testing.T, name string, got []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", name+".hex")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(hex.EncodeToString(got)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestLeaseBundleGolden pins a version-2 bundle with empty, dense and
// sparse rows to its recorded bytes.
func TestLeaseBundleGolden(t *testing.T) {
	got, err := EncodeLeaseBundle(testBundle())
	if err != nil {
		t.Fatal(err)
	}
	want := readGolden(t, "lease_bundle", got)
	if !bytes.Equal(got, want) {
		t.Fatalf("encoder wrote\n %x\nwant\n %x", got, want)
	}
	b, err := DecodeLeaseBundle(want)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := EncodeLeaseBundle(b); err != nil || !bytes.Equal(again, want) {
		t.Fatalf("decode+encode gave %x (err %v), want %x", again, err, want)
	}
}

// TestMatrixGolden pins a blob with dense and sparse rows the same way.
func TestMatrixGolden(t *testing.T) {
	m := sparseMatrix(7, 2, 3)
	for j := range m.Row(0) {
		m.Set(0, j, 1.0/7)
	}
	got, err := EncodeMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	want := readGolden(t, "matrix", got)
	if !bytes.Equal(got, want) {
		t.Fatalf("encoder wrote\n %x\nwant\n %x", got, want)
	}
	decoded, err := DecodeMatrix(want, 7)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := EncodeMatrix(decoded); err != nil || !bytes.Equal(again, want) {
		t.Fatalf("decode+encode gave %x (err %v), want %x", again, err, want)
	}
}
