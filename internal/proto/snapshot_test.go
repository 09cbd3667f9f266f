package proto

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"testing"

	"corgi/internal/core"
	"corgi/internal/registry"
	"corgi/internal/store"
)

// TestStoreSnapshotKeysStayInsideTheStore: a spec hash names a directory,
// and the snapshot route takes it from the query string, so a hash that is
// a path ("../../../etc/./." is as long as a directory name) must be
// refused by every store entry and answered 400 by the route before it
// reaches the filesystem, while a stored snapshot is served byte for byte.
func TestStoreSnapshotKeysStayInsideTheStore(t *testing.T) {
	root := t.TempDir()
	st, err := store.Open(filepath.Join(root, "a", "b", "store"))
	if err != nil {
		t.Fatal(err)
	}
	// What the traversal would reach: a snapshot-named file three levels up.
	outside := filepath.Join(root, "etc")
	if err := os.MkdirAll(outside, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(outside, "L1_d0.snap"), []byte("outside the store"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg, err := registry.New([]registry.Spec{{Name: "sf", CenterLat: 37.765, CenterLng: -122.435}}, registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewMultiHandler(reg)
	if err != nil {
		t.Fatal(err)
	}
	h.Store = st
	ts := httptest.NewServer(h.Mux())
	defer ts.Close()
	route := func(hash string) (int, string) {
		resp, err := http.Get(ts.URL + "/v1/store/snapshot?spec=" + url.QueryEscape(hash) + "&level=1&delta=0")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	const good = "0123456789abcdef0123456789abcdef"
	if err := st.Save(&store.Snapshot{SpecHash: good, PrivacyLevel: 1, Entries: []core.CompactEntry{{Dim: 1}}}); err != nil {
		t.Fatal(err)
	}
	raw, err := st.LoadRaw(store.Key{SpecHash: good, Level: 1})
	if err != nil {
		t.Fatal(err)
	}
	if status, body := route(good); status != http.StatusOK || body != string(raw) {
		t.Errorf("stored snapshot: route answered %d with %d bytes, want 200 with the file's %d", status, len(body), len(raw))
	}
	if status, _ := route("fedcba9876543210fedcba9876543210"); status != http.StatusNotFound {
		t.Errorf("well-formed hash nobody stored: route answered %d, want 404", status)
	}

	for _, hash := range []string{
		"../../../etc/./.",
		"../../../etc/./.0123456789abcdef",
		"0123456789abcde/0123456789abcdef",
		`0123456789abcde\0123456789abcdef`,
		"0123456789ABCDEF0123456789abcdef",
		"0123456789abcde.0123456789abcdef",
		"0123456789abcde",
		"",
	} {
		k := store.Key{SpecHash: hash, Level: 1}
		if snap, err := st.Load(k); err == nil || store.IsNotFound(err) {
			t.Errorf("Load(%q) = %v, %v; want a key error", hash, snap, err)
		}
		if raw, err := st.LoadRaw(k); err == nil || store.IsNotFound(err) {
			t.Errorf("LoadRaw(%q) = %q, %v; want a key error", hash, raw, err)
		}
		if err := st.Save(&store.Snapshot{SpecHash: hash, PrivacyLevel: 1, Entries: []core.CompactEntry{{Dim: 1}}}); err == nil {
			t.Errorf("Save under %q succeeded", hash)
		}
		if status, body := route(hash); status != http.StatusBadRequest {
			t.Errorf("route with spec=%q answered %d %q, want 400", hash, status, body)
		}
	}
	if got, _ := os.ReadDir(outside); len(got) != 1 {
		t.Errorf("a refused Save left %d files outside the store, want the 1 planted", len(got))
	}
}
