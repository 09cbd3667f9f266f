package codec

import (
	"bytes"
	"compress/gzip"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"corgi/internal/raceon"
)

// forestBody is about the size and mix of a gzipped forest response: JSON
// structure around base64 matrix blobs.
func forestBody() []byte {
	rng := rand.New(rand.NewSource(1))
	blob := make([]byte, 48)
	var b bytes.Buffer
	for i := 0; i < 2000; i++ {
		rng.Read(blob)
		fmt.Fprintf(&b, `{"root":[%d,%d],"dim":49,"data":%q},`, i%7, -i%11, base64.StdEncoding.EncodeToString(blob))
	}
	return b.Bytes()
}

// errWriter accepts left bytes, then refuses every write.
type errWriter struct{ left int }

func (w *errWriter) Write(p []byte) (int, error) {
	if len(p) > w.left {
		n := w.left
		w.left = 0
		return n, errors.New("write refused")
	}
	w.left -= len(p)
	return len(p), nil
}

// TestGzipReusedWriterMatchesFresh: the pooled compressor goes back to the
// pool after a write that failed inside the compressed stream, and a
// writer reused after that failure, or after a good write, writes what a
// fresh gzip.NewWriter writes. Forest ETags and snapshot checksums are
// over these bytes.
func TestGzipReusedWriterMatchesFresh(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection would empty the pool
	// One P: sync.Pool.Put parks the writer in this P's private slot, which
	// a Get on another P cannot take.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	body := forestBody()
	var want bytes.Buffer
	fresh := gzip.NewWriter(&want)
	fresh.Write(body)
	if err := fresh.Close(); err != nil {
		t.Fatal(err)
	}

	pooled := gzipPool.Get().(*gzip.Writer)
	gzipPool.Put(pooled)
	// The 10-byte header goes through; the compressed blocks do not.
	if err := Gzip(&errWriter{left: 100}, body); err == nil {
		t.Fatal("a refused write reported no error")
	}
	for _, after := range []string{"a failed write", "a good write"} {
		if !raceon.Enabled { // the race detector makes sync.Pool drop a share of what is Put
			gz := gzipPool.Get().(*gzip.Writer)
			gzipPool.Put(gz)
			if gz != pooled {
				t.Fatalf("after %s the pool handed out another writer", after)
			}
		}
		var got bytes.Buffer
		if err := Gzip(&got, body); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("a writer reused after %s wrote %d bytes that differ from a fresh writer's %d", after, got.Len(), want.Len())
		}
	}
}

// TestGzipAllocationBudget: a primed Gzip of a forest-sized body allocates
// at most a few KB, where a new gzip.Writer allocates about 800 KB.
func TestGzipAllocationBudget(t *testing.T) {
	if raceon.Enabled {
		t.Skip("under the race detector sync.Pool drops a share of what is Put")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	body := forestBody()
	perOp := func(f func()) uint64 {
		f()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 10
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	pooled := perOp(func() { Gzip(io.Discard, body) })
	fresh := perOp(func() {
		gz := gzip.NewWriter(io.Discard)
		gz.Write(body)
		gz.Close()
	})
	t.Logf("%d-byte body: pooled %d B/op, new writer %d B/op", len(body), pooled, fresh)
	if pooled > 4<<10 {
		t.Errorf("a primed Gzip allocates %d B/op, budget 4 KiB", pooled)
	}
}
