package codec

import (
	"compress/gzip"
	"io"
	"sync"
)

// gzipPool holds the compressors Gzip writes through. A gzip.Writer's
// deflate state is about 800 KB once it has written, more than a cold
// forest fetch allocates for anything else, and Reset returns a used one
// to the state gzip.NewWriter builds: same header, same level, no sticky
// error.
var gzipPool = sync.Pool{New: func() any { return gzip.NewWriter(nil) }}

// Gzip writes p to w as one gzip member at the default level, the bytes
// gzip.NewWriter(w) would write for p, through a pooled compressor. Every
// gzipped HTTP body (internal/proto) and every snapshot payload
// (internal/store) is compressed here. The compressor goes back to the
// pool after a failed write too: the next Reset clears its error.
func Gzip(w io.Writer, p []byte) error {
	gz := gzipPool.Get().(*gzip.Writer)
	defer gzipPool.Put(gz)
	gz.Reset(w)
	_, err := gz.Write(p)
	if cerr := gz.Close(); err == nil {
		err = cerr
	}
	return err
}
