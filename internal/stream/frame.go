package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// ErrFrameTooLarge marks a frame whose declared length exceeds
// DefaultMaxFrameBytes. The reader cannot trust anything after an oversized
// header, so the connection closes after reporting it.
var ErrFrameTooLarge = errors.New("stream: frame exceeds size limit")

// framePool recycles frame build buffers so the steady-state data path
// allocates nothing: every outgoing frame is assembled in a pooled buffer
// (header, type, payload) and written with one syscall.
var framePool = sync.Pool{
	New: func() interface{} {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// poolCap bounds what returns to the pool; a rare huge frame (maximal
// batch) should not pin megabytes behind a pool entry forever.
const poolCap = 1 << 20

func getFrame(ftype byte) *[]byte {
	bp := framePool.Get().(*[]byte)
	// Reserve the length prefix; finishFrame fills it once the payload is
	// complete.
	*bp = append((*bp)[:0], 0, 0, 0, 0, ftype)
	return bp
}

func putFrame(bp *[]byte) {
	if cap(*bp) <= poolCap {
		framePool.Put(bp)
	}
}

// finishFrame stamps the length prefix (type + payload) over the reserved
// header bytes and returns the complete frame.
func finishFrame(b []byte) []byte {
	binary.LittleEndian.PutUint32(b, uint32(len(b)-frameHeaderLen))
	return b
}

// frameReader reads length-prefixed frames from r into one persistent
// buffer, reused across frames — partial delivery is io.ReadFull's problem,
// and the steady state allocates nothing. The returned payload aliases the
// internal buffer and is valid only until the next call.
type frameReader struct {
	r   io.Reader
	buf []byte
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: r, buf: make([]byte, 4096)}
}

// next reads one frame, returning its type and payload.
func (fr *frameReader) next() (byte, []byte, error) {
	if _, err := io.ReadFull(fr.r, fr.buf[:frameHeaderLen]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(fr.buf)
	if n < 1 {
		return 0, nil, fmt.Errorf("stream: empty frame")
	}
	if n > DefaultMaxFrameBytes {
		return 0, nil, fmt.Errorf("%w: %d bytes (limit %d)", ErrFrameTooLarge, n, DefaultMaxFrameBytes)
	}
	if int(n) > len(fr.buf) {
		fr.buf = make([]byte, int(n))
	}
	body := fr.buf[:n]
	if _, err := io.ReadFull(fr.r, body); err != nil {
		// A short body after a full header is a torn connection.
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return body[0], body[1:], nil
}
