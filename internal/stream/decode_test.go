package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"corgi/internal/codec"
	"corgi/internal/registry"
)

// allocatedBy reports the heap bytes one call of f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// decodeBody runs on a frame body the decoder its receiver runs, reqID
// included, and reports whether the receiver would accept it. A REPORTS
// body is read as handleReports reads it, minus the batch-size check.
func decodeBody(ftype byte, payload []byte) error {
	d := codec.NewCursor(payload, "body")
	d.U32()
	var err error
	switch ftype {
	case frameWelcome:
		return decodeWelcome(payload)
	case frameError:
		if err = decodeErrorFrame(payload); errors.As(err, new(*StatusError)) {
			return nil
		}
		return err
	case frameReport:
		_, err = decodeRequest(&d, nil)
	case frameReports:
		for range d.Count(minRequestLen) {
			if _, err = decodeRequest(&d, nil); err != nil {
				break
			}
		}
	case frameLease:
		_, _, _, err = decodeLeaseReq(&d, nil)
	case frameReportOK:
		_, err = decodeResponse(&d, "ra")
	case frameReportsOK:
		for range d.Count(minItemLen) {
			if _, err = decodeItem(&d, "ra"); err != nil {
				break
			}
		}
	case frameLeaseGrant:
		_, err = decodeLeaseGrant(&d)
	default:
		return nil
	}
	if err != nil {
		return err
	}
	return d.Done()
}

// requestHead is a REPORT body up to its predicate count: reqID, region
// "ra" and seven zero varints.
func requestHead() []byte {
	b := codec.AppendString(codec.AppendU32(nil, 7), "ra")
	return append(b, make([]byte, 7)...)
}

// TestDecodeCountsBoundedByBytes: a body whose count claims more elements
// than its remaining bytes can hold is refused before the count sizes
// anything. Each case ends in a count under every semantic cap, with the
// elements it claims missing or too short to be there.
func TestDecodeCountsBoundedByBytes(t *testing.T) {
	const reports = 1 << 18 // 256 KiB of padding claiming 8 MiB of reports
	reportOK := appendResult(codec.AppendU32(nil, 7), &registry.ReportResult{Region: "ra"})
	reportOK = binary.AppendUvarint(reportOK[:len(reportOK)-1], reports)
	reportOK = append(reportOK, make([]byte, reports)...)

	predicates := binary.AppendUvarint(requestHead(), maxPreferences)
	handoff := codec.AppendString(append(requestHead(), 0, reqFlagHandoff), "node-b")
	handoff = binary.AppendUvarint(append(handoff, 1), maxHandoffEvents)

	const bound = 16 << 10
	for _, tc := range []struct {
		name    string
		ftype   byte
		payload []byte
	}{
		{"REPORT_OK reports", frameReportOK, reportOK},
		{"REPORT predicates", frameReport, predicates},
		{"REPORT handoff events", frameReport, handoff},
	} {
		var err error
		got := allocatedBy(func() { err = decodeBody(tc.ftype, tc.payload) })
		if err == nil || got > bound {
			t.Errorf("%s: err %v, %d bytes allocated for a %d-byte body, want an error and <= %d",
				tc.name, err, got, len(tc.payload), bound)
		}
	}
}

// FuzzDecodeFrame feeds arbitrary bodies to every frame body decoder. None
// may panic; none may allocate more than a small multiple of its input (a
// claimed count is paid for by bytes, see Cursor.Count); and a REPORT body
// that decodes is one appendRequest writes, byte for byte.
func FuzzDecodeFrame(f *testing.F) {
	types := map[string]byte{"report": frameReport, "reports": frameReports, "report_ok": frameReportOK,
		"reports_ok": frameReportsOK, "error": frameError, "lease": frameLease, "lease_grant": frameLeaseGrant}
	for name, payload := range goldenFrames() {
		f.Add(types[name], payload)
	}
	f.Add(byte(frameWelcome), []byte{Version, 64, 100})
	f.Add(byte(frameReport), binary.AppendUvarint(requestHead(), maxPreferences))
	f.Fuzz(func(t *testing.T, ftype byte, payload []byte) {
		var err error
		if got, bound := allocatedBy(func() { err = decodeBody(ftype, payload) }), 24*len(payload)+16<<10; got > uint64(bound) {
			t.Fatalf("frame type %d: %d bytes allocated decoding a %d-byte body, bound %d", ftype, got, len(payload), bound)
		}
		if ftype != frameReport || err != nil {
			return
		}
		d := codec.NewCursor(payload, "REPORT")
		id := d.U32()
		req, _ := decodeRequest(&d, nil)
		if again := appendRequest(codec.AppendU32(nil, id), &req); !bytes.Equal(again, payload) {
			t.Fatalf("REPORT body\n %x\ndecodes to %+v, which encodes to\n %x", payload, req, again)
		}
	})
}
