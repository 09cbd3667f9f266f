package stream

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"testing"
	"testing/iotest"
	"time"

	"corgi/internal/codec"
	"corgi/internal/geo"
	"corgi/internal/loctree"
	"corgi/internal/policy"
	"corgi/internal/registry"
)

// rawFrame assembles one complete frame without the pooled-buffer path, so
// protocol tests control every byte.
func rawFrame(ftype byte, payload []byte) []byte {
	b := make([]byte, 4, 5+len(payload))
	b = append(b, ftype)
	b = append(b, payload...)
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	return b
}

// TestFrameReaderPartialDelivery feeds frames one byte per Read — the
// pathological TCP segmentation — and expects both to arrive intact.
func TestFrameReaderPartialDelivery(t *testing.T) {
	var wire []byte
	wire = append(wire, rawFrame(frameGoodbye, codec.AppendString(nil, "first"))...)
	wire = append(wire, rawFrame(frameError, []byte{1, 2, 3})...)

	fr := newFrameReader(iotest.OneByteReader(bytes.NewReader(wire)))
	ftype, payload, err := fr.next()
	if err != nil || ftype != frameGoodbye {
		t.Fatalf("frame 1: type %d, err %v", ftype, err)
	}
	d := codec.NewCursor(payload, "GOODBYE")
	if got := d.Str(); got != "first" || d.Done() != nil {
		t.Fatalf("frame 1 payload: %q", got)
	}
	ftype, payload, err = fr.next()
	if err != nil || ftype != frameError || !bytes.Equal(payload, []byte{1, 2, 3}) {
		t.Fatalf("frame 2: type %d payload %v err %v", ftype, payload, err)
	}
	if _, _, err = fr.next(); err != io.EOF {
		t.Fatalf("after last frame: %v", err)
	}
}

func TestFrameReaderRejectsMalformedHeaders(t *testing.T) {
	// Declared length beyond the bound: the reader refuses before buffering.
	huge := make([]byte, 4)
	binary.LittleEndian.PutUint32(huge, DefaultMaxFrameBytes+1)
	fr := newFrameReader(bytes.NewReader(huge))
	if _, _, err := fr.next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: %v", err)
	}

	// A full header followed by a short body is a torn connection, not EOF.
	torn := rawFrame(frameGoodbye, []byte("hello"))[:7]
	fr = newFrameReader(bytes.NewReader(torn))
	if _, _, err := fr.next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated body: %v", err)
	}

	// Zero-length frames carry no type byte.
	fr = newFrameReader(bytes.NewReader(make([]byte, 4)))
	if _, _, err := fr.next(); err == nil {
		t.Fatal("empty frame accepted")
	}
}

// TestRequestWireRoundTrip exercises every predicate kind through the
// request codec.
func TestRequestWireRoundTrip(t *testing.T) {
	req := Request{
		Region: "ra",
		Cell:   [2]int{-3, 7},
		UID:    42,
		Policy: policy.Policy{
			PrivacyLevel:   2,
			PrecisionLevel: 1,
			Preferences: []policy.Predicate{
				{Var: "home", Op: policy.OpNe, Val: policy.Bool(true)},
				{Var: "distance", Op: policy.OpLe, Val: policy.Number(5.5)},
				{Var: "kind", Op: policy.OpEq, Val: policy.String("bar")},
			},
		},
		Seed:  -9,
		Count: 3,
	}
	d := codec.NewCursor(appendRequest(nil, &req), "request")
	got, err := decodeRequest(&d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if got.Region != req.Region || got.Cell != req.Cell || got.UID != req.UID ||
		got.Seed != req.Seed || got.Count != req.Count ||
		got.PrivacyLevel != req.PrivacyLevel || got.PrecisionLevel != req.PrecisionLevel {
		t.Fatalf("round trip: %+v", got)
	}
	if len(got.Preferences) != 3 {
		t.Fatalf("preferences: %+v", got.Preferences)
	}
	for i, p := range got.Preferences {
		if p != req.Preferences[i] {
			t.Fatalf("preference %d: %+v != %+v", i, p, req.Preferences[i])
		}
	}
}

func frameTestRegistry(t *testing.T, names ...string) *registry.Registry {
	t.Helper()
	specs := make([]registry.Spec, len(names))
	for i, name := range names {
		specs[i] = registry.Spec{
			Name:      name,
			CenterLat: 37.765 + float64(i),
			CenterLng: -122.435,
			Height:    2, Iterations: 1, Targets: 3,
			UniformPriors: true,
		}
	}
	reg, err := registry.New(specs, registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func frameTestServer(t *testing.T) (*Server, string) {
	t.Helper()
	reg := frameTestRegistry(t, "ra")
	srv, err := NewServer(reg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })
	return srv, lis.Addr().String()
}

// TestRetryAfterRestartDialsFresh: a server restarted on its address leaves
// every pooled connection stale, so the one retry after the first fails
// must dial afresh. Taking the second pooled one fails too, and a cluster
// router then fails over to a stand-in.
func TestRetryAfterRestartDialsFresh(t *testing.T) {
	srv, addr := frameTestServer(t)
	c := NewClient(addr, ClientConfig{})
	defer c.Close()
	a, errA := c.dial()
	b, errB := c.dial()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	c.putConn(a)
	c.putConn(b)
	srv.Shutdown(context.Background())
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := NewServer(srv.reg, Config{})
	go again.Serve(lis)
	defer again.Close()

	before := c.Stats()
	_, err = c.Report(Request{Region: "ra", Policy: policy.Policy{PrivacyLevel: 1}})
	if after := c.Stats(); err != nil || after.Retries != before.Retries+1 || after.Dials != before.Dials+1 {
		t.Fatalf("report after the restart: %v; stats %+v, before it %+v", err, after, before)
	}
}

// TestServerSurvivesPartialFrameDelivery drives a real server connection
// one byte per write: handshake and a REPORT must still resolve.
func TestServerSurvivesPartialFrameDelivery(t *testing.T) {
	srv, addr := frameTestServer(t)
	reg := srv.reg
	sh, err := reg.Shard(context.Background(), "ra")
	if err != nil {
		t.Fatal(err)
	}
	leaf := sh.Server.Tree().LevelNodes(0)[0]

	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))

	writeByByte := func(b []byte) {
		t.Helper()
		for i := range b {
			if _, err := conn.Write(b[i : i+1]); err != nil {
				t.Fatalf("write byte %d/%d: %v", i, len(b), err)
			}
		}
	}
	hello := append([]byte(Magic), Version, Version)
	writeByByte(rawFrame(frameHello, hello))

	fr := newFrameReader(bufio.NewReader(conn))
	ftype, _, err := fr.next()
	if err != nil || ftype != frameWelcome {
		t.Fatalf("handshake: type %d, err %v", ftype, err)
	}

	req := Request{
		Region: "ra",
		Cell:   [2]int{leaf.Coord.Q, leaf.Coord.R},
		Policy: policy.Policy{PrivacyLevel: 1},
		Seed:   5, Count: 3,
	}
	payload := codec.AppendU32(nil, 7)
	payload = appendRequest(payload, &req)
	writeByByte(rawFrame(frameReport, payload))

	ftype, payload, err = fr.next()
	if err != nil || ftype != frameReportOK {
		t.Fatalf("REPORT answer: type %d, err %v", ftype, err)
	}
	d := codec.NewCursor(payload, "REPORT_OK")
	if id := d.U32(); id != 7 {
		t.Fatalf("reqID %d, want 7", id)
	}
	resp, err := decodeResponse(&d, req.Region, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Region != "ra" || len(resp.Reports) != 3 {
		t.Fatalf("response: %+v", resp)
	}
}

// TestServerRejectsOversizedFrame expects ERROR 413 with reqID 0 (a
// connection-level fault) and a closed connection after it.
func TestServerRejectsOversizedFrame(t *testing.T) {
	srv, addr := frameTestServer(t)
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))

	hello := append([]byte(Magic), Version, Version)
	if _, err := conn.Write(rawFrame(frameHello, hello)); err != nil {
		t.Fatal(err)
	}
	fr := newFrameReader(bufio.NewReader(conn))
	if ftype, _, err := fr.next(); err != nil || ftype != frameWelcome {
		t.Fatalf("handshake: type %d, err %v", ftype, err)
	}

	// A header declaring one byte past the bound: the server refuses on
	// the length prefix, before any body arrives.
	huge := make([]byte, 4)
	binary.LittleEndian.PutUint32(huge, DefaultMaxFrameBytes+1)
	if _, err := conn.Write(huge); err != nil {
		t.Fatal(err)
	}

	ftype, payload, err := fr.next()
	if err != nil || ftype != frameError {
		t.Fatalf("expected ERROR frame, got type %d, err %v", ftype, err)
	}
	d := codec.NewCursor(payload, "ERROR")
	if id := d.U32(); id != 0 {
		t.Fatalf("connection-level ERROR carries reqID %d, want 0", id)
	}
	var rej *registry.Rejection
	if err := decodeErrorFrame(payload); !errors.As(err, &rej) || rej.Status != 413 {
		t.Fatalf("ERROR decode: %v", err)
	}
	// The server closes after a connection-level fault.
	if _, _, err := fr.next(); err == nil {
		t.Fatal("connection still open after oversized frame")
	}
	if got := srv.Stats().Oversized; got != 1 {
		t.Fatalf("oversized counter %d, want 1", got)
	}
}

// TestDecodeResponseRegion: the decoded response names the region the
// server answered with. When those are the bytes the request named, it is
// the request's own string (no copy: TestRoundTripAllocationBudgets counts
// it); when the server filled in its default for a request that named
// none, it is the server's.
func TestDecodeResponseRegion(t *testing.T) {
	res := &registry.ReportResult{Facts: registry.Facts{Region: "ra", PrecisionLevel: 1},
		Reports: make([]loctree.NodeID, 2), Centers: make([]geo.LatLng, 2)}
	payload := appendResult(nil, res)
	for _, asked := range []string{"ra", "", "rab"} {
		d := codec.NewCursor(payload, "REPORT_OK")
		resp, err := decodeResponse(&d, asked, nil)
		if err == nil {
			err = d.Done()
		}
		if err != nil {
			t.Fatal(err)
		}
		if resp.Region != "ra" || len(resp.Reports) != 2 {
			t.Errorf("asked %q: decoded region %q, %d reports; served \"ra\", 2", asked, resp.Region, len(resp.Reports))
		}
	}
}

// scriptedServer is a stream server that answers the handshake and then
// each request frame with the frame answer writes for its type and reqID,
// so a test controls every byte a client decodes.
func scriptedServer(t *testing.T, answer func(ftype byte, reqID uint32) []byte) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				fr := newFrameReader(conn)
				if _, _, err := fr.next(); err != nil {
					return
				}
				conn.Write(rawFrame(frameWelcome, []byte{Version, 64, 100}))
				for {
					ftype, payload, err := fr.next()
					if err != nil || len(payload) < 4 {
						return
					}
					conn.Write(answer(ftype, binary.LittleEndian.Uint32(payload)))
				}
			}()
		}
	}()
	return lis.Addr().String()
}

// TestMalformedRefusalIsADecodeError: a refusal no server writes — a
// status outside 400-599, unknown flag bits, a headroom that is not
// finite, bytes after the message — comes back from the client as a decode
// error, in an ERROR frame and in a REPORTS_OK item alike, never as a
// *registry.Rejection a forwarding node would answer its own client with.
// A well-formed refusal comes back as itself.
func TestMalformedRefusalIsADecodeError(t *testing.T) {
	valid := registry.Rejection{Status: 429, Msg: "budget exhausted", EpsRemaining: 0.75, HasEps: true}
	withFlags := func(flags byte, tail []byte) []byte {
		return codec.AppendString(append(append(codec.AppendU16(nil, 429), flags), tail...), "spent")
	}
	cases := []struct {
		name string
		body []byte // after the reqID
		ok   bool
	}{
		{"valid", appendRejection(nil, valid), true},
		{"status 0", appendRejection(nil, registry.Rejection{Msg: "no status"}), false},
		{"status 200", appendRejection(nil, registry.Rejection{Status: 200, Msg: "fine"}), false},
		{"status 399", appendRejection(nil, registry.Rejection{Status: 399, Msg: "low"}), false},
		{"status 600", appendRejection(nil, registry.Rejection{Status: 600, Msg: "high"}), false},
		{"unknown flag bit", withFlags(errFlagEpsRemaining|2, codec.AppendF64(nil, 1)), false},
		{"NaN headroom", withFlags(errFlagEpsRemaining, codec.AppendF64(nil, math.NaN())), false},
		{"infinite headroom", withFlags(errFlagEpsRemaining, codec.AppendF64(nil, math.Inf(1))), false},
		{"trailing bytes", append(appendRejection(nil, valid), 0), false},
	}
	req := Request{Region: "ra", Policy: policy.Policy{PrivacyLevel: 1}}
	for _, tc := range cases {
		addr := scriptedServer(t, func(ftype byte, reqID uint32) []byte {
			if ftype == frameReports {
				items := codec.AppendUvarints(codec.AppendU32(nil, reqID), 1)
				return rawFrame(frameReportsOK, append(items, tc.body...))
			}
			return rawFrame(frameError, append(codec.AppendU32(nil, reqID), tc.body...))
		})
		c := NewClient(addr, ClientConfig{Timeout: 10 * time.Second})
		_, err := c.Report(req)
		var rej *registry.Rejection
		switch isRej := errors.As(err, &rej); {
		case tc.ok && (!isRej || *rej != valid):
			t.Errorf("%s ERROR: %v, want the refusal %+v", tc.name, err, valid)
		case !tc.ok && (err == nil || isRej):
			t.Errorf("%s ERROR: %v (%T), want a decode error", tc.name, err, err)
		}
		items, err := c.ReportBatch([]Request{req})
		switch {
		case tc.ok && (err != nil || len(items) != 1 || items[0].Rejection != valid):
			t.Errorf("%s item: %+v, %v, want the refusal %+v", tc.name, items, err, valid)
		case !tc.ok && err == nil:
			t.Errorf("%s item: decoded as %+v, want a decode error", tc.name, items)
		}
		c.Close()
	}
}
