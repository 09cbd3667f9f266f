package stream

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"corgi/internal/codec"
	"corgi/internal/registry"
)

// ErrServerClosed is returned by Serve after Shutdown or Close, mirroring
// http.ErrServerClosed so callers can treat a drained listener as clean.
var ErrServerClosed = errors.New("stream: server closed")

// handshakeTimeout bounds how long a fresh connection may sit before
// completing HELLO; slots are cheap but not free.
const handshakeTimeout = 10 * time.Second

// Config tunes a stream Server's framing. What a request may ask for — draw
// counts, batch sizes — is the registry's to decide (registry.Options), so
// both transports enforce the same limits by holding none.
type Config struct {
	// Timeout bounds each frame's report work (the whole batch for
	// REPORTS); zero means no per-frame deadline.
	Timeout time.Duration
}

// Stats is a point-in-time snapshot of a stream server's counters,
// merged into GET /v1/stats alongside the engine and session counters.
type Stats struct {
	// ConnsTotal counts accepted connections over the server's lifetime;
	// ConnsActive is the live count. Handshakes counts completed HELLO/
	// WELCOME negotiations (a port scanner accepts but never negotiates).
	ConnsTotal  uint64 `json:"conns_total"`
	ConnsActive int64  `json:"conns_active"`
	Handshakes  uint64 `json:"handshakes"`
	FramesIn    uint64 `json:"frames_in"`
	FramesOut   uint64 `json:"frames_out"`
	BytesIn     uint64 `json:"bytes_in"`
	BytesOut    uint64 `json:"bytes_out"`
	// Reports counts resolved report requests (batch items included via
	// BatchItems; Batches counts REPORTS frames).
	Reports    uint64 `json:"reports"`
	Batches    uint64 `json:"batches"`
	BatchItems uint64 `json:"batch_items"`
	// Leases counts granted LEASE frames (the registry's lease counters
	// track issuance across transports; this is the stream's share).
	Leases uint64 `json:"leases"`
	// ErrorFrames counts ERROR frames sent (application rejections and
	// protocol faults alike); Oversized counts frames refused for size.
	ErrorFrames uint64 `json:"error_frames"`
	Oversized   uint64 `json:"oversized_frames"`
	// GoodbyesSent counts drain notices sent during Shutdown.
	GoodbyesSent uint64 `json:"goodbyes_sent"`
}

// Server speaks the corgi-stream protocol over raw TCP listeners,
// answering every report from the same Registry.Report pipeline the HTTP
// routes use — session re-anchoring, epsilon accounting, and error
// classes are identical across transports by construction.
type Server struct {
	reg *registry.Registry
	cfg Config

	// handler answers report and lease asks; it defaults to the registry
	// and is swapped for the cluster router on clustered nodes (SetHandler)
	// so non-owned users forward instead of serving locally.
	handler atomic.Pointer[registry.ReportHandler]

	// interned maps region-name bytes to the registry's canonical spec
	// names, so the per-frame decode of a known region allocates nothing.
	interned map[string]string

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*serverConn]struct{}
	closed    bool

	connWG   sync.WaitGroup // one per accepted connection
	inflight sync.WaitGroup // one per frame being processed

	connsTotal  atomic.Uint64
	connsActive atomic.Int64
	handshakes  atomic.Uint64
	framesIn    atomic.Uint64
	framesOut   atomic.Uint64
	bytesIn     atomic.Uint64
	bytesOut    atomic.Uint64
	reports     atomic.Uint64
	batches     atomic.Uint64
	batchItems  atomic.Uint64
	leases      atomic.Uint64
	errorFrames atomic.Uint64
	oversized   atomic.Uint64
	goodbyes    atomic.Uint64
}

// NewServer wires a region registry into a stream server.
func NewServer(reg *registry.Registry, cfg Config) (*Server, error) {
	if reg == nil {
		return nil, fmt.Errorf("stream: nil registry")
	}
	s := &Server{
		reg:       reg,
		cfg:       cfg,
		interned:  make(map[string]string),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[*serverConn]struct{}),
	}
	// The region set is fixed at registry construction, so the intern
	// table is immutable after this loop — lookups need no lock. The empty
	// name aliases the default region, matching the HTTP routes.
	for _, name := range reg.Names() {
		s.interned[name] = name
	}
	s.interned[""] = ""
	var h registry.ReportHandler = reg
	s.handler.Store(&h)
	return s, nil
}

// SetHandler replaces the serving surface (default: the registry). The
// cluster router installs itself here during wiring, before Serve.
func (s *Server) SetHandler(h registry.ReportHandler) { s.handler.Store(&h) }

// intern returns the canonical string for a region name's bytes without
// allocating for known regions (the map lookup with a string(b) key does
// not escape). Unknown names allocate and then fail resolution with 404.
func (s *Server) intern(b []byte) string {
	if name, ok := s.interned[string(b)]; ok {
		return name
	}
	return string(b)
}

// serverConn is one accepted connection's state.
type serverConn struct {
	srv  *Server
	conn net.Conn

	// wmu serializes frame writes: the conn's own responses interleave
	// with Shutdown's GOODBYE from another goroutine.
	wmu sync.Mutex
}

func (sc *serverConn) writeFrame(bp *[]byte) error {
	b := finishFrame(*bp)
	sc.wmu.Lock()
	n, err := sc.conn.Write(b)
	sc.wmu.Unlock()
	sc.srv.bytesOut.Add(uint64(n))
	sc.srv.framesOut.Add(1)
	putFrame(bp)
	return err
}

// Serve accepts connections on lis until Shutdown or Close, then returns
// ErrServerClosed. One server may serve several listeners.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		lis.Close()
		return ErrServerClosed
	}
	s.listeners[lis] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, lis)
		s.mu.Unlock()
	}()
	for {
		conn, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		sc := &serverConn{srv: s, conn: conn}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		s.conns[sc] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		s.connsTotal.Add(1)
		s.connsActive.Add(1)
		go func() {
			defer s.connWG.Done()
			defer s.connsActive.Add(-1)
			defer func() {
				s.mu.Lock()
				delete(s.conns, sc)
				s.mu.Unlock()
				conn.Close()
			}()
			s.serveConn(sc)
		}()
	}
}

// countingReader feeds the frame reader while accounting received bytes.
type countingReader struct {
	r io.Reader
	n *atomic.Uint64
}

func (c countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(uint64(n))
	return n, err
}

// serveConn runs one connection: handshake, then frames in FIFO order.
// Processing is sequential per connection — that ordering is the session
// stickiness contract: one user's pipelined reports on one connection
// resolve in send order, so their draw sequence replays deterministically.
func (s *Server) serveConn(sc *serverConn) {
	fr := newFrameReader(bufio.NewReaderSize(countingReader{r: sc.conn, n: &s.bytesIn}, 64<<10))
	if !s.handshake(sc, fr) {
		return
	}
	for {
		ftype, payload, err := fr.next()
		if err != nil {
			if errors.Is(err, ErrFrameTooLarge) {
				s.oversized.Add(1)
				s.sendError(sc, 0, registry.Rejection{Status: 413, Msg: err.Error()})
			}
			return
		}
		s.framesIn.Add(1)
		switch ftype {
		case frameReport:
			s.handleReport(sc, payload)
		case frameReports:
			s.handleReports(sc, payload)
		case frameLease:
			s.handleLease(sc, payload)
		case frameGoodbye:
			return
		default:
			s.sendError(sc, 0, registry.Rejection{Status: 400, Msg: fmt.Sprintf("stream: unexpected frame type %d", ftype)})
			return
		}
	}
}

// handshake validates HELLO and answers WELCOME. Connection-level
// failures answer an ERROR frame with reqID 0 and close.
func (s *Server) handshake(sc *serverConn, fr *frameReader) bool {
	sc.conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	ftype, payload, err := fr.next()
	if err != nil {
		if errors.Is(err, ErrFrameTooLarge) {
			s.oversized.Add(1)
			s.sendError(sc, 0, registry.Rejection{Status: 413, Msg: err.Error()})
		}
		return false
	}
	s.framesIn.Add(1)
	fail := func(msg string) bool {
		s.sendError(sc, 0, registry.Rejection{Status: 400, Msg: msg})
		return false
	}
	if ftype != frameHello {
		return fail(fmt.Sprintf("stream: expected HELLO, got frame type %d", ftype))
	}
	if len(payload) != len(Magic)+2 || string(payload[:len(Magic)]) != Magic {
		return fail("stream: bad HELLO magic")
	}
	minVer, maxVer := payload[len(Magic)], payload[len(Magic)+1]
	if minVer > Version || maxVer < Version {
		return fail(fmt.Sprintf("stream: no common version in [%d, %d], server speaks %d", minVer, maxVer, Version))
	}
	sc.conn.SetReadDeadline(time.Time{})
	bp := getFrame(frameWelcome)
	*bp = append(*bp, Version)
	maxBatch, maxCount := s.reg.Limits()
	*bp = codec.AppendUvarints(*bp, uint64(maxBatch), uint64(maxCount))
	if sc.writeFrame(bp) != nil {
		return false
	}
	s.handshakes.Add(1)
	return true
}

// frameCtx applies the configured per-frame deadline. With none configured
// nothing could ever cancel a per-frame context, so none is built.
func (s *Server) frameCtx() (context.Context, context.CancelFunc) {
	if s.cfg.Timeout > 0 {
		return context.WithTimeout(context.Background(), s.cfg.Timeout)
	}
	return context.Background(), func() {}
}

// badFrame answers a request frame that did not decode.
func (s *Server) badFrame(sc *serverConn, reqID uint32, err error) {
	s.sendError(sc, reqID, registry.Rejection{Status: 400, Msg: err.Error()})
}

// handleReport answers one REPORT frame: decode, ask the handler, encode.
func (s *Server) handleReport(sc *serverConn, payload []byte) {
	s.inflight.Add(1)
	defer s.inflight.Done()
	d := codec.NewCursor(payload, "stream: REPORT")
	reqID := d.U32()
	req, err := decodeRequest(&d, s.intern)
	if err == nil {
		err = d.Done()
	}
	if err != nil {
		s.badFrame(sc, reqID, err)
		return
	}
	ctx, cancel := s.frameCtx()
	res, err := (*s.handler.Load()).Report(ctx, req.Ask())
	cancel()
	if err != nil {
		s.sendError(sc, reqID, registry.Classify(err))
		return
	}
	s.reports.Add(1)
	bp := getFrame(frameReportOK)
	*bp = codec.AppendU32(*bp, reqID)
	*bp = appendResult(*bp, res)
	res.Release()
	sc.writeFrame(bp)
}

// handleLease answers one LEASE frame from the shared lease pipeline,
// releasing the grant once the frame holds a copy of it.
func (s *Server) handleLease(sc *serverConn, payload []byte) {
	s.inflight.Add(1)
	defer s.inflight.Done()
	d := codec.NewCursor(payload, "stream: LEASE")
	reqID := d.U32()
	req, draws, token, err := decodeLeaseReq(&d, s.intern)
	if err == nil {
		err = d.Done()
	}
	if err != nil {
		s.badFrame(sc, reqID, err)
		return
	}
	ctx, cancel := s.frameCtx()
	grant, err := (*s.handler.Load()).Lease(ctx, req.LeaseAsk(draws, token))
	cancel()
	if err != nil {
		s.sendError(sc, reqID, registry.Classify(err))
		return
	}
	s.leases.Add(1)
	bp := getFrame(frameLeaseGrant)
	*bp = codec.AppendU32(*bp, reqID)
	*bp = appendLeaseGrant(*bp, grant)
	grant.Release()
	sc.writeFrame(bp)
}

// handleReports answers one REPORTS frame with per-item outcomes in
// request order, from the same registry.ReportBatch as POST /v1/reports.
func (s *Server) handleReports(sc *serverConn, payload []byte) {
	s.inflight.Add(1)
	defer s.inflight.Done()
	d := codec.NewCursor(payload, "stream: REPORTS")
	reqID := d.U32()
	n := d.Count(minRequestLen)
	if err := d.Err(); err != nil {
		s.badFrame(sc, reqID, err)
		return
	}
	// The claimed count sizes the decode below, so the envelope is judged
	// before any item is read (ReportBatch judges it again, from the same
	// function, for callers that decode first).
	if rej := s.reg.CheckBatch(n); rej != nil {
		s.sendError(sc, reqID, *rej)
		return
	}
	asks := make([]registry.ReportRequest, n)
	for i := range asks {
		req, err := decodeRequest(&d, s.intern)
		if err != nil {
			s.badFrame(sc, reqID, err)
			return
		}
		asks[i] = req.Ask()
	}
	if err := d.Done(); err != nil {
		s.badFrame(sc, reqID, err)
		return
	}
	s.batches.Add(1)
	s.batchItems.Add(uint64(n))
	ctx, cancel := s.frameCtx()
	outs, rej := s.reg.ReportBatch(ctx, *s.handler.Load(), asks)
	cancel()
	if rej != nil {
		s.sendError(sc, reqID, *rej)
		return
	}
	bp := getFrame(frameReportsOK)
	*bp = codec.AppendU32(*bp, reqID)
	*bp = codec.AppendUvarints(*bp, uint64(n))
	for _, out := range outs {
		if out.Result == nil {
			*bp = appendRejection(*bp, out.Rejection)
			continue
		}
		s.reports.Add(1)
		*bp = codec.AppendU16(*bp, uint16(statusOK))
		*bp = appendResult(*bp, out.Result)
		out.Result.Release()
	}
	sc.writeFrame(bp)
}

// sendError writes an ERROR frame (best effort; a failed write surfaces
// as the connection's read error).
func (s *Server) sendError(sc *serverConn, reqID uint32, rej registry.Rejection) {
	s.errorFrames.Add(1)
	bp := getFrame(frameError)
	*bp = appendRejection(codec.AppendU32(*bp, reqID), rej)
	sc.writeFrame(bp)
}

// Shutdown drains the server: stop accepting, say GOODBYE on every live
// connection, wait for in-flight frames to finish writing their responses
// (bounded by ctx), then close all connections. Registered listeners are
// closed immediately; Serve calls return ErrServerClosed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	for lis := range s.listeners {
		lis.Close()
	}
	conns := make([]*serverConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()

	for _, sc := range conns {
		bp := getFrame(frameGoodbye)
		*bp = codec.AppendString(*bp, "server draining")
		if sc.writeFrame(bp) == nil {
			s.goodbyes.Add(1)
		}
	}

	drained := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
	}
	// Closing the connections unblocks every conn goroutine's read; after
	// that the connWG drains promptly regardless of client behavior.
	s.mu.Lock()
	for sc := range s.conns {
		sc.conn.Close()
	}
	s.mu.Unlock()
	s.connWG.Wait()
	return err
}

// Close force-closes the server without draining.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Shutdown(ctx)
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}

// Stats snapshots the server's counters.
func (s *Server) Stats() Stats {
	return Stats{
		ConnsTotal:   s.connsTotal.Load(),
		ConnsActive:  s.connsActive.Load(),
		Handshakes:   s.handshakes.Load(),
		FramesIn:     s.framesIn.Load(),
		FramesOut:    s.framesOut.Load(),
		BytesIn:      s.bytesIn.Load(),
		BytesOut:     s.bytesOut.Load(),
		Reports:      s.reports.Load(),
		Batches:      s.batches.Load(),
		BatchItems:   s.batchItems.Load(),
		Leases:       s.leases.Load(),
		ErrorFrames:  s.errorFrames.Load(),
		Oversized:    s.oversized.Load(),
		GoodbyesSent: s.goodbyes.Load(),
	}
}
