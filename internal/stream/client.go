package stream

import (
	"bufio"
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

// ErrClientClosed marks calls on a closed client.
var ErrClientClosed = errors.New("stream: client closed")

// ErrNodeDown marks an exchange refused without dialing because the
// target node's last dial failed and its reconnect backoff has not
// expired. Callers (the cluster router) treat it like a dial failure —
// try the next node — but it costs microseconds instead of a connect
// timeout, which is what keeps failover fast while a node is down.
var ErrNodeDown = errors.New("stream: node down (reconnect backoff)")

// ErrDraining marks an exchange abandoned because the server said GOODBYE
// and closed before the response arrived.
var ErrDraining = errors.New("stream: server draining")

// DefaultMaxIdleConns bounds the client's idle-connection pool.
const DefaultMaxIdleConns = 16

// ClientConfig tunes a stream Client.
type ClientConfig struct {
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// Timeout bounds one exchange end to end — write through response —
	// via connection deadlines; zero means no deadline.
	Timeout time.Duration
	// MaxIdleConns bounds the pooled idle connections (default 16). Active
	// connections are unbounded: each concurrent caller holds one
	// exclusively for the duration of its exchange.
	MaxIdleConns int
	// Now is the clock the reconnect breaker reads (nil: time.Now). Socket
	// deadlines stay on the real clock: the kernel enforces them.
	Now func() time.Time
}

// The reconnect backoff: a failed dial waits firstReconnectBackoff, each
// consecutive failure doubles it up to maxReconnectBackoff, and getConn's
// breaker fails fast while it runs. Without it, a node that closed with
// GOODBYE cost every caller a full dial timeout until it recovered, and a
// recovered node was only rediscovered by luck of timing.
const (
	firstReconnectBackoff = 250 * time.Millisecond
	maxReconnectBackoff   = 15 * time.Second
)

func (c ClientConfig) withDefaults() ClientConfig {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.MaxIdleConns <= 0 {
		c.MaxIdleConns = DefaultMaxIdleConns
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// ClientStats snapshots a client's transfer counters.
type ClientStats struct {
	Dials    uint64 `json:"dials"`
	Retries  uint64 `json:"retries"`
	BytesIn  uint64 `json:"bytes_in"`
	BytesOut uint64 `json:"bytes_out"`
	// FailFast counts exchanges refused with ErrNodeDown (no dial spent);
	// Probes counts half-open recovery dials after a backoff expired.
	FailFast uint64 `json:"fail_fast"`
	Probes   uint64 `json:"probes"`
}

// Client speaks corgi-stream to one server address with connection
// pooling and auto-reconnect: exchanges check a connection out of the
// idle pool (dialing and re-negotiating HELLO/WELCOME when empty), hold
// it exclusively, and return it on success. An I/O failure on a pooled
// connection — the server restarted, said GOODBYE, or the conn idled out —
// closes it and retries once on a freshly dialed one, the same
// stale-keep-alive retry semantics HTTP clients apply. Application-level
// rejections come back as *StatusError and leave the connection healthy.
//
// Client is safe for concurrent use; each concurrent exchange holds its
// own connection, so per-user FIFO ordering is the caller's to arrange
// (one goroutine per user stream, as corgi-loadgen does).
type Client struct {
	addr string
	cfg  ClientConfig

	mu     sync.Mutex
	idle   []*clientConn // LIFO: most recently used first
	closed bool
	// Reconnect-backoff state (guarded by mu): consecutive dial failures,
	// when the next dial may run, and whether a half-open probe is already
	// in flight (other callers fail fast until it resolves).
	dialFails    int
	backoffUntil time.Time
	probing      bool

	dials    atomic.Uint64
	retries  atomic.Uint64
	bytesIn  atomic.Uint64
	bytesOut atomic.Uint64
	failFast atomic.Uint64
	probes   atomic.Uint64
}

// clientConn is one negotiated connection.
type clientConn struct {
	conn net.Conn
	fr   *frameReader
	// nextID numbers exchanges on this connection; responses echo it, and
	// a mismatch is a protocol fault (the exchange pattern is strictly
	// serial per connection).
	nextID   uint32
	draining bool
}

// NewClient targets a server stream address (host:port).
func NewClient(addr string, cfg ClientConfig) *Client {
	return &Client{addr: addr, cfg: cfg.withDefaults()}
}

// dial opens and negotiates a fresh connection.
func (c *Client) dial() (*clientConn, error) {
	conn, err := net.DialTimeout("tcp", c.addr, c.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	c.dials.Add(1)
	if tc, ok := conn.(*net.TCPConn); ok {
		// Frames are written whole; batching them behind Nagle only adds
		// latency to the request/response pattern.
		tc.SetNoDelay(true)
	}
	cc := &clientConn{
		conn: conn,
		fr:   newFrameReader(bufio.NewReaderSize(countingReader{r: conn, n: &c.bytesIn}, 64<<10)),
	}
	if err := c.handshake(cc); err != nil {
		conn.Close()
		return nil, err
	}
	return cc, nil
}

// handshake sends HELLO and validates WELCOME.
func (c *Client) handshake(cc *clientConn) error {
	cc.conn.SetDeadline(time.Now().Add(c.cfg.DialTimeout))
	defer cc.conn.SetDeadline(time.Time{})
	bp := getFrame(frameHello)
	*bp = append(*bp, Magic...)
	*bp = append(*bp, Version, Version)
	if err := c.writeFrame(cc, bp); err != nil {
		return err
	}
	ftype, payload, err := cc.fr.next()
	if err != nil {
		return fmt.Errorf("stream: handshake failed: %w", err)
	}
	if ftype == frameError {
		return decodeErrorFrame(payload)
	}
	if ftype != frameWelcome {
		return fmt.Errorf("stream: expected WELCOME, got frame type %d", ftype)
	}
	return decodeWelcome(payload)
}

func (c *Client) writeFrame(cc *clientConn, bp *[]byte) error {
	b := finishFrame(*bp)
	n, err := cc.conn.Write(b)
	c.bytesOut.Add(uint64(n))
	putFrame(bp)
	return err
}

// failFastThreshold is how many consecutive dial failures open the
// fail-fast breaker. One failure can be the node restarting under the
// caller's feet (the very situation the retry-once policy exists for),
// so a single miss never blocks the immediate next attempt; two misses
// in a row mean the node is really down.
const failFastThreshold = 2

// getConn checks a connection out of the pool, dialing when empty.
// reused reports whether the connection might be stale (and so a failed
// exchange should retry on a fresh one). With the pool empty and the
// node in reconnect backoff after failFastThreshold consecutive dial
// failures, it fails fast with ErrNodeDown instead of burning a dial
// timeout; the first caller after the backoff expires becomes the
// half-open probe (probing gates concurrent callers out until its dial
// resolves).
func (c *Client) getConn() (cc *clientConn, reused bool, err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, false, ErrClientClosed
	}
	if n := len(c.idle); n > 0 {
		cc = c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return cc, true, nil
	}
	probe := false
	if c.dialFails >= failFastThreshold {
		if c.probing || c.cfg.Now().Before(c.backoffUntil) {
			c.mu.Unlock()
			c.failFast.Add(1)
			return nil, false, ErrNodeDown
		}
		c.probing, probe = true, true
	}
	c.mu.Unlock()
	if probe {
		c.probes.Add(1)
	}
	cc, err = c.dial()
	c.mu.Lock()
	if probe {
		c.probing = false
	}
	if err != nil {
		c.dialFails++
		backoff := firstReconnectBackoff << (c.dialFails - 1)
		if backoff > maxReconnectBackoff || backoff <= 0 {
			backoff = maxReconnectBackoff
		}
		c.backoffUntil = c.cfg.Now().Add(backoff)
	} else {
		c.dialFails = 0
		c.backoffUntil = time.Time{}
	}
	c.mu.Unlock()
	return cc, false, err
}

// Healthy reports whether the node is dialable as far as the client
// knows: true until a dial fails, false while the reconnect backoff
// runs, true again once a probe dial succeeds. The cluster router reads
// it for its stats, not for routing (routing order is the ring's).
func (c *Client) Healthy() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dialFails == 0
}

// putConn returns a healthy connection to the pool.
func (c *Client) putConn(cc *clientConn) {
	if cc.draining {
		cc.conn.Close()
		return
	}
	c.mu.Lock()
	if c.closed || len(c.idle) >= c.cfg.MaxIdleConns {
		c.mu.Unlock()
		cc.conn.Close()
		return
	}
	c.idle = append(c.idle, cc)
	c.mu.Unlock()
}

// Close closes the client and its pooled connections. In-flight
// exchanges finish on their checked-out connections, which then close on
// return.
func (c *Client) Close() error {
	c.mu.Lock()
	idle := c.idle
	c.idle = nil
	c.closed = true
	c.mu.Unlock()
	for _, cc := range idle {
		// A GOODBYE tells the server this close is deliberate, not a torn
		// connection. Best effort.
		bp := getFrame(frameGoodbye)
		*bp = codec.AppendString(*bp, "client closing")
		c.writeFrame(cc, bp)
		cc.conn.Close()
	}
	return nil
}

// Stats snapshots the client's counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Dials:    c.dials.Load(),
		Retries:  c.retries.Load(),
		BytesIn:  c.bytesIn.Load(),
		BytesOut: c.bytesOut.Load(),
		FailFast: c.failFast.Load(),
		Probes:   c.probes.Load(),
	}
}

// decodeErrorFrame turns an ERROR payload into a *StatusError.
func decodeErrorFrame(payload []byte) error {
	d := codec.NewCursor(payload, "stream: ERROR")
	d.U32() // reqID, already matched by the caller (0 for connection-level)
	se := &StatusError{Status: int(d.U16())}
	if d.U8()&errFlagEpsRemaining != 0 {
		se.EpsRemaining = d.F64()
		se.HasEpsRemaining = true
	}
	se.Msg = d.Str()
	if err := d.Err(); err != nil {
		return err
	}
	return se
}

// exchange writes one request frame and reads its matching response,
// tolerating a GOODBYE notice in between (the server drains in-flight
// work before closing, so the response is still coming).
func (c *Client) exchange(cc *clientConn, bp *[]byte, reqID uint32, wantType byte) ([]byte, error) {
	if c.cfg.Timeout > 0 {
		cc.conn.SetDeadline(time.Now().Add(c.cfg.Timeout))
		defer cc.conn.SetDeadline(time.Time{})
	}
	if err := c.writeFrame(cc, bp); err != nil {
		return nil, err
	}
	for {
		ftype, payload, err := cc.fr.next()
		if err != nil {
			if cc.draining && (errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)) {
				return nil, ErrDraining
			}
			return nil, err
		}
		switch ftype {
		case frameGoodbye:
			cc.draining = true
			continue
		case frameError:
			d := codec.NewCursor(payload, "stream: ERROR")
			if id := d.U32(); d.Err() == nil && id != reqID && id != 0 {
				return nil, fmt.Errorf("stream: ERROR for request %d while waiting for %d", id, reqID)
			}
			return nil, decodeErrorFrame(payload)
		case wantType:
			d := codec.NewCursor(payload, "stream: response")
			if id := d.U32(); d.Err() != nil || id != reqID {
				return nil, fmt.Errorf("stream: response for request %d while waiting for %d", id, reqID)
			}
			return payload[4:], nil
		default:
			return nil, fmt.Errorf("stream: unexpected frame type %d", ftype)
		}
	}
}

// retryable reports whether an exchange error may be cured by a fresh
// connection: transport faults yes, application rejections no.
func retryable(err error) bool {
	var se *StatusError
	return !errors.As(err, &se)
}

// call runs one request/response exchange on a pooled connection: encode
// appends the request body after the reqID, decode reads the response body
// (which must be consumed exactly); respName names it in decode errors.
func (c *Client) call(reqType, respType byte, respName string, encode func([]byte) []byte, decode func(*codec.Cursor) error) error {
	return c.withConn(func(cc *clientConn) error {
		cc.nextID++
		reqID := cc.nextID
		bp := getFrame(reqType)
		*bp = encode(codec.AppendU32(*bp, reqID))
		payload, err := c.exchange(cc, bp, reqID, respType)
		if err != nil {
			return err
		}
		d := codec.NewCursor(payload, respName)
		if err := decode(&d); err != nil {
			return err
		}
		return d.Done()
	})
}

// Report draws obfuscated reports over the stream, mirroring
// proto.Client.Report.
func (c *Client) Report(req Request) (*Response, error) {
	var resp *Response
	err := c.call(frameReport, frameReportOK, "stream: REPORT_OK",
		func(b []byte) []byte { return appendRequest(b, &req) },
		func(d *codec.Cursor) (err error) { resp, err = decodeResponse(d, req.Region); return err })
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// Lease requests (or renews) a client-side draw lease over the stream,
// mirroring POST /v1/lease: the request's Count field is ignored,
// draws is the cap to pre-pay, and a non-nil token renews a previous
// lease. Rejections come back as *StatusError with the same statuses the
// HTTP route answers (429 with eps headroom on budget exhaustion, 403 on
// a bad token).
func (c *Client) Lease(req Request, draws int, token []byte) (*registry.LeaseGrant, error) {
	var grant *registry.LeaseGrant
	err := c.call(frameLease, frameLeaseGrant, "stream: LEASE_GRANT",
		func(b []byte) []byte { return appendLeaseReq(b, &req, draws, token) },
		func(d *codec.Cursor) (err error) { grant, err = decodeLeaseGrant(d, req.Region); return err })
	if err != nil {
		return nil, err
	}
	return grant, nil
}

// ReportBatch draws for many requests in one REPORTS round trip,
// mirroring POST /v1/reports: per-item outcomes come back in
// request order with their own statuses.
func (c *Client) ReportBatch(items []Request) ([]ItemResult, error) {
	var results []ItemResult
	err := c.call(frameReports, frameReportsOK, "stream: REPORTS_OK",
		func(b []byte) []byte {
			b = codec.AppendUvarints(b, uint64(len(items)))
			for i := range items {
				b = appendRequest(b, &items[i])
			}
			return b
		},
		func(d *codec.Cursor) error {
			n := d.Count(minItemLen)
			if err := d.Err(); err != nil {
				return err
			}
			if n != len(items) {
				return fmt.Errorf("stream: batch answered %d items for %d requests", n, len(items))
			}
			results = make([]ItemResult, n)
			for i := range results {
				var err error
				if results[i], err = decodeItem(d, items[i].Region); err != nil {
					return err
				}
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// withConn runs one exchange with checkout, pooling, and the retry-once
// reconnect policy.
func (c *Client) withConn(fn func(cc *clientConn) error) error {
	for attempt := 0; ; attempt++ {
		cc, reused, err := c.getConn()
		if err != nil {
			return err
		}
		err = fn(cc)
		if err == nil {
			c.putConn(cc)
			return nil
		}
		if !retryable(err) {
			// Application-level rejection: the connection is fine.
			c.putConn(cc)
			return err
		}
		cc.conn.Close()
		if reused && attempt == 0 {
			// A pooled connection can be stale (server restarted or drained
			// while it idled); one fresh dial retries the exchange. Failures
			// on a fresh connection are real and surface.
			c.retries.Add(1)
			continue
		}
		return err
	}
}
