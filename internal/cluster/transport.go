package cluster

import (
	"bufio"
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"sync"
	"syscall"
	"time"
)

// Pool bounds. The per-peer cap must exceed the frames usually in
// flight to one peer (at most one per session) plus concurrent
// forwards, or the pool itself would close and re-dial connections
// under load.
const (
	maxIdlePerPeer  = 32
	peerIdleTimeout = 90 * time.Second
)

// peerTransport is the node's HTTP/1.1 client, shared by every
// node-to-node call: router forwards, replication frames, handoffs,
// drops, membership pulls, admin RPCs and health probes. An exchange
// runs on the caller's goroutine: it takes a pooled keep-alive
// connection to the peer or dials one, writes the request, and reads
// the reply; the connection goes back to the pool when the caller
// reads the reply body to EOF. No goroutine is started per connection
// or per exchange, and no proxy is consulted.
type peerTransport struct {
	// rootCAs verifies https peers; nil means the host's roots, as in
	// net/http. Tests substitute their server's pool.
	rootCAs *x509.CertPool

	// mu guards idle and closed. It is never held across I/O.
	mu     sync.Mutex
	idle   map[peerKey][]*peerConn // per peer, oldest first
	closed bool
}

// peerKey names one peer's pool.
type peerKey struct {
	tls  bool
	addr string // host:port
}

func newPeerTransport() *peerTransport {
	return &peerTransport{idle: map[peerKey][]*peerConn{}}
}

// RoundTrip implements http.RoundTripper. Once any byte of a request
// was written the request is never sent again: the peer may have acted
// on it. A reused connection that failed before that is retried once,
// on a fresh dial, when the body can be rewound. The context's
// deadline bounds the exchange; its cancellation fails the exchange
// with the context's error.
func (t *peerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.roundTrip(req)
	if err != nil {
		u := ""
		if req.URL != nil {
			u = req.URL.String()
		}
		return nil, &url.Error{Op: req.Method, URL: u, Err: err}
	}
	return resp, nil
}

func (t *peerTransport) roundTrip(req *http.Request) (*http.Response, error) {
	key, err := peerKeyOf(req.URL)
	if err != nil {
		closeBody(req)
		return nil, err
	}
	ctx := req.Context()
	if err := ctx.Err(); err != nil {
		closeBody(req)
		return nil, err
	}
	for fresh := false; ; fresh = true {
		var pc *peerConn
		if !fresh {
			pc = t.get(key)
		}
		reused := pc != nil
		if !reused {
			if pc, err = t.dial(ctx, key); err != nil {
				closeBody(req)
				return nil, err
			}
		}
		resp, err := pc.exchange(ctx, req)
		if err == nil || !reused || pc.wrote > 0 {
			return resp, err
		}
		next, ok := rewind(req)
		if !ok {
			return nil, err
		}
		req = next
	}
}

// peerKeyOf resolves a request URL to its peer's pool key.
func peerKeyOf(u *url.URL) (peerKey, error) {
	if u == nil || u.Host == "" {
		return peerKey{}, errors.New("cluster: request URL has no host")
	}
	key := peerKey{addr: u.Host}
	port := "80"
	switch u.Scheme {
	case "http":
	case "https":
		key.tls, port = true, "443"
	default:
		return peerKey{}, fmt.Errorf("cluster: unsupported protocol scheme %q", u.Scheme)
	}
	if u.Port() == "" {
		key.addr = net.JoinHostPort(u.Hostname(), port)
	}
	return key, nil
}

// rewind returns a copy of req whose body starts over, for the one
// re-send of a request none of whose bytes were written; false means
// the body cannot be rewound.
func rewind(req *http.Request) (*http.Request, bool) {
	if req.Body == nil || req.Body == http.NoBody {
		return req, true
	}
	if req.GetBody == nil {
		return nil, false
	}
	body, err := req.GetBody()
	if err != nil {
		return nil, false
	}
	r := *req
	r.Body = body
	return &r, true
}

func closeBody(req *http.Request) {
	if req.Body != nil {
		_ = req.Body.Close() // RoundTrip owns the body; a close failure changes nothing
	}
}

// get pops the newest idle connection to key that is fit for a
// request, closing the unfit ones it passes; nil means dial.
func (t *peerTransport) get(key peerKey) *peerConn {
	for {
		t.mu.Lock()
		list := t.idle[key]
		if len(list) == 0 {
			t.mu.Unlock()
			return nil
		}
		pc := list[len(list)-1]
		list[len(list)-1] = nil
		t.idle[key] = list[:len(list)-1]
		t.mu.Unlock()
		if time.Since(pc.idleAt) < peerIdleTimeout && pc.alive() {
			return pc
		}
		pc.close()
	}
}

// put returns pc to its peer's pool, or closes it when the pool is
// full or closed. No goroutine watches the pool, so put also closes
// every connection that has sat idle for peerIdleTimeout.
func (t *peerTransport) put(pc *peerConn) {
	now := time.Now()
	pc.idleAt = now
	var drop []*peerConn
	t.mu.Lock()
	for key, list := range t.idle {
		i := 0
		for i < len(list) && now.Sub(list[i].idleAt) >= peerIdleTimeout {
			i++
		}
		if i > 0 {
			drop = append(drop, list[:i]...)
			n := copy(list, list[i:])
			clear(list[n:])
			t.idle[key] = list[:n]
		}
	}
	if t.closed || len(t.idle[pc.key]) >= maxIdlePerPeer {
		drop = append(drop, pc)
	} else {
		t.idle[pc.key] = append(t.idle[pc.key], pc)
	}
	t.mu.Unlock()
	for _, c := range drop {
		c.close()
	}
}

// closeIdle closes every pooled connection, and makes put close the
// connections still in use as their exchanges end. With no goroutine
// reading them, nothing else would close them.
func (t *peerTransport) closeIdle() {
	t.mu.Lock()
	idle := t.idle
	t.idle, t.closed = map[peerKey][]*peerConn{}, true
	t.mu.Unlock()
	for _, list := range idle {
		for _, pc := range list {
			pc.close()
		}
	}
}

// dial opens a connection to key, through TLS for an https peer. The
// dial runs under the context's deadline but not its cancellation,
// which net would watch with a goroutine; a canceled caller's dial
// ends at its deadline, and its exchange does not start.
func (t *peerTransport) dial(ctx context.Context, key peerKey) (*peerConn, error) {
	d := net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}
	d.Deadline, _ = ctx.Deadline()
	conn, err := d.DialContext(context.WithoutCancel(ctx), "tcp", key.addr)
	if err != nil {
		return nil, err
	}
	pc := &peerConn{t: t, key: key, conn: conn}
	pc.peekFn = pc.peek
	if sc, ok := conn.(syscall.Conn); ok {
		if pc.raw, err = sc.SyscallConn(); err != nil {
			pc.close()
			return nil, err
		}
	}
	if key.tls {
		host, _, _ := net.SplitHostPort(key.addr) // key.addr is host:port by construction
		tc := tls.Client(conn, &tls.Config{ServerName: host, RootCAs: t.rootCAs})
		pc.conn = tc
		// Handshake, not HandshakeContext, which would start a goroutine
		// to watch the context; watch bounds it the same way.
		stop := pc.watch(ctx)
		err := tc.Handshake()
		if !stop() && err == nil {
			err = ctx.Err()
		}
		if err != nil {
			pc.close()
			return nil, ctxErr(ctx, err)
		}
	} else if err := ctx.Err(); err != nil {
		pc.close()
		return nil, err
	}
	pc.br = bufio.NewReader(pc.conn)
	pc.bw = bufio.NewWriter(pc)
	return pc, nil
}

// peerConn is one keep-alive connection to a peer. An exchange owns it
// from get or dial until its reply body ends; the pool owns it between
// exchanges.
type peerConn struct {
	t      *peerTransport
	key    peerKey
	conn   net.Conn
	raw    syscall.RawConn // the TCP socket under conn, for alive
	br     *bufio.Reader
	bw     *bufio.Writer // writes through Write, which counts into wrote
	wrote  int           // bytes of the current request written to conn
	idleAt time.Time

	// alive's scratch: peekFn is peek bound once, so a reuse check
	// allocates nothing.
	peekFn  func(fd uintptr) bool
	peekN   int
	peekErr error
	peekBuf [1]byte
}

// Write implements io.Writer for bw, counting what reached conn.
func (pc *peerConn) Write(p []byte) (int, error) {
	n, err := pc.conn.Write(p)
	pc.wrote += n
	return n, err
}

func (pc *peerConn) close() {
	_ = pc.conn.Close() // the connection is discarded; nothing waits on the close
}

// alive reports whether the peer left pc open and silent: one
// non-blocking read must find neither data nor EOF. A peer that closed
// a pooled connection while it sat idle (it drained or restarted)
// would otherwise fail the next request after its bytes were written,
// and the node would mark a live peer down.
func (pc *peerConn) alive() bool {
	if pc.raw == nil {
		return true
	}
	if err := pc.raw.Read(pc.peekFn); err != nil {
		return false
	}
	return pc.peekN < 0 && errors.Is(pc.peekErr, syscall.EAGAIN)
}

func (pc *peerConn) peek(fd uintptr) bool {
	pc.peekN, pc.peekErr = syscall.Read(int(fd), pc.peekBuf[:])
	return true // one attempt: never wait for the socket to turn readable
}

// aLongTimeAgo is a deadline in the past: setting it fails any read or
// write in progress on a connection at once.
var aLongTimeAgo = time.Unix(1, 0)

// watch bounds pc's I/O by ctx: the context's deadline becomes the
// connection's, and its cancellation moves the deadline into the past.
// stop reports false when the context ended first, after which pc must
// not be pooled.
func (pc *peerConn) watch(ctx context.Context) (stop func() bool) {
	d, _ := ctx.Deadline() // the zero time clears a pooled connection's old deadline
	_ = pc.conn.SetDeadline(d)
	return context.AfterFunc(ctx, func() {
		_ = pc.conn.SetDeadline(aLongTimeAgo)
	})
}

// ctxErr reports the context's error for an exchange whose context
// ended: a deadline or cancellation fails the connection's I/O first.
func ctxErr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	if _, ok := ctx.Deadline(); ok && errors.Is(err, os.ErrDeadlineExceeded) {
		return context.DeadlineExceeded
	}
	return err
}

// exchange writes req on pc and reads the reply's header. On success
// the reply's body owns pc; on failure pc is closed.
func (pc *peerConn) exchange(ctx context.Context, req *http.Request) (*http.Response, error) {
	stop := pc.watch(ctx)
	pc.wrote = 0
	werr := req.Write(pc.bw) // closes the request body on every path
	if werr == nil {
		werr = pc.bw.Flush()
	}
	err := werr
	var resp *http.Response
	if werr == nil || pc.wrote > 0 && ctx.Err() == nil {
		// A peer may reply before it reads the whole request (refusing
		// an oversized body) and then hang up, failing the write; its
		// reply still counts.
		resp, err = http.ReadResponse(pc.br, req)
		if err != nil && werr != nil {
			err = werr
		}
	}
	if err != nil {
		stop()
		pc.close()
		return nil, ctxErr(ctx, err)
	}
	keep := werr == nil && !req.Close && !resp.Close
	if resp.Body == http.NoBody {
		pc.release(stop, keep)
		return resp, nil
	}
	resp.Body = &peerBody{pc: pc, rc: resp.Body, ctx: ctx, stop: stop, keep: keep, sized: resp.ContentLength >= 0}
	return resp, nil
}

// release ends pc's exchange: back to the pool, without a deadline,
// if reuse holds, the context never fired and no unread byte follows
// the reply; closed otherwise. A pooled connection must carry no
// deadline, or alive would find it timed out.
func (pc *peerConn) release(stop func() bool, reuse bool) {
	if stop() && reuse && pc.br.Buffered() == 0 && pc.conn.SetDeadline(time.Time{}) == nil {
		pc.t.put(pc)
		return
	}
	pc.close()
}

// errBodyClosed is what a reply body's Read returns after Close.
var errBodyClosed = errors.New("cluster: read on closed response body")

// peerBody is a reply body on a peer connection. Reading it to EOF ends
// the exchange and pools the connection. Read and Close must not be
// called concurrently.
type peerBody struct {
	pc    *peerConn // nil once the exchange ended
	rc    io.ReadCloser
	ctx   context.Context
	stop  func() bool
	keep  bool
	sized bool  // the reply declared its Content-Length
	err   error // Read's result once the exchange ended
}

func (b *peerBody) Read(p []byte) (int, error) {
	if b.pc == nil {
		return 0, b.err
	}
	n, err := b.rc.Read(p)
	switch {
	case err == io.EOF:
		b.end(err, b.keep)
	case err != nil:
		err = ctxErr(b.ctx, err)
		b.end(err, false)
	}
	return n, err
}

// Close ends the exchange. A sized body closed short of EOF (a JSON
// decoder stops before the trailing newline) first reads on through
// the bytes the connection has already buffered, in reads no larger
// than the buffer holds, which never block; if that reaches EOF the
// connection is pooled. Any other body closed short of EOF closes it:
// a chunked reader may wait on the network for a chunk's next bytes.
func (b *peerBody) Close() error {
	if b.pc == nil {
		b.err = errBodyClosed
		return nil
	}
	var scratch [512]byte
	for n := b.pc.br.Buffered(); b.sized && n > 0; n = b.pc.br.Buffered() {
		if _, err := b.rc.Read(scratch[:min(n, len(scratch))]); err != nil {
			b.end(errBodyClosed, err == io.EOF && b.keep)
			return nil
		}
	}
	b.end(errBodyClosed, false)
	return nil
}

func (b *peerBody) end(err error, reuse bool) {
	pc := b.pc
	b.pc, b.err = nil, err
	pc.release(b.stop, reuse)
}
