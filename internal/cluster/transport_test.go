package cluster

import (
	"bufio"
	"context"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"dvfsched/internal/obs"
)

// countingServer starts an httptest server (TLS when secure) that
// counts the connections it accepts.
func countingServer(t *testing.T, h http.Handler, secure bool) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var conns atomic.Int64
	ts := httptest.NewUnstartedServer(h)
	// The TLS test's refused handshakes are expected; keep them quiet.
	ts.Config.ErrorLog = log.New(io.Discard, "", 0)
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	if secure {
		ts.StartTLS()
	} else {
		ts.Start()
	}
	t.Cleanup(ts.Close)
	return ts, &conns
}

func testTransport(t *testing.T) *peerTransport {
	tr := newPeerTransport()
	t.Cleanup(tr.closeIdle)
	return tr
}

// fetch sends one request through tr and reads the whole reply.
func fetch(ctx context.Context, tr *peerTransport, method, url, body string) (int, string, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, "", err
	}
	resp, err := tr.RoundTrip(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b), err
}

func pooled(tr *peerTransport) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := 0
	for _, list := range tr.idle {
		n += len(list)
	}
	return n
}

// TestTransportDropsConnClosedWhileIdle: a replica that closes its
// idle connections (a drain, or a restart on the same port) must not
// cost the next frame. The owner's pooled connection fails the reuse
// check, the frame goes out on a fresh dial, and the replica is never
// marked down.
func TestTransportDropsConnClosedWhileIdle(t *testing.T) {
	counters := map[string]*countingListener{}
	tc := startClusterWrapped(t, 2, nil, func(id string, ln net.Listener) net.Listener {
		cl := &countingListener{Listener: ln}
		counters[id] = cl
		return cl
	})
	id := sessionsOwnedBy(t, tc, "n1", 1)[0]
	req, err := http.NewRequest(http.MethodPost, tc.byID["n1"].addr+"/v1/sessions", strings.NewReader(`{"cores":2}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Dvfs-Session-Id", id)
	resp, err := tc.client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create %s: %d", id, resp.StatusCode)
	}
	path := "/v1/sessions/" + id + "/tasks"
	if code, b := tc.do("n1", http.MethodPost, path, taskBatch([]int{1}, true)); code != http.StatusOK {
		t.Fatalf("first submit: %d %s", code, b)
	}

	owner, replica := tc.byID["n1"].node, tc.byID["n2"]
	if pooled(owner.transport) == 0 {
		t.Fatal("the frame's connection was not pooled")
	}
	// Close the replica's idle connections until the owner's pooled
	// ones see it; a connection can still be finishing its reply when
	// the submit returns.
	deadline := time.Now().Add(10 * time.Second)
	for pooledAlive(owner.transport) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("the replica's close never reached the owner's pooled connections")
		}
		replica.http.SetKeepAlivesEnabled(false)
		time.Sleep(time.Millisecond)
	}
	replica.http.SetKeepAlivesEnabled(true)

	accepted := counters["n2"].accepted.Load()
	heals := tc.byID["n1"].srv.Registry().Counter(obs.ClusterShipHeals).Value()
	if code, b := tc.do("n1", http.MethodPost, path, taskBatch([]int{2}, true)); code != http.StatusOK {
		t.Fatalf("submit after the replica closed its idle connections: %d %s", code, b)
	}
	if !owner.alive("n2") {
		t.Fatal("the owner marked the live replica down")
	}
	if got := counters["n2"].accepted.Load(); got != accepted+1 {
		t.Fatalf("replica accepted %d new connections, want 1 fresh dial", got-accepted)
	}
	if got := tc.byID["n1"].srv.Registry().Counter(obs.ClusterShipHeals).Value(); got != heals {
		t.Fatalf("ship heals %v -> %v: the frame did not reach the replica's log", heals, got)
	}
}

// pooledAlive counts the pooled connections that pass the reuse check.
func pooledAlive(tr *peerTransport) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := 0
	for _, list := range tr.idle {
		for _, pc := range list {
			if pc.alive() {
				n++
			}
		}
	}
	return n
}

// TestTransportCancelMidExchange: canceling the context while the
// peer holds the reply (first the header, then the body) returns the
// context's error at once, and the connection is closed, not reused.
func TestTransportCancelMidExchange(t *testing.T) {
	release := make(chan struct{})
	arrived := make(chan struct{}, 2)
	ts, conns := countingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/slow-header":
			arrived <- struct{}{}
		case "/slow-body":
			w.WriteHeader(http.StatusOK)
			w.(http.Flusher).Flush()
			arrived <- struct{}{}
		default:
			_, _ = io.WriteString(w, "ok")
			return
		}
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}), false)
	defer close(release)
	tr := testTransport(t)

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-arrived
		cancel()
	}()
	start := time.Now()
	_, _, err := fetch(ctx, tr, http.MethodGet, ts.URL+"/slow-header", "")
	wg.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled while waiting for the header: %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("canceled exchange took %v to return", d)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/slow-body", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	<-arrived
	cancel()
	start = time.Now()
	_, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled while reading the body: %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("canceled body read took %v to return", d)
	}

	if n := pooled(tr); n != 0 {
		t.Fatalf("%d canceled connections were pooled", n)
	}
	if code, body, err := fetch(context.Background(), tr, http.MethodGet, ts.URL+"/", ""); err != nil || code != http.StatusOK || body != "ok" {
		t.Fatalf("request after the cancellations: %d %q %v", code, body, err)
	}
	if got := conns.Load(); got != 3 {
		t.Fatalf("server accepted %d connections, want 3: a canceled connection was reused", got)
	}
}

// TestTransportEarlyCloseBody: a body closed before EOF pools its
// connection only when the rest of the reply was already buffered (a
// JSON decoder stops before the trailing newline); a connection with
// reply bytes still on the wire is closed, so the next exchange never
// reads them as its own reply, and Close never waits for them.
func TestTransportEarlyCloseBody(t *testing.T) {
	big := strings.Repeat("x", 1<<20)
	release := make(chan struct{})
	ts, conns := countingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/big":
			w.Header().Set("Content-Length", strconv.Itoa(2*len(big)))
		case "/chunked":
		default:
			_ = json.NewEncoder(w).Encode(map[string]string{"path": r.URL.Path})
			return
		}
		// Half the reply, then a stall: Close must not wait for the rest.
		_, _ = io.WriteString(w, big)
		w.(http.Flusher).Flush()
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}), false)
	defer close(release)
	tr := testTransport(t)

	for _, path := range []string{"/big", "/chunked"} {
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := tr.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(resp.Body, make([]byte, 10)); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if n := pooled(tr); n != 0 {
			t.Fatalf("GET %s: a connection with reply bytes unread was pooled", path)
		}
		if _, err := resp.Body.Read(make([]byte, 1)); err == nil {
			t.Fatalf("GET %s: read after Close succeeded", path)
		}
	}

	for _, path := range []string{"/a", "/b"} {
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := tr.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		var got map[string]string
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil || got["path"] != path {
			t.Fatalf("GET %s decoded %v, %v", path, got, err)
		}
		if n := pooled(tr); n != 1 {
			t.Fatalf("GET %s: %d pooled connections after a decoder stopped short of EOF, want 1", path, n)
		}
	}
	if got := conns.Load(); got != 3 {
		t.Fatalf("server accepted %d connections, want 3: /b did not reuse /a's", got)
	}
}

// TestTransportNeverResends: once any byte of a request was written it
// is not sent again, whatever its method and whether its connection
// was fresh or reused. The stand-in peer answers /ok and hangs up
// right after reading any other request, as a crashing node would.
func TestTransportNeverResends(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var requests atomic.Int64
	var wg sync.WaitGroup
	tr := newPeerTransport()
	t.Cleanup(func() {
		ln.Close()
		tr.closeIdle()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				br := bufio.NewReader(c)
				for {
					req, err := http.ReadRequest(br)
					if err != nil {
						return
					}
					_, _ = io.Copy(io.Discard, req.Body)
					requests.Add(1)
					if req.URL.Path != "/ok" {
						return
					}
					if _, err := io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"); err != nil {
						return
					}
				}
			}()
		}
	}()
	base := "http://" + ln.Addr().String()

	for _, method := range []string{http.MethodPost, http.MethodGet} {
		for _, reuse := range []bool{false, true} {
			body := ""
			if method == http.MethodPost {
				body = `{"frame":1}` // NewRequest gives it GetBody
			}
			if reuse {
				if code, _, err := fetch(context.Background(), tr, method, base+"/ok", body); err != nil || code != http.StatusOK {
					t.Fatalf("%s /ok: %d %v", method, code, err)
				}
				if pooled(tr) != 1 {
					t.Fatalf("%s /ok left no pooled connection to reuse", method)
				}
			}
			before := requests.Load()
			if _, _, err := fetch(context.Background(), tr, method, base+"/hangup", body); err == nil {
				t.Fatalf("%s /hangup (reused %v) succeeded against a peer that hung up", method, reuse)
			}
			if got := requests.Load() - before; got != 1 {
				t.Fatalf("%s /hangup (reused %v) reached the peer %d times, want 1", method, reuse, got)
			}
		}
	}
}

// TestTransportEarlyReply: a peer that refuses a large request before
// reading its body, then hangs up, fails the rest of the write; its
// reply is still the exchange's outcome, as with net/http, and not a
// transport error that would mark the peer down.
func TestTransportEarlyReply(t *testing.T) {
	ts, _ := countingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "too big", http.StatusRequestEntityTooLarge)
	}), false)
	tr := testTransport(t)
	// Larger than the loopback socket buffers, so the write is still
	// going when the peer hangs up.
	code, body, err := fetch(context.Background(), tr, http.MethodPost, ts.URL, strings.Repeat("x", 32<<20))
	if err != nil || code != http.StatusRequestEntityTooLarge || body != "too big\n" {
		t.Fatalf("early refusal: %d %q %v, want the 413", code, body, err)
	}
	if n := pooled(tr); n != 0 {
		t.Fatalf("%d connections pooled after a failed write", n)
	}
}

// failWriteConn fails every write before any byte is written.
type failWriteConn struct{ net.Conn }

func (failWriteConn) Write([]byte) (int, error) { return 0, syscall.EPIPE }

// TestTransportRetriesUnwrittenRequest: a reused connection that fails
// before any byte of the request was written is retried once on a
// fresh dial if the body can be rewound, and fails otherwise.
func TestTransportRetriesUnwrittenRequest(t *testing.T) {
	var posts atomic.Int64
	ts, conns := countingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			posts.Add(1)
		}
		_, _ = io.Copy(w, r.Body)
	}), false)
	tr := testTransport(t)
	breakPooled := func() {
		t.Helper()
		if _, _, err := fetch(context.Background(), tr, http.MethodGet, ts.URL, ""); err != nil {
			t.Fatal(err)
		}
		tr.mu.Lock()
		defer tr.mu.Unlock()
		for _, list := range tr.idle {
			for _, pc := range list {
				pc.conn = failWriteConn{pc.conn}
			}
		}
	}

	breakPooled()
	code, body, err := fetch(context.Background(), tr, http.MethodPost, ts.URL, "frame")
	if err != nil || code != http.StatusOK || body != "frame" {
		t.Fatalf("POST on a connection that fails before writing: %d %q %v, want the echo", code, body, err)
	}
	if got := posts.Load(); got != 1 {
		t.Fatalf("peer saw %d POSTs, want 1", got)
	}
	if got := conns.Load(); got != 2 {
		t.Fatalf("server accepted %d connections, want 2 (one fresh dial for the retry)", got)
	}

	breakPooled()
	req, err := http.NewRequest(http.MethodPost, ts.URL, io.NopCloser(strings.NewReader("frame")))
	if err != nil {
		t.Fatal(err)
	}
	if req.GetBody != nil {
		t.Fatal("a wrapped body must not be rewindable")
	}
	if _, err := tr.RoundTrip(req); err == nil {
		t.Fatal("unrewindable POST on a connection that fails before writing succeeded")
	}
	if got := posts.Load(); got != 1 {
		t.Fatalf("peer saw %d POSTs, want still 1", got)
	}
}

// TestTransportRefusedDial: a refused dial keeps its errno, which the
// router's failover rule tests with errors.Is.
func TestTransportRefusedDial(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	tr := testTransport(t)
	_, _, err = fetch(context.Background(), tr, http.MethodPost, "http://"+addr+"/v1/sessions/x/tasks", "{}")
	if !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("dial to a closed port: %v, want ECONNREFUSED", err)
	}
}

// TestTransportTLS: an https peer is dialed through TLS, verified
// against the transport's roots, and its connection reused.
func TestTransportTLS(t *testing.T) {
	ts, conns := countingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(w, r.Body)
	}), true)
	if !strings.HasPrefix(ts.URL, "https://") {
		t.Fatalf("server URL %s is not https", ts.URL)
	}

	untrusted := testTransport(t)
	var verr *tls.CertificateVerificationError
	if _, _, err := fetch(context.Background(), untrusted, http.MethodGet, ts.URL, ""); !errors.As(err, &verr) {
		t.Fatalf("peer with an unknown certificate: %v, want a verification error", err)
	}

	tr := testTransport(t)
	tr.rootCAs = x509.NewCertPool()
	tr.rootCAs.AddCert(ts.Certificate())
	before := conns.Load()
	for i := 0; i < 3; i++ {
		code, body, err := fetch(context.Background(), tr, http.MethodPost, ts.URL+"/v1/cluster/replica/frame", "frame")
		if err != nil || code != http.StatusOK || body != "frame" {
			t.Fatalf("POST %d over TLS: %d %q %v", i, code, body, err)
		}
	}
	if got := conns.Load() - before; got != 1 {
		t.Fatalf("3 POSTs over TLS used %d connections, want 1", got)
	}
}

// TestTransportPoolBounds: the pool keeps at most maxIdlePerPeer
// connections per peer, closes connections idle for peerIdleTimeout,
// and closeIdle closes every pooled connection and every later return.
func TestTransportPoolBounds(t *testing.T) {
	tr := newPeerTransport()
	conn := func(addr string) (*peerConn, net.Conn) {
		a, b := net.Pipe()
		t.Cleanup(func() { b.Close() })
		return &peerConn{t: tr, key: peerKey{addr: addr}, conn: a}, b
	}
	closed := func(far net.Conn) bool {
		_ = far.SetReadDeadline(time.Now().Add(time.Second))
		_, err := far.Read(make([]byte, 1))
		return errors.Is(err, io.EOF)
	}

	var fars []net.Conn
	for i := 0; i <= maxIdlePerPeer; i++ {
		pc, far := conn("a:1")
		tr.put(pc)
		fars = append(fars, far)
	}
	if n := pooled(tr); n != maxIdlePerPeer {
		t.Fatalf("pooled %d connections to one peer, want %d", n, maxIdlePerPeer)
	}
	if !closed(fars[maxIdlePerPeer]) {
		t.Fatal("the connection past the per-peer cap was not closed")
	}

	tr.mu.Lock()
	for _, pc := range tr.idle[peerKey{addr: "a:1"}] {
		pc.idleAt = pc.idleAt.Add(-peerIdleTimeout)
	}
	tr.mu.Unlock()
	fresh, freshFar := conn("b:1")
	tr.put(fresh)
	if n := pooled(tr); n != 1 {
		t.Fatalf("%d pooled connections after the others expired, want 1", n)
	}
	for i, far := range fars[:maxIdlePerPeer] {
		if !closed(far) {
			t.Fatalf("expired connection %d was not closed", i)
		}
	}

	tr.closeIdle()
	if !closed(freshFar) || pooled(tr) != 0 {
		t.Fatal("closeIdle left a pooled connection open")
	}
	late, lateFar := conn("b:1")
	tr.put(late)
	if !closed(lateFar) || pooled(tr) != 0 {
		t.Fatal("a connection returned after closeIdle was pooled")
	}
}

// TestNodeCloseClosesPooledConns: Node.Close closes the connections
// its transport pooled; no goroutine of the transport would.
func TestNodeCloseClosesPooledConns(t *testing.T) {
	tc := startCluster(t, 2, nil)
	info := tc.createSession("n1", `{"cores":2}`)
	if code, b := tc.do("n1", http.MethodPost, "/v1/sessions/"+info.ID+"/tasks", taskBatch([]int{1}, true)); code != http.StatusOK {
		t.Fatalf("submit: %d %s", code, b)
	}
	var tr *peerTransport
	for _, id := range tc.ids {
		if pooled(tc.byID[id].node.transport) > 0 {
			tr = tc.byID[id].node.transport
			tc.byID[id].node.Close()
			break
		}
	}
	if tr == nil {
		t.Fatal("no node pooled a connection")
	}
	if n := pooled(tr); n != 0 {
		t.Fatalf("%d connections still pooled after Node.Close", n)
	}
	tr.mu.Lock()
	closed := tr.closed
	tr.mu.Unlock()
	if !closed {
		t.Fatal("the transport is not marked closed")
	}
}
