package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dvfsched/internal/cluster"
	"dvfsched/internal/server"
)

// senders is the number of request-issuing goroutines and client
// connections: the benchmark machine has two cores.
const senders = 2

// bench is one run's harness: the client, the system under test, the
// span log of a traced run and the first correctness failure.
type bench struct {
	cfg    config
	base   time.Time // origin of span timestamps
	tr     *http.Transport
	client *http.Client
	spans  *spanLog // nil when untraced
	// echoSrv is the reference the gated timings are read against.
	echoSrv *echoServer

	reqSeq    atomic.Uint64
	attempted atomic.Int64
	failed    atomic.Int64

	inst    *instance
	front   string // node the client talks to
	owner   string // node that owns the load's sessions
	replica string // node replicating them; "" when solo
	setupS  []float64
	// timedFrom is when the measured phases began; spans of the warm-up
	// are left out of the per-layer metrics.
	timedFrom time.Time

	errMu sync.Mutex
	err   error

	judge    []*judgeTrace // the judge oracle, built once
	judgeErr error
	judgeOne sync.Once
}

func newBench(cfg config) *bench {
	tr := &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     senders,
		MaxIdleConnsPerHost: senders,
		DisableCompression:  true,
	}
	b := &bench{
		cfg:    cfg,
		base:   time.Now(),
		tr:     tr,
		client: &http.Client{Transport: tr, Timeout: time.Minute},
	}
	if cfg.trace {
		b.spans = &spanLog{}
	}
	return b
}

func (b *bench) close() {
	if b.inst != nil {
		b.inst.close()
		b.inst = nil
	}
	if b.echoSrv != nil {
		b.echoSrv.close()
	}
	b.tr.CloseIdleConnections()
}

// fail records the first correctness failure; the load stops soon after.
func (b *bench) fail(err error) {
	b.errMu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.errMu.Unlock()
}

func (b *bench) stopped() bool {
	b.errMu.Lock()
	defer b.errMu.Unlock()
	return b.err != nil
}

// result is what a workload returns at its end: the outcome, or the
// first correctness failure wrapped in errIncorrect.
func (b *bench) result(res *outcome) (*outcome, error) {
	b.errMu.Lock()
	defer b.errMu.Unlock()
	if b.err != nil {
		return nil, fmt.Errorf("%w: %v", errIncorrect, b.err)
	}
	return res, nil
}

// node is one booted server: solo, or a cluster member.
type node struct {
	id  string
	url string
	srv *server.Server
	cn  *cluster.Node // nil when solo
	hs  *http.Server
}

// instance is one booted system under test.
type instance struct {
	nodes []*node
	wg    sync.WaitGroup
}

func (in *instance) node(id string) *node {
	for _, n := range in.nodes {
		if n.id == id {
			return n
		}
	}
	return nil
}

// close stops every listener and server and waits for the serve
// goroutines to return.
func (in *instance) close() {
	for _, n := range in.nodes {
		_ = n.hs.Close() // Close only reports listener errors; every node is stopped regardless
		if n.cn != nil {
			n.cn.Close()
		}
		n.srv.Close()
	}
	in.wg.Wait()
}

// boot starts the system under test on loopback listeners: one solo
// server, or three cluster nodes n1..n3 with the default cluster
// configuration, wired like dvfsload's in-process cluster. It returns
// once every node answered /healthz.
func (b *bench) boot(clustered bool) (*instance, error) {
	ids := []string{"solo"}
	if clustered {
		ids = []string{"n1", "n2", "n3"}
	}
	lns := make([]net.Listener, 0, len(ids))
	peers := map[string]string{}
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				_ = l.Close() // already failing; the listen error is the one to report
			}
			return nil, err
		}
		lns = append(lns, ln)
		peers[id] = "http://" + ln.Addr().String()
	}
	in := &instance{}
	for i, id := range ids {
		n := &node{id: id, url: peers[id], srv: server.New(server.Config{})}
		var h http.Handler = n.srv
		if clustered {
			cn, err := cluster.NewNode(cluster.Config{ID: id, Peers: peers}, n.srv)
			if err != nil {
				n.srv.Close()
				for _, l := range lns[i:] {
					_ = l.Close() // already failing; the node error is the one to report
				}
				in.close()
				return nil, err
			}
			n.cn, h = cn, cn.Handler()
		}
		n.hs = &http.Server{Handler: b.wrap(id, h)}
		in.nodes = append(in.nodes, n)
		in.wg.Add(1)
		go func(hs *http.Server, ln net.Listener) {
			defer in.wg.Done()
			if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
				b.fail(fmt.Errorf("serve %s: %w", ln.Addr(), err))
			}
		}(n.hs, lns[i])
	}
	for _, n := range in.nodes {
		if err := b.waitHealthy(n.url); err != nil {
			in.close()
			return nil, err
		}
	}
	return in, nil
}

func (b *bench) waitHealthy(url string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := b.client.Get(url + "/healthz")
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became healthy: %v", url, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// setupGap is the idle time before each boot. A service starts in an
// idle process, and spacing the boots spreads them over a second of
// the shared machine's changing speed instead of a few milliseconds.
const setupGap = 10 * time.Millisecond

// setup boots the system under test cfg.setups times and keeps the last
// instance. Each setup is timed from the first constructor call to the
// last healthy reply plus the session creation sessions performs, which
// returns the IDs it created; setup_s is their median. Earlier
// instances are torn down untimed.
func (b *bench) setup(clustered bool, sessions func() ([]string, error)) error {
	b.front, b.owner, b.replica = "solo", "solo", ""
	if clustered {
		b.front, b.owner, b.replica = "n3", "n1", "n2"
	}
	var ids []string
	for i := 0; i < b.cfg.setups; i++ {
		if b.inst != nil {
			// Server.Close leaves sessions running: remove the previous
			// boot's, or their goroutines and state would pile up in the
			// heap the load runs in.
			for _, id := range ids {
				if err := b.removeEmpty(id); err != nil {
					return fmt.Errorf("setup: %w", err)
				}
			}
			b.inst.close()
			b.inst = nil
		}
		time.Sleep(setupGap)
		t0 := time.Now()
		in, err := b.boot(clustered)
		if err != nil {
			return err
		}
		b.inst = in
		if sessions != nil {
			if ids, err = sessions(); err != nil {
				return fmt.Errorf("setup: %w", err)
			}
		}
		b.setupS = append(b.setupS, time.Since(t0).Seconds())
	}
	// Health checks opened connections to every node; the load itself
	// uses at most two, to the front.
	b.tr.CloseIdleConnections()
	return nil
}

func (b *bench) url(path string) string { return b.inst.node(b.front).url + path }

// reply is one finished request.
type reply struct {
	status     int
	body       []byte
	header     http.Header
	sent, done time.Time
}

func (r reply) ms() float64 { return float64(r.done.Sub(r.sent)) / 1e6 }

// do issues one request to the front node. kind names the operation in
// spans and latency tables; sessionID, when set, places a create. The
// reply body is read into dst and returned as r.body, valid until dst
// is reused; with a nil dst the body of a successful reply is
// discarded. A request counts as failed on a transport error, 429 or
// 5xx.
func (b *bench) do(kind, method, path string, body []byte, sessionID string, dst *bytes.Buffer) (reply, error) {
	url := b.url(path)
	var rid uint64
	if b.spans != nil {
		rid = b.reqSeq.Add(1)
		sep := "?"
		if strings.Contains(url, "?") {
			sep = "&"
		}
		url += sep + reqParam + "=" + strconv.FormatUint(rid, 10)
	}
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if sessionID != "" {
		req.Header.Set(server.SessionIDHeader, sessionID)
	}
	b.attempted.Add(1)
	r := reply{sent: time.Now()}
	resp, err := b.client.Do(req)
	if err != nil {
		b.failed.Add(1)
		return reply{}, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if dst == nil && resp.StatusCode < 300 {
		_, err = io.Copy(io.Discard, resp.Body)
	} else {
		if dst == nil {
			dst = new(bytes.Buffer)
		}
		dst.Reset()
		_, err = dst.ReadFrom(resp.Body)
		r.body = dst.Bytes()
	}
	resp.Body.Close()
	r.done, r.status, r.header = time.Now(), resp.StatusCode, resp.Header
	if err != nil {
		b.failed.Add(1)
		return reply{}, fmt.Errorf("%s %s: read reply: %w", method, path, err)
	}
	if r.status == http.StatusTooManyRequests || r.status >= 500 {
		b.failed.Add(1)
	}
	if b.spans != nil {
		b.spans.add(span{Name: "client " + kind, Start: b.ns(r.sent), End: b.ns(r.done), node: "client", kind: kind, req: rid, path: req.URL.Path})
	}
	return r, nil
}

// drain drains a session through DELETE and decodes its final report,
// read into dst.
func (b *bench) drain(id string, dst *bytes.Buffer) (reply, server.DrainResponse, error) {
	var drain server.DrainResponse
	r, err := b.do("drain", "DELETE", "/v1/sessions/"+id, nil, "", dst)
	if err != nil {
		return r, drain, err
	}
	if err := expect(r, 200, "drain "+id); err != nil {
		return r, drain, err
	}
	if err := json.Unmarshal(r.body, &drain); err != nil {
		return r, drain, fmt.Errorf("drain %s: %w", id, err)
	}
	return r, drain, nil
}

// purge deletes a drained session through a second DELETE.
func (b *bench) purge(id string) error {
	r, err := b.do("purge", "DELETE", "/v1/sessions/"+id, nil, "", nil)
	if err != nil {
		return err
	}
	return expect(r, 204, "purge "+id)
}

// removeEmpty deletes a session that never had a task: its first DELETE
// removes it and answers 409.
func (b *bench) removeEmpty(id string) error {
	r, err := b.do("remove", "DELETE", "/v1/sessions/"+id, nil, "", nil)
	if err != nil {
		return err
	}
	return expect(r, 409, "remove empty session "+id)
}

// expect checks a reply's status, naming the request in the error.
func expect(r reply, want int, what string) error {
	if r.status != want {
		return fmt.Errorf("%s: status %d, want %d: %s", what, r.status, want, bytes.TrimSpace(r.body))
	}
	return nil
}

func (b *bench) ns(t time.Time) int64 { return int64(t.Sub(b.base)) }

// runSenders runs fn on every sender goroutine and waits for them.
func runSenders(fn func()) {
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	wg.Wait()
}
