package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"

	"dvfsched/internal/core"
	"dvfsched/internal/obs"
	"dvfsched/internal/trace"
)

// fakeCluster is a scriptable Cluster implementation: the test decides
// the candidate chain, the address book, and whether EnsureLocal /
// Replicate fail, and it records every replicated mutation in order.
type fakeCluster struct {
	self  string
	addrs map[string]string

	mu           sync.Mutex
	routes       []string
	seq          int
	mutations    []Mutation
	observed     map[string]error
	ensureErr    error
	replicateErr error
}

func (f *fakeCluster) Self() string { return f.self }

func (f *fakeCluster) Epoch() uint64 { return 1 }

func (f *fakeCluster) Route(string) []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.routes...)
}

func (f *fakeCluster) Addr(node string) string { return f.addrs[node] }

func (f *fakeCluster) Observe(node string, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.observed == nil {
		f.observed = map[string]error{}
	}
	f.observed[node] = err
}

func (f *fakeCluster) NewSessionID() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seq++
	return fmt.Sprintf("s-%s-%03d", f.self, f.seq)
}

func (f *fakeCluster) EnsureLocal(context.Context, string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ensureErr
}

func (f *fakeCluster) Replicate(_ context.Context, _ string, m Mutation) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.mutations = append(f.mutations, m)
	return f.replicateErr
}

func (f *fakeCluster) replicated() []Mutation {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Mutation(nil), f.mutations...)
}

// newRouterNode boots one Server fronted by a Router over a
// fakeCluster that, by default, routes everything to itself.
func newRouterNode(t *testing.T, self string) (*Server, *fakeCluster, *httptest.Server) {
	t.Helper()
	s := New(Config{})
	fc := &fakeCluster{self: self, routes: []string{self}, addrs: map[string]string{}}
	ts := httptest.NewServer(NewRouter(s, fc))
	fc.addrs[self] = ts.URL
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, fc, ts
}

// TestRouterLocalLifecycle drives a full session lifecycle through a
// self-owned router: the ID is minted by the cluster, every mutation is
// replicated in order (including the 204-purge reclassification of the
// second DELETE), and non-session routes bypass the router entirely.
func TestRouterLocalLifecycle(t *testing.T) {
	s, fc, ts := newRouterNode(t, "a")

	var info SessionInfo
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", map[string]any{"cores": 2}, &info); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	if info.ID != "s-a-001" {
		t.Fatalf("session ID %q not minted by the cluster", info.ID)
	}
	if !s.HasSession(info.ID) {
		t.Fatal("HasSession false for a live session")
	}
	if _, ok := s.SessionSpec(info.ID); !ok {
		t.Fatal("SessionSpec missing for a live session")
	}
	if got := s.Sessions(); got != 1 {
		t.Fatalf("Sessions() = %d, want 1", got)
	}

	path := ts.URL + "/v1/sessions/" + info.ID
	sub := SubmitRequest{Tasks: []trace.Record{{ID: 1, Cycles: 5, Arrival: 0.1}, {ID: 2, Cycles: 3, Arrival: 0.2}}}
	if code := doJSON(t, http.MethodPost, path+"/tasks", sub, nil); code != http.StatusOK {
		t.Fatalf("submit: %d", code)
	}

	evs, err := logSince(s, info.ID, 0)
	if err != nil || len(evs) == 0 {
		t.Fatalf("AppendSessionLogSince: %d events, err %v", len(evs), err)
	}
	if tail, err := logSince(s, info.ID, evs[0].Seq); err != nil || len(tail) != len(evs)-1 {
		t.Fatalf("AppendSessionLogSince(after first) = %d events, err %v, want %d", len(tail), err, len(evs)-1)
	}
	if _, err := logSince(s, "nope", 0); !errors.Is(err, ErrSessionGone) {
		t.Fatalf("AppendSessionLogSince unknown: %v, want ErrSessionGone", err)
	}

	// Status and events are reads: no replication.
	if code := doJSON(t, http.MethodGet, path, nil, &info); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	code, body, hdr := getRaw(t, path+"/events")
	if code != http.StatusOK || len(body) == 0 {
		t.Fatalf("events: %d (%d bytes)", code, len(body))
	}
	if hdr.Get("X-Event-Count") == "" {
		t.Fatal("events reply missing X-Event-Count")
	}

	var dr DrainResponse
	if code := doJSON(t, http.MethodDelete, path, nil, &dr); code != http.StatusOK {
		t.Fatalf("drain: %d", code)
	}
	if dr.Tasks != 2 {
		t.Fatalf("drained %d tasks, want 2", dr.Tasks)
	}
	if code := doJSON(t, http.MethodDelete, path, nil, nil); code != http.StatusNoContent {
		t.Fatalf("purge: %d", code)
	}

	want := []Mutation{MutationCreate, MutationSubmit, MutationDrain, MutationPurge}
	got := fc.replicated()
	if len(got) != len(want) {
		t.Fatalf("replicated %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replicated %v, want %v", got, want)
		}
	}

	// Non-session routes bypass the session router.
	if code, _, _ := getRaw(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz through router: %d", code)
	}
	// A prefix collision is not a session path.
	if code, _, _ := getRaw(t, ts.URL+"/v1/sessionsfoo"); code != http.StatusNotFound {
		t.Fatalf("/v1/sessionsfoo: %d, want 404", code)
	}
	// The collection route only accepts POST.
	if code, _, _ := getRaw(t, ts.URL+"/v1/sessions"); code == http.StatusOK {
		t.Fatalf("GET collection route: %d, want an error status", code)
	}
}

// TestRouterForward places the session on a remote node: the front
// must proxy the whole lifecycle and relay bodies and headers.
func TestRouterForward(t *testing.T) {
	owner, _, ownerTS := newRouterNode(t, "b")
	front := New(Config{})
	fc := &fakeCluster{self: "a", routes: []string{"b"}, addrs: map[string]string{"b": ownerTS.URL}}
	frontTS := httptest.NewServer(NewRouter(front, fc))
	t.Cleanup(func() {
		frontTS.Close()
		front.Close()
	})

	var info SessionInfo
	if code := doJSON(t, http.MethodPost, frontTS.URL+"/v1/sessions", map[string]any{"cores": 2}, &info); code != http.StatusCreated {
		t.Fatalf("forwarded create: %d", code)
	}
	if !owner.HasSession(info.ID) {
		t.Fatal("session did not land on the owner")
	}
	if front.HasSession(info.ID) {
		t.Fatal("session leaked onto the front")
	}

	path := frontTS.URL + "/v1/sessions/" + info.ID
	sub := SubmitRequest{Tasks: []trace.Record{{ID: 7, Cycles: 4, Arrival: 0.3}}}
	if code := doJSON(t, http.MethodPost, path+"/tasks", sub, nil); code != http.StatusOK {
		t.Fatalf("forwarded submit: %d", code)
	}
	code, body, hdr := getRaw(t, path+"/events")
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"arrival"`)) {
		t.Fatalf("forwarded events: %d %q", code, body)
	}
	if hdr.Get("X-Event-Count") == "" {
		t.Fatal("forward dropped X-Event-Count")
	}
	var dr DrainResponse
	if code := doJSON(t, http.MethodDelete, path, nil, &dr); code != http.StatusOK || dr.Tasks != 1 {
		t.Fatalf("forwarded drain: %d, %d tasks", code, dr.Tasks)
	}
	if v := front.Registry().Snapshot().Counters[obs.ClusterForwards]; v == 0 {
		t.Fatal("ClusterForwards stayed 0 across a forwarded lifecycle")
	}
	// Errors forward byte-for-byte too.
	if code := doJSON(t, http.MethodGet, frontTS.URL+"/v1/sessions/unknown", nil, nil); code != http.StatusNotFound {
		t.Fatalf("forwarded unknown session: %d, want 404", code)
	}
}

// refusedAddr returns a loopback URL that refuses connections.
func refusedAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return "http://" + addr
}

// TestRouterFailover exercises the candidate chain: a refused owner
// fails over to the next candidate (here: ourselves), any other
// transport error is surfaced as 502, and an empty chain is 503.
func TestRouterFailover(t *testing.T) {
	_, fc, ts := newRouterNode(t, "a")
	fc.addrs["dead"] = refusedAddr(t)

	fc.mu.Lock()
	fc.routes = []string{"dead", "a"}
	fc.mu.Unlock()
	var info SessionInfo
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", map[string]any{"cores": 2}, &info); code != http.StatusCreated {
		t.Fatalf("create via failover: %d", code)
	}
	fc.mu.Lock()
	obsErr, seen := fc.observed["dead"]
	fc.mu.Unlock()
	if !seen || obsErr == nil {
		t.Fatal("refused connection was not observed as down")
	}

	// Refused connection with no next candidate: 503 after the loop.
	fc.mu.Lock()
	fc.routes = []string{"dead"}
	fc.mu.Unlock()
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+info.ID, nil, nil); code != http.StatusBadGateway {
		t.Fatalf("refused-only chain: %d, want 502", code)
	}

	// A malformed peer address is not a refused connection: 502, no
	// failover even with a live candidate behind it.
	fc.addrs["bad"] = "http://\x7f"
	fc.mu.Lock()
	fc.routes = []string{"bad", "a"}
	fc.mu.Unlock()
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+info.ID, nil, nil); code != http.StatusBadGateway {
		t.Fatalf("non-refused transport error: %d, want 502", code)
	}

	// No live candidates at all: 503.
	fc.mu.Lock()
	fc.routes = nil
	fc.mu.Unlock()
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+info.ID, nil, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("empty chain: %d, want 503", code)
	}
}

// TestRouterReplicationVeto: a failed replication suppresses the ack
// for submits (502; the client retries idempotently) but degrades for
// other mutations; a failed EnsureLocal fails the request outright.
func TestRouterReplicationVeto(t *testing.T) {
	s, fc, ts := newRouterNode(t, "a")

	fc.mu.Lock()
	fc.replicateErr = errors.New("replica unreachable")
	fc.mu.Unlock()

	// Create degrades: 201 despite the replication failure.
	var info SessionInfo
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", map[string]any{"cores": 2}, &info); code != http.StatusCreated {
		t.Fatalf("create with failing replication: %d", code)
	}

	// Submit is vetoed: 502 and the ack is suppressed — but the tasks
	// were accepted locally, so a retry sees duplicate IDs.
	path := ts.URL + "/v1/sessions/" + info.ID
	sub := SubmitRequest{Tasks: []trace.Record{{ID: 1, Cycles: 5, Arrival: 0.1}}}
	if code := doJSON(t, http.MethodPost, path+"/tasks", sub, nil); code != http.StatusBadGateway {
		t.Fatalf("submit with failing replication: %d, want 502", code)
	}
	if v := s.Registry().Snapshot().Counters[obs.ClusterReplicationErrors]; v == 0 {
		t.Fatal("ClusterReplicationErrors stayed 0")
	}

	fc.mu.Lock()
	fc.replicateErr = nil
	fc.ensureErr = errors.New("replica state corrupt")
	fc.mu.Unlock()
	if code := doJSON(t, http.MethodGet, path, nil, nil); code != http.StatusInternalServerError {
		t.Fatalf("EnsureLocal failure: %d, want 500", code)
	}
}

func TestValidSessionID(t *testing.T) {
	for _, tc := range []struct {
		id string
		ok bool
	}{
		{"s-n1-000001", true},
		{"A.b_c-9", true},
		{"", false},
		{"has space", false},
		{"slash/y", false},
		{string(make([]byte, 65)), false},
	} {
		if got := ValidID(tc.id); got != tc.ok {
			t.Errorf("ValidID(%q) = %v, want %v", tc.id, got, tc.ok)
		}
	}
}

// TestAdoptSessionParity is the in-package handoff drill: run a
// session on one server, take its log, adopt it on a second server,
// and require the adopted session to serve and drain exactly like the
// original would have.
func TestAdoptSessionParity(t *testing.T) {
	owner, ts := newTestServer(t, Config{})
	id := createSession(t, ts.URL)
	recs := make([]trace.Record, 12)
	for i := range recs {
		recs[i] = trace.Record{ID: i + 1, Cycles: 2 + float64(i), Arrival: float64(i) * 0.05}
	}
	submitOver(t, ts.URL, id, recs[:8], true)
	submitOver(t, ts.URL, id, recs[8:], true)

	ctx := context.Background()
	spec, ok := owner.SessionSpec(id)
	if !ok {
		t.Fatal("owner lost the session spec")
	}
	log, err := logSince(owner, id, 0)
	if err != nil {
		t.Fatal(err)
	}

	standby, standbyTS := newTestServer(t, Config{})
	if _, err := standby.AdoptSession(ctx, "bad id!", spec, log); err == nil {
		t.Fatal("AdoptSession accepted an invalid ID")
	}
	info, err := standby.AdoptSession(ctx, id, spec, log)
	if err != nil {
		t.Fatal(err)
	}
	if info.Submitted != len(recs) {
		t.Fatalf("adopted session carries %d submitted tasks, want %d", info.Submitted, len(recs))
	}
	if _, err := standby.AdoptSession(ctx, id, spec, log); err == nil {
		t.Fatal("AdoptSession accepted a duplicate ID")
	}

	// The owner and the adopted copy drain to the same trace, bit for
	// bit — the log replay loses nothing.
	var drOwner, drAdopted DrainResponse
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil, &drOwner); code != http.StatusOK {
		t.Fatalf("owner drain: %d", code)
	}
	if code := doJSON(t, http.MethodDelete, standbyTS.URL+"/v1/sessions/"+id, nil, &drAdopted); code != http.StatusOK {
		t.Fatalf("adopted drain: %d", code)
	}
	if drOwner.Tasks != drAdopted.Tasks || drOwner.TotalCost != drAdopted.TotalCost {
		t.Fatalf("drain diverged: owner %d tasks cost %g, adopted %d tasks cost %g",
			drOwner.Tasks, drOwner.TotalCost, drAdopted.Tasks, drAdopted.TotalCost)
	}
	_, evOwner, _ := getRaw(t, ts.URL+"/v1/sessions/"+id+"/events")
	_, evAdopted, _ := getRaw(t, standbyTS.URL+"/v1/sessions/"+id+"/events")
	if !bytes.Equal(evOwner, evAdopted) {
		t.Fatal("adopted trace is not byte-identical to the owner's")
	}
}

// TestReplaySessionErrors covers a bad spec and an empty log, which
// rebuilds an empty session.
func TestReplaySessionErrors(t *testing.T) {
	ctx := context.Background()
	if _, err := ReplaySession(ctx, PlatformSpec{Cores: -1}, nil); err == nil {
		t.Fatal("ReplaySession accepted a bad spec")
	}
	rb, err := ReplaySession(ctx, PlatformSpec{Cores: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Submitted != 0 || rb.Sess.Pending() != 0 || rb.Rec.Len() != 0 {
		t.Fatalf("empty log rebuilt %d tasks, %d pending, %d events", rb.Submitted, rb.Sess.Pending(), rb.Rec.Len())
	}
}

// countdownCtx reports no error on its first n Err calls and
// context.Canceled after: a context that ends at a chosen poll.
type countdownCtx struct {
	context.Context
	n int
}

func (c *countdownCtx) Err() error {
	if c.n > 0 {
		c.n--
		return nil
	}
	return context.Canceled
}

// TestReplaySessionEndsWhereTheLogEnds rebuilds a 16-core session whose
// log ends inside a canceled drain — retryable, so still live and
// replicated. The rebuild must match the source's clock, pending count
// and last Seq, not stop at the last arrival. A log the engine cannot
// end on exactly (cut inside one step, or naming an event past the
// engine's last) is refused.
func TestReplaySessionEndsWhereTheLogEnds(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var info SessionInfo
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", PlatformSpec{Cores: 16}, &info); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	for b := 0; b < 40; b++ {
		recs := make([]trace.Record, 64)
		for i := range recs {
			id := b*64 + i
			recs[i] = trace.Record{ID: id, Cycles: 1 + float64(id%13), Arrival: float64(id) / 6400}
		}
		submitOver(t, ts.URL, info.ID, recs, false)
	}
	sh, _ := s.sessions.get(info.ID)
	before := sh.rec.LastSeq()
	// The lock wait and the drain's first poll see a live context; the
	// second poll, a few hundred events in, sees it canceled.
	resp, err := sh.do(&countdownCtx{Context: context.Background(), n: 2}, opDrain)
	if err != nil || !errors.Is(resp.err, core.ErrCanceled) {
		t.Fatalf("drain: %v / %v, want a canceled drain", err, resp.err)
	}
	st, err := sh.do(context.Background(), opStatus)
	if err != nil || st.drained || st.pending == 0 || sh.rec.LastSeq() == before {
		t.Fatalf("after the canceled drain: %v, drained %v, %d pending, seq %d -> %d", err, st.drained, st.pending, before, sh.rec.LastSeq())
	}
	log, err := logSince(s, info.ID, 0)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	rb, err := ReplaySession(ctx, info.PlatformSpec, log)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(rb.Sess.Clock()) != math.Float64bits(st.clock) || rb.Sess.Pending() != st.pending || rb.Rec.LastSeq() != sh.rec.LastSeq() {
		t.Fatalf("rebuilt clock %v, pending %d, last seq %d; source %v, %d, %d",
			rb.Sess.Clock(), rb.Sess.Pending(), rb.Rec.LastSeq(), st.clock, st.pending, sh.rec.LastSeq())
	}

	cut := -1
	for i, ev := range log {
		if ev.Kind == obs.KindComplete {
			cut = i + 1
			break
		}
	}
	if cut < 0 || log[cut].Kind != obs.KindCoreIdle {
		t.Fatal("log has no completion followed by its idle event")
	}
	// Far past anything the session's remaining work emits.
	extra := log[len(log)-1]
	extra.Seq += 1 << 20
	for name, bad := range map[string][]obs.Event{
		"cut inside a step":      log[:cut],
		"past the engine's last": append(log[:len(log):len(log)], extra),
	} {
		if _, err := ReplaySession(ctx, info.PlatformSpec, bad); err == nil {
			t.Errorf("%s: ReplaySession accepted a log the engine cannot end on", name)
		}
	}
}

// closeBody is a response body that records Close, so tests can pin
// the forwarding path's cleanup contract.
type closeBody struct {
	io.Reader
	closed bool
}

func (b *closeBody) Close() error { b.closed = true; return nil }

// scriptedTransport returns canned responses or errors without a
// network, in call order.
type scriptedTransport struct {
	mu    sync.Mutex
	calls int
	round func(call int, r *http.Request) (*http.Response, error)
}

func (st *scriptedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	st.mu.Lock()
	call := st.calls
	st.calls++
	st.mu.Unlock()
	return st.round(call, r)
}

// TestRouterForwardClosesBody: a forwarded response body must be
// closed after the relay, or sustained forwarding pins every upstream
// connection the transport ever opened.
func TestRouterForwardClosesBody(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	fc := &fakeCluster{self: "a", routes: []string{"b"}, addrs: map[string]string{"b": "http://peer-b"}}
	rt := NewRouter(s, fc)

	body := &closeBody{Reader: strings.NewReader(`{"id":"x"}`)}
	rt.SetTransport(&scriptedTransport{round: func(int, *http.Request) (*http.Response, error) {
		return &http.Response{
			StatusCode: http.StatusOK,
			Header:     http.Header{"Content-Type": []string{"application/json"}},
			Body:       body,
		}, nil
	}})

	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sessions/x/result", nil))
	if rec.Code != http.StatusOK || rec.Body.String() != `{"id":"x"}` {
		t.Fatalf("relay = %d %q, want 200 with the peer's body", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Content-Type") != "application/json" {
		t.Fatal("relay dropped Content-Type")
	}
	if !body.closed {
		t.Fatal("forwarded response body was not closed")
	}
}

// TestRouterFailoverClosesNothing: a refused connection fails over to
// the next candidate (here: local), marks the dead peer down, and the
// request still succeeds; any body a later candidate returns is still
// closed.
func TestRouterFailoverRefusedConn(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	fc := &fakeCluster{self: "a", routes: []string{"b", "a"}, addrs: map[string]string{"b": "http://peer-b"}}
	rt := NewRouter(s, fc)
	refused := &net.OpError{Op: "dial", Err: &os.SyscallError{Syscall: "connect", Err: syscall.ECONNREFUSED}}
	rt.SetTransport(&scriptedTransport{round: func(int, *http.Request) (*http.Response, error) {
		return nil, refused
	}})

	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sessions/nope/result", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("failover to local = %d, want the local 404", rec.Code)
	}
	fc.mu.Lock()
	obsErr := fc.observed["b"]
	fc.mu.Unlock()
	if obsErr == nil {
		t.Fatal("refused peer was not observed down")
	}
}
