package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"dvfsched/internal/obs"
)

// Mutation classifies a state-changing session operation for
// replication: after serving one locally, the router asks the cluster
// to ship the resulting state to the session's replica before the
// response is released.
type Mutation string

const (
	// MutationCreate: the session was opened (POST /v1/sessions).
	MutationCreate Mutation = "create"
	// MutationSubmit: tasks were accepted (POST .../tasks). The only
	// mutation whose replication failure fails the request — an
	// unreplicated ack would let an owner kill lose an accepted task.
	MutationSubmit Mutation = "submit"
	// MutationDrain: the session was drained to its final result
	// (first DELETE).
	MutationDrain Mutation = "drain"
	// MutationPurge: the tombstone was removed (second DELETE).
	MutationPurge Mutation = "purge"
)

// Cluster is the contract the Router needs from the cluster control
// plane (internal/cluster implements it over a consistent-hash ring
// with log-shipped replication).
type Cluster interface {
	// Self is this node's ID.
	Self() string
	// Route returns the live candidate nodes for a session, owner
	// first, in failover order. Empty means no live node.
	Route(sessionID string) []string
	// Addr resolves a node ID to its base URL.
	Addr(node string) string
	// Observe reports the outcome of talking to a node: a non-nil
	// transport error marks it down, nil marks it up.
	Observe(node string, err error)
	// NewSessionID mints a cluster-unique session ID, used to place a
	// create on the ring before any node has registered the session.
	NewSessionID() string
	// EnsureLocal promotes a locally replicated session into a live
	// shard if this node holds replica state for id but no shard —
	// the failover path, invoked lazily on the first operation routed
	// here after the owner died. No local state is not an error: the
	// operation then sees the server's own 404.
	EnsureLocal(ctx context.Context, id string) error
	// Epoch is the membership epoch of the routing view in use; the
	// router stamps it (EpochHeader) on every forward so a peer with an
	// older view pulls the newer membership.
	Epoch() uint64
	// Replicate ships the session's unshipped log suffix to its
	// replica. Called after a mutation was served locally, before the
	// response is released.
	Replicate(ctx context.Context, id string, m Mutation) error
}

// Router fronts a Server in a cluster: session operations whose ring
// owner is this node are served locally (with replication on the
// mutation path); everything else is forwarded to the owner over HTTP,
// failing over to the next live candidate when the owner's socket is
// refused. Non-session routes (plan plane, healthz, metrics) are
// always local. The typed-error → status mapping is the single-node
// one: forwarded responses pass through byte-for-byte, and transport
// failures surface as 502.
type Router struct {
	srv       *Server
	cl        Cluster
	transport http.RoundTripper

	forwards      *obs.Counter
	forwardErrors *obs.Counter
	replErrors    *obs.Counter
}

// NewRouter wires a Router over a server and a cluster control plane.
func NewRouter(srv *Server, cl Cluster) *Router {
	reg := srv.Registry()
	return &Router{
		srv:           srv,
		cl:            cl,
		transport:     http.DefaultTransport,
		forwards:      reg.Counter(obs.ClusterForwards),
		forwardErrors: reg.Counter(obs.ClusterForwardErrors),
		replErrors:    reg.Counter(obs.ClusterReplicationErrors),
	}
}

// SetTransport replaces the transport forwards go through (by default
// http.DefaultTransport). The cluster node installs its own here, so
// forwards, ships and probes draw from one keep-alive connection pool
// per peer. Call before serving; the router does not lock it.
func (rt *Router) SetTransport(t http.RoundTripper) { rt.transport = t }

// forwardedHeaders are the response headers a forward relays.
var forwardedHeaders = []string{"Content-Type", "X-Event-Count"}

// maxForwardHops bounds router-to-router forwarding chains. Normal
// routing is one hop; a couple more can happen transiently while
// membership views converge after a join/leave. Past the limit the
// request is refused (503, retryable) rather than orbiting the ring.
const maxForwardHops = 8

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, ok := sessionIDFromPath(r.URL.Path)
	if !ok {
		rt.srv.ServeHTTP(w, r)
		return
	}
	if id == "" {
		if r.Method != http.MethodPost {
			rt.srv.ServeHTTP(w, r) // let the mux 404/405 it
			return
		}
		// A create is placed by the ID it will return: mint one here
		// (unless an upstream router already did) and route by it.
		id = r.Header.Get(SessionIDHeader)
		if id == "" {
			id = rt.cl.NewSessionID()
			r.Header.Set(SessionIDHeader, id)
		}
	}
	rt.route(w, r, id)
}

// sessionIDFromPath extracts {id} from /v1/sessions[/{id}[/...]]. The
// second result is false for non-session paths; a true result with an
// empty ID is the collection route (create).
func sessionIDFromPath(path string) (string, bool) {
	rest, ok := strings.CutPrefix(path, "/v1/sessions")
	if !ok {
		return "", false
	}
	if rest == "" || rest == "/" {
		return "", true
	}
	if rest[0] != '/' {
		return "", false // e.g. /v1/sessionsfoo
	}
	rest = rest[1:]
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest, true
}

// route serves the request on the first live candidate: locally when
// that candidate is this node, else by forwarding. A refused
// connection fails over to the next candidate — the node died without
// seeing the request, so retrying it elsewhere is safe for any method.
func (rt *Router) route(w http.ResponseWriter, r *http.Request, id string) {
	hops := 0
	if hv := r.Header.Get(forwardHopsHeader); hv != "" {
		hops, _ = strconv.Atoi(hv)
	}
	if hops >= maxForwardHops {
		writeError(w, http.StatusServiceUnavailable,
			"cluster: session %q forwarded %d times without an owner; membership views still converging, retry", id, hops)
		return
	}
	cands := rt.cl.Route(id)
	if len(cands) == 0 {
		writeError(w, http.StatusServiceUnavailable, "cluster: no live node for session %q", id)
		return
	}
	// Buffer the body once so it survives a failover re-send.
	var body []byte
	if r.Body != nil {
		var err error
		body, err = io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
		if err != nil {
			writeError(w, http.StatusBadRequest, "read body: %v", err)
			return
		}
	}
	for i, cand := range cands {
		if cand == rt.cl.Self() {
			rt.serveLocal(w, r, id, body)
			return
		}
		err := rt.forward(w, r, cand, body)
		if err == nil {
			return
		}
		rt.cl.Observe(cand, err)
		rt.forwardErrors.Inc()
		if !errors.Is(err, syscall.ECONNREFUSED) || i == len(cands)-1 {
			// Anything but a refused connection may have reached the
			// peer; surface it and let the client decide to retry.
			writeError(w, http.StatusBadGateway, "cluster: forward to %s: %v", cand, err)
			return
		}
	}
	writeError(w, http.StatusServiceUnavailable, "cluster: no live node for session %q", id)
}

// serveLocal runs the request through the local server. Reads stream
// straight to the client; mutations are buffered so replication can
// veto the ack (submits) or at least run before the response is
// released (create/drain/purge).
func (rt *Router) serveLocal(w http.ResponseWriter, r *http.Request, id string, body []byte) {
	if err := rt.cl.EnsureLocal(r.Context(), id); err != nil {
		rt.srv.writeAPIError(w, err, http.StatusInternalServerError)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	r.ContentLength = int64(len(body))
	mut := mutationOf(r)
	if mut == "" {
		rt.srv.ServeHTTP(w, r)
		return
	}
	bw := &bufferedResponse{header: http.Header{}}
	rt.srv.ServeHTTP(bw, r)
	if bw.status >= 200 && bw.status < 300 {
		m := mut
		if m == MutationDrain && bw.status == http.StatusNoContent {
			m = MutationPurge // second DELETE removes the tombstone
		}
		if err := rt.cl.Replicate(r.Context(), id, m); err != nil {
			rt.replErrors.Inc()
			if m == MutationSubmit {
				// Suppress the ack: the client retries, and the retry
				// is idempotent (a duplicate-ID 400 after a successful
				// but unacked replication means "already accepted").
				writeError(w, http.StatusBadGateway, "cluster: replicate session %s: %v", id, err)
				return
			}
			// Create/drain/purge degrade: the replica converges from
			// the next shipped log batch or the client's retry.
		}
	}
	bw.flush(w)
}

// mutationOf classifies the request; "" means a read.
func mutationOf(r *http.Request) Mutation {
	switch {
	case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/tasks"):
		return MutationSubmit
	case r.Method == http.MethodPost:
		return MutationCreate
	case r.Method == http.MethodDelete:
		return MutationDrain
	}
	return ""
}

// forward proxies the request to node and relays the response. A
// non-nil return means the response was NOT written and the caller may
// fail over; once any byte of the peer's response is relayed, errors
// are swallowed (the client sees a truncated body, as with any proxy).
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, node string, body []byte) error {
	// Twice the per-request budget: a forwarded request pays the remote
	// node's own RequestTimeout plus the hop. A deadline on the context,
	// not a client timeout, which net/http would watch with a timer
	// goroutine per request.
	ctx, cancel := context.WithTimeout(r.Context(), 2*rt.srv.cfg.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, r.Method, rt.cl.Addr(node)+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	if sid := r.Header.Get(SessionIDHeader); sid != "" {
		req.Header.Set(SessionIDHeader, sid)
	}
	// Stamp the forward with this node's view epoch and address (the
	// receiver's anti-entropy pull) and the incremented hop count (the
	// receiver's loop guard).
	req.Header.Set(EpochHeader, strconv.FormatUint(rt.cl.Epoch(), 10))
	req.Header.Set(SenderAddrHeader, rt.cl.Addr(rt.cl.Self()))
	hops := 0
	if hv := r.Header.Get(forwardHopsHeader); hv != "" {
		hops, _ = strconv.Atoi(hv)
	}
	req.Header.Set(forwardHopsHeader, strconv.Itoa(hops+1))
	resp, err := rt.transport.RoundTrip(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	rt.forwards.Inc()
	rt.cl.Observe(node, nil)
	h := w.Header()
	for _, k := range forwardedHeaders {
		if v := resp.Header.Get(k); v != "" {
			h.Set(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	// Status already relayed; a broken client read cannot be repaired here.
	_, _ = io.Copy(w, resp.Body)
	return nil
}

// bufferedResponse captures a handler's response so the router can run
// replication between the handler and the wire.
type bufferedResponse struct {
	header http.Header
	status int
	buf    bytes.Buffer
}

func (b *bufferedResponse) Header() http.Header { return b.header }

func (b *bufferedResponse) WriteHeader(code int) {
	if b.status == 0 {
		b.status = code
	}
}

func (b *bufferedResponse) Write(p []byte) (int, error) {
	if b.status == 0 {
		b.status = http.StatusOK
	}
	return b.buf.Write(p)
}

// flush replays the captured response onto the real writer.
func (b *bufferedResponse) flush(w http.ResponseWriter) {
	h := w.Header()
	for _, k := range headerKeys(b.header) {
		h[k] = b.header[k]
	}
	if b.status == 0 {
		b.status = http.StatusOK
	}
	w.WriteHeader(b.status)
	//dvfslint:allow errcheck-hot status already written; nothing useful to do on a failed body write
	_, _ = w.Write(b.buf.Bytes())
}

// headerKeys returns the header's keys sorted, for deterministic
// relay order.
func headerKeys(h http.Header) []string {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
