package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dvfsched/internal/obs"
	"dvfsched/internal/server"
)

// maxReplicaBody bounds internal replication request bodies; matches
// the public API's cap.
const maxReplicaBody = 64 << 20

// Config wires a Node.
type Config struct {
	// ID is this node's name; must be a key of Peers and consist of
	// [A-Za-z0-9._-] (it is embedded in minted session IDs).
	ID string
	// Peers maps node ID -> base URL (http://host:port) for the seed
	// membership, including this node. It is only the epoch-1 view:
	// joins and leaves (POST/DELETE /v1/cluster/nodes/{id}) replace the
	// membership at runtime.
	Peers map[string]string
}

// shipTimeout bounds each replication RPC. Admin RPCs are paced in
// multiples of it.
const shipTimeout = 5 * time.Second

// Node is one cluster member: it fronts a server.Server through a
// server.Router (any node serves any session), owns the sessions the
// ring places on it, replicates them to the next live node, and holds
// cold replica state for sessions owned elsewhere, promoting them when
// their owner dies. Safe for concurrent use by the HTTP stack.
type Node struct {
	cfg     Config
	srv     *server.Server
	router  *server.Router
	handler http.Handler
	// transport carries every node-to-node call: the router's
	// forwards, the replica stream, admin RPCs and probes.
	transport *peerTransport

	// membership is the current epoch'd view (peers + ring), swapped
	// atomically by joins/leaves; viewMu serializes the writers.
	membership atomic.Pointer[membership]
	viewMu     sync.Mutex

	// placeMu guards placements, the per-session routing overrides
	// installed by migrations (admin.go).
	placeMu    sync.Mutex
	placements map[string]Placement

	// adminBusy serializes whole-membership operations (join/leave) on
	// this coordinator. A session's migrations are serialized by its
	// handoff freeze.
	adminBusy atomic.Bool
	// syncing single-flights the epoch-triggered anti-entropy pull.
	syncing atomic.Bool

	// mu guards down, the liveness view. Peers are marked down by
	// failed forwards/ships (or the background prober) and up again by
	// any successful exchange.
	mu   sync.Mutex
	down map[string]bool

	replicas replicaStore

	// shipsMu guards the streaming plane: ships (per-owned-session
	// replication cursors, each with its one frame in flight) and the
	// closed flag. Never held across I/O; a landing frame wakes its
	// waiters after unlock.
	shipsMu     sync.Mutex
	ships       map[string]*shipCursor
	shipsClosed bool

	seq atomic.Uint64

	shipsTotal      *obs.Counter
	promotions      *obs.Counter
	peersDown       *obs.Gauge
	epochGauge      *obs.Gauge
	migrations      *obs.Counter
	membershipSyncs *obs.Counter
	shipFrames      *obs.Counter
	shipHeals       *obs.Counter
	shipInflight    *obs.Gauge
	frameEvents     *obs.Histogram
	shipAckWait     *obs.Histogram
}

// NewNode builds a node over its server. The server must be fronted
// exclusively through Node.Handler — bypassing the router would serve
// sessions without placement or replication.
func NewNode(cfg Config, srv *server.Server) (*Node, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: no peers configured")
	}
	ids := make([]string, 0, len(cfg.Peers))
	for id := range cfg.Peers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	if _, ok := cfg.Peers[cfg.ID]; !ok {
		return nil, fmt.Errorf("cluster: node ID %q is not in the peer list %v", cfg.ID, ids)
	}
	seed, err := newMembership(Membership{Epoch: 1, Peers: cfg.Peers})
	if err != nil {
		return nil, err
	}
	reg := srv.Registry()
	n := &Node{
		cfg: cfg,
		srv: srv,
		// Every call site bounds itself with a context deadline
		// (shipTimeout for replication, adminTimeout for fan-out admin
		// RPCs); the router's forwards below share the pool.
		transport:       newPeerTransport(),
		placements:      map[string]Placement{},
		down:            map[string]bool{},
		replicas:        replicaStore{m: map[string]*replica{}},
		ships:           map[string]*shipCursor{},
		shipsTotal:      reg.Counter(obs.ClusterShips),
		promotions:      reg.Counter(obs.ClusterPromotions),
		peersDown:       reg.Gauge(obs.ClusterPeersDown),
		epochGauge:      reg.Gauge(obs.ClusterEpoch),
		migrations:      reg.Counter(obs.ClusterMigrations),
		membershipSyncs: reg.Counter(obs.ClusterMembershipSyncs),
		shipFrames:      reg.Counter(obs.ClusterShipFrames),
		shipHeals:       reg.Counter(obs.ClusterShipHeals),
		shipInflight:    reg.Gauge(obs.ClusterShipInflight),
		frameEvents:     reg.Histogram(obs.ClusterShipFrameEvents, obs.ExpBuckets(1, 4, 10)),
		shipAckWait:     reg.Histogram(obs.ClusterShipAckWait, obs.ExpBuckets(1e-4, 4, 10)),
	}
	n.membership.Store(seed)
	n.epochGauge.Set(1)
	n.router = server.NewRouter(srv, n)
	n.router.SetTransport(n.transport)

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cluster/replica/frame", n.handleReplicaFrame)
	mux.HandleFunc("GET /v1/cluster/membership", n.handleMembershipGet)
	mux.HandleFunc("POST /v1/cluster/membership", n.handleMembershipPost)
	mux.HandleFunc("POST /v1/cluster/nodes/{id}", n.handleNodeJoin)
	mux.HandleFunc("DELETE /v1/cluster/nodes/{id}", n.handleNodeLeave)
	mux.HandleFunc("POST /v1/cluster/sessions/{id}/migrate", n.handleMigrate)
	mux.HandleFunc("POST /v1/cluster/handoff/{id}", n.handleHandoff)
	mux.HandleFunc("POST /v1/cluster/rebalance", n.handleRebalance)
	mux.HandleFunc("POST /v1/cluster/evacuate", n.handleEvacuate)
	mux.HandleFunc("POST /v1/cluster/placement/{id}", n.handlePlacementPut)
	mux.HandleFunc("GET /v1/cluster/route", n.handleRoute)
	mux.HandleFunc("GET /v1/cluster/info", n.handleInfo)
	mux.Handle("/", n.router)
	n.handler = n.epochAware(mux)
	return n, nil
}

// Handler returns the node's HTTP surface: the public scheduler API
// routed by session placement, plus the internal /v1/cluster/*
// replication endpoints.
func (n *Node) Handler() http.Handler { return n.handler }

// Self implements server.Cluster.
func (n *Node) Self() string { return n.cfg.ID }

// Addr implements server.Cluster, resolving against the current view.
func (n *Node) Addr(node string) string { return n.view().peers[node] }

// Route implements server.Cluster: the session's full live failover
// chain, owner first. A live placement owner (a migrated session's
// home) outranks the ring; the ring chain follows as failover, because
// that is where the placement owner ships its replicas.
func (n *Node) Route(sessionID string) []string {
	v := n.view()
	cands := v.ring.Candidates(sessionID, len(v.peers), n.alive)
	p, ok := n.placementOf(sessionID)
	if !ok || p.Owner == "" {
		return cands
	}
	if _, member := v.peers[p.Owner]; !member || !n.alive(p.Owner) {
		// The placed owner is gone; fall back to the ring chain, where
		// its replica lives and promotes lazily.
		return cands
	}
	out := make([]string, 0, len(cands)+1)
	out = append(out, p.Owner)
	for _, c := range cands {
		if c != p.Owner {
			out = append(out, c)
		}
	}
	return out
}

// NewSessionID implements server.Cluster. IDs carry the minting node
// and a local counter, so concurrent fronts never collide.
func (n *Node) NewSessionID() string {
	return fmt.Sprintf("s-%s-%06d", n.cfg.ID, n.seq.Add(1))
}

// Observe implements server.Cluster: transport failures mark a peer
// down, successful exchanges mark it up.
func (n *Node) Observe(node string, err error) {
	if node == n.cfg.ID {
		return
	}
	if _, ok := n.view().peers[node]; !ok {
		return
	}
	n.mu.Lock()
	if err != nil {
		n.down[node] = true
	} else {
		delete(n.down, node)
	}
	n.peersDown.Set(float64(len(n.down)))
	n.mu.Unlock()
}

func (n *Node) alive(node string) bool {
	if node == n.cfg.ID {
		return true
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return !n.down[node]
}

// StartProber launches a background goroutine probing every peer's
// /healthz each interval, so dead peers are discovered (and revived
// peers welcomed back) without waiting for a request to fail against
// them. The returned stop function blocks until the prober exits.
func (n *Node) StartProber(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				n.probeOnce(interval)
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

func (n *Node) probeOnce(timeout time.Duration) {
	// The prober follows the current view each tick, so members that
	// joined after boot are probed and departed ones are not.
	v := n.view()
	buf := new(shipBuf)
	for _, id := range v.nodeIDs() {
		if id == n.cfg.ID {
			continue
		}
		status, err := n.call(context.Background(), timeout, buf, v.peers[id], "/healthz", nil, nil)
		if status != 0 {
			err = nil // a reply of any status shows a live peer
		}
		n.Observe(id, err)
	}
}

// EnsureLocal implements server.Cluster: the promotion path. If this
// node holds replica state for id but no live shard, the session is
// rebuilt by replaying its whole log and adopted; the next Replicate
// call re-ships the full log to a new replica.
//
// The migration fence lives here too: while a placement names another
// live node as the session's owner, this node must neither serve nor
// promote it — a request that raced past the ownership flip gets a
// retryable ErrSessionMoved instead of resurrecting pre-migration
// state (split brain). Only when the placed owner is dead does the
// normal lazy promotion take over, returning the session to the ring.
func (n *Node) EnsureLocal(ctx context.Context, id string) error {
	if p, ok := n.placementOf(id); ok && p.Owner != n.cfg.ID && n.alive(p.Owner) {
		if _, member := n.view().peers[p.Owner]; member {
			return fmt.Errorf("cluster: %w: session %s is on %s", server.ErrSessionMoved, id, p.Owner)
		}
	}
	// The moved marker is the second fence, and the only one that holds
	// on the node that migrated the session away itself. During a join,
	// the old owner hands sessions to the joiner BEFORE the epoch flips,
	// so for a moment its view does not contain the new owner at all:
	// the placement fence above cannot see it (not a member), old-ring
	// routing still points here, and the new owner's first replication
	// ship may already have deposited a replica of the session on this
	// node. Promoting that replica would fork acknowledged state. Refuse
	// unless the moved-target is a member this node has observed down —
	// the one case where promotion is genuine failover.
	if target, ok := n.srv.SessionMovedTo(id); ok && target != n.cfg.ID {
		if _, member := n.view().peers[target]; !member || n.alive(target) {
			return fmt.Errorf("cluster: %w: session %s is on %s", server.ErrSessionMoved, id, target)
		}
	}
	if n.srv.HasSession(id) {
		return nil
	}
	rep, ok := n.replicas.get(id)
	if !ok {
		return nil // no state here: the operation sees the local 404
	}
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if n.srv.HasSession(id) {
		return nil // lost the promotion race; the winner's shard serves
	}
	if _, err := n.srv.AdoptSession(ctx, id, rep.spec, rep.log.Events()); err != nil {
		return fmt.Errorf("cluster: promote session %s: %w", id, err)
	}
	n.promotions.Inc()
	// Promotion returns the session to ring placement: a stale
	// placement record pointing at the dead owner must not outrank us.
	n.dropPlacement(id)
	// The shard's recorder now carries the full trace; the replica
	// copy is dead weight.
	n.replicas.drop(id)
	return nil
}

// replicaTarget picks the session's replica: the first live candidate
// on the ring that is not this node. "" means the cluster has no other
// live node and the session runs unreplicated until one returns.
func (n *Node) replicaTarget(id string) string {
	for _, cand := range n.Route(id) {
		if cand != n.cfg.ID {
			return cand
		}
	}
	return ""
}

// statusError is a non-2xx reply from a replication endpoint — the
// peer is alive but refused, so it must not be marked down.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("status %d: %s", e.code, e.body)
}

func isStatusError(err error) bool {
	var se *statusError
	return errors.As(err, &se)
}

// callHeader is the header set of every request call sends. The
// transport only reads request headers, so one shared map serves all
// concurrent calls.
var callHeader = http.Header{"Content-Type": {"application/json"}}

// call is the node's one request path: every node-to-node request but
// the router's forwards is built, sent and read here. It sends body to
// the peer at base URL addr (which need not be in the view: a joiner
// is not yet), as a POST, or as a GET when body is nil, under timeout
// on ctx, and reads the reply into buf.resp, at most maxReplicaBody
// bytes. The request's body reader, its GetBody, which lets the
// transport re-send a request none of whose bytes reached a reused
// connection, and the reply buffer come from buf, so a call on a
// pooled buf allocates little beyond the request itself.
//
// It returns the reply's status, 0 when no reply arrived. The error is
// the transport's when no reply arrived, a *statusError for a non-2xx
// reply (the peer is alive but refused), or a failure to read the
// reply or decode it into out when out is non-nil. A caller that
// passes no out acts on the status alone, so a reply read short fails
// only a call that decodes it.
func (n *Node) call(ctx context.Context, timeout time.Duration, buf *shipBuf, addr, path string, body []byte, out any) (int, error) {
	u, err := url.Parse(addr + path)
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req := &http.Request{Method: http.MethodGet, URL: u, Host: u.Host, Header: callHeader, Body: http.NoBody}
	if body != nil {
		buf.rd.Reset(body)
		req.Method, req.Body, req.ContentLength = http.MethodPost, io.NopCloser(&buf.rd), int64(len(body))
		req.GetBody = func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(body)), nil
		}
	}
	resp, err := n.transport.RoundTrip(req.WithContext(ctx))
	if err != nil {
		return 0, err
	}
	buf.resp, err = appendLimitedRead(buf.resp[:0], resp.Body, maxReplicaBody)
	resp.Body.Close()
	switch {
	case err != nil && out != nil:
		return resp.StatusCode, err
	case resp.StatusCode < 200 || resp.StatusCode >= 300:
		msg := bytes.TrimSpace(buf.resp[:min(len(buf.resp), 1024)])
		return resp.StatusCode, &statusError{code: resp.StatusCode, body: string(msg)}
	case out != nil:
		if err := json.Unmarshal(buf.resp, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decode reply from %s: %w", u, err)
		}
	}
	return resp.StatusCode, nil
}
