package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sort"

	"dvfsched/internal/server"
)

// Membership is the wire form of one cluster view: a monotonically
// increasing epoch plus the full node ID -> base URL map. Views are
// immutable values — a join or leave never edits a view in place, it
// proposes a whole new one at epoch+1, so two nodes holding the same
// epoch hold byte-identical peer maps and therefore identical rings.
type Membership struct {
	Epoch uint64            `json:"epoch"`
	Peers map[string]string `json:"peers"`
}

// membership is the resolved in-memory form of one epoch: the peer map
// plus the consistent-hash ring built from it. Node holds the current
// one behind an atomic pointer; readers (routing, replication target
// selection, the prober) load it once per operation and see a
// consistent epoch/peers/ring triple even while an admin operation
// installs the next view.
type membership struct {
	epoch uint64
	peers map[string]string
	ring  *Ring
}

// newMembership validates and resolves a wire view.
func newMembership(m Membership) (*membership, error) {
	if len(m.Peers) == 0 {
		return nil, fmt.Errorf("cluster: membership epoch %d has no peers", m.Epoch)
	}
	ids := make([]string, 0, len(m.Peers))
	for id, addr := range m.Peers {
		if !server.ValidID(id) {
			return nil, fmt.Errorf("cluster: invalid node ID %q: want 1-64 chars of [A-Za-z0-9._-]", id)
		}
		if addr == "" {
			return nil, fmt.Errorf("cluster: peer %q has no address", id)
		}
		ids = append(ids, id)
	}
	ring, err := NewRing(ids, DefaultVNodes)
	if err != nil {
		return nil, err
	}
	peers := make(map[string]string, len(m.Peers))
	for id, addr := range m.Peers {
		peers[id] = addr
	}
	return &membership{epoch: m.Epoch, peers: peers, ring: ring}, nil
}

// wire converts back to the broadcastable form.
func (m *membership) wire() Membership {
	peers := make(map[string]string, len(m.peers))
	for id, addr := range m.peers {
		peers[id] = addr
	}
	return Membership{Epoch: m.epoch, Peers: peers}
}

// nodeIDs returns the view's members, sorted.
func (m *membership) nodeIDs() []string {
	ids := make([]string, 0, len(m.peers))
	for id := range m.peers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// view returns the node's current membership snapshot.
func (n *Node) view() *membership { return n.membership.Load() }

// Epoch implements server.Cluster: the current membership epoch,
// stamped on forwarded requests so a node holding an older view learns
// it is stale and pulls the newer one (maybeSyncMembership).
func (n *Node) Epoch() uint64 { return n.view().epoch }

// applyMembership installs a strictly newer view. Older or equal
// epochs are ignored (not an error: broadcasts and anti-entropy race
// benignly). Liveness state for departed peers is pruned so the
// peers_down gauge doesn't count nodes that are no longer members.
func (n *Node) applyMembership(m Membership) (bool, error) {
	next, err := newMembership(m)
	if err != nil {
		return false, err
	}
	n.viewMu.Lock()
	cur := n.membership.Load()
	if next.epoch <= cur.epoch {
		n.viewMu.Unlock()
		return false, nil
	}
	n.membership.Store(next)
	n.epochGauge.Set(float64(next.epoch))
	n.viewMu.Unlock()

	n.mu.Lock()
	for id := range n.down {
		if _, ok := next.peers[id]; !ok {
			delete(n.down, id)
		}
	}
	n.peersDown.Set(float64(len(n.down)))
	n.mu.Unlock()
	n.membershipSyncs.Inc()
	n.rehomeReplicas()
	return true, nil
}

// rehomeReplicas re-ships every locally owned session's replica after
// an epoch flip. Replicate already chases the ring — it re-opens and
// re-ships in full when the session's first chain candidate changes —
// but only on the session's next mutation. A session that goes quiet
// across a membership change would otherwise keep its only replica on
// a node the new ring never routes to (worst case: one that just left
// the ring), voiding the "acked implies replicated" durability promise
// for exactly the sessions a later failover must rebuild. Shipping here
// is synchronous: the membership push that triggered the flip does not
// ack before this node's sessions are re-covered, so an admin join or
// leave returns with replicas already tracking the new chain. Failures
// are best-effort — a failed ship degrades to the pre-existing
// next-mutation retry.
func (n *Node) rehomeReplicas() {
	ctx, cancel := context.WithTimeout(context.Background(), adminTimeout)
	defer cancel()
	for _, id := range n.srv.LiveSessionIDs(ctx) {
		_ = n.Replicate(ctx, id, server.MutationCreate)
	}
}

// --- membership HTTP endpoints ---

// handleMembershipGet is GET /v1/cluster/membership: the node's
// current view, used by joiners and by epoch-triggered anti-entropy.
func (n *Node) handleMembershipGet(w http.ResponseWriter, r *http.Request) {
	writeClusterJSON(w, n.view().wire())
}

// handleMembershipPost is POST /v1/cluster/membership: a peer pushing
// a (possibly newer) view at us. The reply is always our current view
// after the merge, so push doubles as a two-way sync.
func (n *Node) handleMembershipPost(w http.ResponseWriter, r *http.Request) {
	var m Membership
	if err := decodeClusterJSON(r.Body, &m); err != nil {
		httpError(w, http.StatusBadRequest, "decode membership: %v", err)
		return
	}
	if _, err := n.applyMembership(m); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeClusterJSON(w, n.view().wire())
}

// maybeSyncMembership reacts to a forwarded request stamped with a
// newer epoch than ours: pull the sender's view in the background,
// single-flight. senderAddr comes from the request header, not the
// peer map — the whole point is that our map may not know the sender
// yet.
func (n *Node) maybeSyncMembership(remoteEpoch uint64, senderAddr string) {
	if senderAddr == "" || remoteEpoch <= n.Epoch() {
		return
	}
	if !n.syncing.CompareAndSwap(false, true) {
		return
	}
	//dvfslint:allow goroleak one-shot bounded pull: pullMembership runs under a shipTimeout context deadline, so the goroutine exits within one timeout
	go func() {
		defer n.syncing.Store(false)
		n.pullMembership(senderAddr)
	}()
}

// pullMembership fetches a peer's view by address and applies it.
func (n *Node) pullMembership(addr string) {
	ctx, cancel := context.WithTimeout(context.Background(), shipTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/v1/cluster/membership", nil)
	if err != nil {
		return
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var m Membership
	if err := decodeClusterJSON(resp.Body, &m); err != nil {
		return
	}
	// Anti-entropy is best effort; a bad view is ignored and retried on
	// the next stale forward.
	_, _ = n.applyMembership(m)
}

// broadcastMembership pushes the current view to every peer except
// self, best effort: a peer that misses the push converges through
// anti-entropy the next time a stamped forward reaches it.
func (n *Node) broadcastMembership(ctx context.Context) {
	v := n.view()
	body := mustClusterJSON(v.wire())
	for _, id := range v.nodeIDs() {
		if id == n.cfg.ID {
			continue
		}
		err := n.doAddr(ctx, http.MethodPost, v.peers[id], "/v1/cluster/membership", "application/json", body, shipTimeout)
		if !isStatusError(err) {
			n.Observe(id, err)
		}
	}
}

// epochAware wraps the node's HTTP surface: every request stamped by a
// router with a newer epoch triggers an async membership pull before
// being served, so a node that missed a broadcast converges on first
// contact instead of routing on a stale ring indefinitely.
func (n *Node) epochAware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if eh := r.Header.Get(server.EpochHeader); eh != "" {
			var remote uint64
			if _, err := fmt.Sscanf(eh, "%d", &remote); err == nil {
				n.maybeSyncMembership(remote, r.Header.Get(server.SenderAddrHeader))
			}
		}
		next.ServeHTTP(w, r)
	})
}
