package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"

	"dvfsched/internal/server"
)

// Placement is a routing override: the session lives on Owner, wherever
// the ring would put it. A migration installs one at the ownership flip
// and broadcasts it; routing prefers a live placement owner over the
// ring chain. Pinned placements (operator migrations to an explicit
// off-ring target) survive rebalances; unpinned ones exist to bridge
// the window between a migration and the membership flip that makes the
// ring agree with it, and get rewritten by the next rebalance.
type Placement struct {
	Session string `json:"session"`
	Owner   string `json:"owner"`
	Pinned  bool   `json:"pinned"`
}

func (n *Node) placementOf(id string) (Placement, bool) {
	n.placeMu.Lock()
	defer n.placeMu.Unlock()
	p, ok := n.placements[id]
	return p, ok
}

func (n *Node) setPlacement(p Placement) {
	n.placeMu.Lock()
	n.placements[p.Session] = p
	n.placeMu.Unlock()
}

func (n *Node) dropPlacement(id string) {
	n.placeMu.Lock()
	delete(n.placements, id)
	n.placeMu.Unlock()
}

func (n *Node) placementIDs() []string {
	n.placeMu.Lock()
	defer n.placeMu.Unlock()
	out := make([]string, 0, len(n.placements))
	for id := range n.placements {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// broadcastPlacement pushes a placement record to every current peer
// except self and except the session's new owner, which installed its
// own at handoff time. Best effort: a node that misses the push still
// reaches the session through the ring chain's forward path once the
// membership flip lands.
func (n *Node) broadcastPlacement(ctx context.Context, p Placement) {
	v := n.view()
	body := mustClusterJSON(p)
	buf := new(shipBuf)
	for _, id := range v.nodeIDs() {
		if id == n.cfg.ID || id == p.Owner {
			continue
		}
		_, err := n.call(ctx, shipTimeout, buf, v.peers[id], "/v1/cluster/placement/"+p.Session, body, nil)
		if !isStatusError(err) {
			n.Observe(id, err)
		}
	}
}

// handlePlacementPut is POST /v1/cluster/placement/{id}: a peer
// announcing a session's post-migration owner.
func (n *Node) handlePlacementPut(w http.ResponseWriter, r *http.Request) {
	var p Placement
	if err := decodeClusterJSON(r.Body, &p); err != nil {
		httpError(w, http.StatusBadRequest, "decode placement: %v", err)
		return
	}
	id := r.PathValue("id")
	if p.Session == "" {
		p.Session = id
	}
	if p.Session != id || p.Owner == "" {
		httpError(w, http.StatusBadRequest, "placement session/owner mismatch for %q", id)
		return
	}
	n.setPlacement(p)
	w.WriteHeader(http.StatusNoContent)
}

// --- membership admin: join and leave ---

// joinRequest is the body of POST /v1/cluster/nodes/{id}.
type joinRequest struct {
	Addr string `json:"addr"`
}

// MembershipChange is the reply of a join or leave: the new view plus
// how many sessions the bounded-movement rebalance actually migrated.
type MembershipChange struct {
	Epoch  uint64   `json:"epoch"`
	Nodes  []string `json:"nodes"`
	Moved  int      `json:"moved"`
	Failed int      `json:"failed"`
}

// handleNodeJoin is POST /v1/cluster/nodes/{id}: add a node to the
// ring. The coordinator (whichever member received the call) pushes the
// proposed view to the joiner first, then asks every existing member to
// rebalance — migrating only the sessions whose owner changes under the
// new ring, the bounded fraction the ring's movement property promises
// — and only then flips the epoch everywhere. Ordering matters: while
// rebalancing runs, all routing still uses the old view, and every
// migrated session is reachable through its broadcast placement, so
// there is no window in which a session is addressed by a ring that
// doesn't know where it lives.
func (n *Node) handleNodeJoin(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req joinRequest
	if err := decodeClusterJSON(r.Body, &req); err != nil {
		httpError(w, http.StatusBadRequest, "decode join: %v", err)
		return
	}
	if !server.ValidID(id) {
		httpError(w, http.StatusBadRequest, "invalid node ID %q: want 1-64 chars of [A-Za-z0-9._-]", id)
		return
	}
	if req.Addr == "" {
		httpError(w, http.StatusBadRequest, "join %q: missing addr", id)
		return
	}
	if !n.adminBusy.CompareAndSwap(false, true) {
		httpError(w, http.StatusConflict, "another membership operation is in progress")
		return
	}
	defer n.adminBusy.Store(false)

	ctx := r.Context()
	cur := n.view()
	if have, ok := cur.peers[id]; ok {
		if have == req.Addr {
			// Idempotent re-join: already a member at that address.
			writeClusterJSON(w, MembershipChange{Epoch: cur.epoch, Nodes: cur.nodeIDs()})
			return
		}
		httpError(w, http.StatusConflict, "node %q already a member at %s", id, have)
		return
	}

	proposed := cur.wire()
	proposed.Epoch++
	proposed.Peers[id] = req.Addr

	// The joiner must hold the new view before any session can migrate
	// to it: an unreachable or misconfigured joiner aborts the join
	// with the cluster unchanged.
	if _, err := n.call(ctx, adminTimeout, new(shipBuf), req.Addr, "/v1/cluster/membership", mustClusterJSON(proposed), nil); err != nil {
		httpError(w, http.StatusBadGateway, "push membership to joiner %s: %v", req.Addr, err)
		return
	}

	moved, failed := n.rebalanceAll(ctx, cur, proposed)

	if _, err := n.applyMembership(proposed); err != nil {
		httpError(w, http.StatusInternalServerError, "apply membership: %v", err)
		return
	}
	n.broadcastMembership(ctx)
	writeClusterJSON(w, MembershipChange{Epoch: proposed.Epoch, Nodes: n.view().nodeIDs(), Moved: moved, Failed: failed})
}

// handleNodeLeave is DELETE /v1/cluster/nodes/{id}: drain a node out of
// the ring. The leaving node first migrates every live session it owns
// to that session's owner under the proposed view (evacuate); only if
// that fully succeeds — or the node is already unreachable, in which
// case its sessions fail over through their replicas — does the
// membership flip. The departed node keeps serving as a pure forwarding
// front until shut down: its view no longer contains itself, so it owns
// nothing and proxies everything.
func (n *Node) handleNodeLeave(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !n.adminBusy.CompareAndSwap(false, true) {
		httpError(w, http.StatusConflict, "another membership operation is in progress")
		return
	}
	defer n.adminBusy.Store(false)

	ctx := r.Context()
	cur := n.view()
	addr, ok := cur.peers[id]
	if !ok {
		httpError(w, http.StatusNotFound, "node %q is not a member", id)
		return
	}
	if len(cur.peers) == 1 {
		httpError(w, http.StatusConflict, "cannot remove the last node %q", id)
		return
	}

	proposed := cur.wire()
	proposed.Epoch++
	delete(proposed.Peers, id)

	moved, failed := 0, 0
	if id == n.cfg.ID {
		moved, failed = n.evacuateLocal(ctx, proposed)
		if failed > 0 {
			httpError(w, http.StatusConflict, "evacuate %s: %d of %d sessions failed to migrate; node stays", id, failed, failed+moved)
			return
		}
	} else if n.alive(id) {
		var rep MembershipChange
		_, err := n.call(ctx, adminTimeout, new(shipBuf), addr, "/v1/cluster/evacuate", mustClusterJSON(proposed), &rep)
		switch {
		case err == nil:
			moved, failed = rep.Moved, rep.Failed
		case isStatusError(err):
			// The node is alive but could not empty itself; removing it
			// anyway would strand live sessions. Abort.
			httpError(w, http.StatusConflict, "evacuate %s: %v; node stays", id, err)
			return
		default:
			// Unreachable: treat as dead. Its sessions fail over through
			// their replicas once routing stops listing it.
			n.Observe(id, err)
		}
	}

	if _, err := n.applyMembership(proposed); err != nil {
		httpError(w, http.StatusInternalServerError, "apply membership: %v", err)
		return
	}
	n.broadcastMembership(ctx)
	// Tell the departed node too (it is no longer in the view, so the
	// broadcast skipped it): with a view that excludes itself it owns
	// nothing and degrades to a forwarding front.
	if id != n.cfg.ID {
		// Best effort: a dead or partitioned node converges via
		// anti-entropy if it returns.
		_, _ = n.call(ctx, shipTimeout, new(shipBuf), addr, "/v1/cluster/membership", mustClusterJSON(proposed), nil)
	}
	writeClusterJSON(w, MembershipChange{Epoch: proposed.Epoch, Nodes: n.view().nodeIDs(), Moved: moved, Failed: failed})
}

// rebalanceAll runs the pre-flip rebalance for a join: every member of
// the old view — this node inline, the rest over RPC — migrates the
// live sessions whose owner changes under the proposed ring. A member
// that cannot be reached is skipped: its sessions keep serving where
// they are and move on a later rebalance or fail over if it dies.
func (n *Node) rebalanceAll(ctx context.Context, cur *membership, proposed Membership) (moved, failed int) {
	body := mustClusterJSON(proposed)
	buf := new(shipBuf)
	for _, member := range cur.nodeIDs() {
		if member == n.cfg.ID {
			mv, fl := n.rebalanceLocal(ctx, proposed)
			moved, failed = moved+mv, failed+fl
			continue
		}
		if !n.alive(member) {
			continue
		}
		var rep MembershipChange
		_, err := n.call(ctx, adminTimeout, buf, cur.peers[member], "/v1/cluster/rebalance", body, &rep)
		if err != nil {
			if !isStatusError(err) {
				n.Observe(member, err)
			}
			failed++
			continue
		}
		moved, failed = moved+rep.Moved, failed+rep.Failed
	}
	return moved, failed
}

// handleRebalance is POST /v1/cluster/rebalance (internal): the join
// coordinator asking this node to migrate away the live sessions whose
// owner changes under the proposed view.
func (n *Node) handleRebalance(w http.ResponseWriter, r *http.Request) {
	var proposed Membership
	if err := decodeClusterJSON(r.Body, &proposed); err != nil {
		httpError(w, http.StatusBadRequest, "decode membership: %v", err)
		return
	}
	moved, failed := n.rebalanceLocal(r.Context(), proposed)
	writeClusterJSON(w, MembershipChange{Epoch: proposed.Epoch, Moved: moved, Failed: failed})
}

// rebalanceLocal migrates every live local session whose owner under
// the proposed view is a different, reachable node. Pinned placements
// stay put — the operator chose their home explicitly. A failed
// migration leaves the session serving here under a self-placement, so
// post-flip routing still finds it.
func (n *Node) rebalanceLocal(ctx context.Context, proposed Membership) (moved, failed int) {
	next, err := newMembership(proposed)
	if err != nil {
		return 0, 0
	}
	for _, id := range n.srv.LiveSessionIDs(ctx) {
		if p, ok := n.placementOf(id); ok && p.Pinned && p.Owner == n.cfg.ID {
			continue
		}
		target := next.ring.Owner(id)
		if target == n.cfg.ID {
			continue
		}
		if target != n.cfg.ID && !n.alive(target) {
			continue // owner-to-be is down; keep serving here
		}
		if err := n.migrateSessionTo(ctx, id, target, next.peers[target], false); err != nil {
			failed++
			p := Placement{Session: id, Owner: n.cfg.ID}
			n.setPlacement(p)
			n.broadcastPlacement(ctx, p)
			continue
		}
		moved++
	}
	return moved, failed
}

// handleEvacuate is POST /v1/cluster/evacuate (internal): the leave
// coordinator asking this node to migrate away every live session it
// holds, targeting each session's owner under the proposed view (which
// no longer contains this node).
func (n *Node) handleEvacuate(w http.ResponseWriter, r *http.Request) {
	var proposed Membership
	if err := decodeClusterJSON(r.Body, &proposed); err != nil {
		httpError(w, http.StatusBadRequest, "decode membership: %v", err)
		return
	}
	moved, failed := n.evacuateLocal(r.Context(), proposed)
	if failed > 0 {
		httpError(w, http.StatusConflict, "evacuate: %d of %d sessions failed to migrate", failed, failed+moved)
		return
	}
	writeClusterJSON(w, MembershipChange{Epoch: proposed.Epoch, Moved: moved})
}

// evacuateLocal migrates every live local session to its owner under
// the proposed view. Drained tombstones are not migrated: their final
// results stay readable on this node until it shuts down (documented
// limitation — export traces before retiring a node).
func (n *Node) evacuateLocal(ctx context.Context, proposed Membership) (moved, failed int) {
	next, err := newMembership(proposed)
	if err != nil {
		return 0, 0
	}
	for _, id := range n.srv.LiveSessionIDs(ctx) {
		target := next.ring.Owner(id)
		if target == n.cfg.ID || !n.alive(target) {
			failed++
			continue
		}
		if err := n.migrateSessionTo(ctx, id, target, next.peers[target], false); err != nil {
			failed++
			continue
		}
		moved++
	}
	return moved, failed
}

// adminTimeout bounds coordinator-side admin RPCs (rebalance, evacuate,
// migrate proxy): they fan out into per-session migrations, so they get
// several ship budgets.
const adminTimeout = 6 * shipTimeout

// --- small JSON plumbing shared by the cluster planes ---

func decodeClusterJSON(body io.Reader, dst any) error {
	dec := json.NewDecoder(io.LimitReader(body, maxReplicaBody))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

func mustClusterJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// Only reachable with an unmarshalable type — a programming
		// error, not an input error.
		panic(fmt.Sprintf("cluster: marshal %T: %v", v, err))
	}
	return b
}
