package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"

	"dvfsched/internal/obs"
	"dvfsched/internal/server"
)

// Planned migration: drain-and-handoff. The state machine, per session:
//
//	serving --freeze--> frozen --ship--> shipped --flip--> moved
//	              \                 \
//	               \                 `--ship failed--> unfreeze --> serving
//	                `--(drained/gone)--> error, nothing changed
//
// freeze happens under the session's lock (server opHandoff): the log
// ends between two submissions, and every later mutation is fenced
// with 503 session_migrating. ship sends what the replica stream
// sends: the spec and the full "DVFB" event log in one frame, the
// stream's open frame from seq 0 (Node.build), plus the admitted-task
// count and the pin. The target rebuilds the session by replaying the
// log exactly, the way a promotion does (server.ReplaySession), and
// refuses the handoff unless the rebuild holds the sender's task
// count. flip installs the placement record (locally, on the target at
// adopt, and broadcast to the rest), retires the local shard behind a
// moved marker, and drops the old replica chain with a sender-fenced
// drop frame. The fencing rule that
// makes admission exactly-once: a submit either lands before the
// freeze (it is then in the shipped log), or it is fenced with a
// retryable 503 and its retry routes to the new owner. No interleaving
// admits twice, because the old engine never runs again after the
// freeze.

// migrateRequest is the body of POST /v1/cluster/sessions/{id}/migrate.
type migrateRequest struct {
	// Target is the destination node ID; empty means the session's ring
	// owner under the current view (useful to un-pin a session).
	Target string `json:"target,omitempty"`
}

// MigrateInfo is the migrate endpoint's reply.
type MigrateInfo struct {
	Session string `json:"session"`
	From    string `json:"from"`
	To      string `json:"to"`
	Epoch   uint64 `json:"epoch"`
	Pinned  bool   `json:"pinned"`
}

// handleMigrate is POST /v1/cluster/sessions/{id}/migrate: the operator
// entry point. Any node accepts the call; a node that isn't the
// session's current home proxies it to the first routed candidate, so
// the handoff itself always runs owner-side.
func (n *Node) handleMigrate(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req migrateRequest
	if err := decodeClusterJSON(r.Body, &req); err != nil && !errors.Is(err, io.EOF) {
		httpError(w, http.StatusBadRequest, "decode migrate request: %v", err)
		return
	}
	v := n.view()
	target := req.Target
	if target == "" {
		target = v.ring.Owner(id)
	}
	if _, ok := v.peers[target]; !ok {
		httpError(w, http.StatusBadRequest, "unknown target node %q", target)
		return
	}
	if !n.alive(target) {
		httpError(w, http.StatusServiceUnavailable, "target node %q is down", target)
		return
	}

	if !n.srv.HasSession(id) {
		// Not ours: proxy to the session's current home so the freeze
		// runs where the shard lives.
		cands := n.Route(id)
		if len(cands) == 0 {
			httpError(w, http.StatusServiceUnavailable, "no live node for session %q", id)
			return
		}
		if cands[0] != n.cfg.ID {
			n.proxyMigrate(w, r.Context(), cands[0], id, req)
			return
		}
	}

	// Operator migrations to an off-ring target are pinned: later
	// rebalances leave the session where the operator put it. A migrate
	// to the ring owner (explicit or defaulted) just realigns with the
	// ring and needs no pin.
	pinned := target != v.ring.Owner(id)
	if target == n.cfg.ID {
		if n.srv.HasSession(id) {
			// Already home; record the pin if the operator asked for an
			// off-ring placement (e.g. re-pinning after an epoch bump).
			if pinned {
				p := Placement{Session: id, Owner: n.cfg.ID, Pinned: true}
				n.setPlacement(p)
				n.broadcastPlacement(r.Context(), p)
			}
			writeClusterJSON(w, MigrateInfo{Session: id, From: n.cfg.ID, To: target, Epoch: v.epoch, Pinned: pinned})
			return
		}
		httpError(w, http.StatusNotFound, "no session %q on this node", id)
		return
	}
	if err := n.migrateSession(r.Context(), id, target, pinned); err != nil {
		n.writeMigrateError(w, id, err)
		return
	}
	writeClusterJSON(w, MigrateInfo{Session: id, From: n.cfg.ID, To: target, Epoch: v.epoch, Pinned: pinned})
}

// writeMigrateError maps migration failures onto the envelope.
func (n *Node) writeMigrateError(w http.ResponseWriter, id string, err error) {
	switch {
	case errors.Is(err, server.ErrSessionGone), errors.Is(err, server.ErrSessionMoved):
		httpError(w, http.StatusNotFound, "migrate %s: %v", id, err)
	case errors.Is(err, server.ErrSessionDrained):
		httpError(w, http.StatusConflict, "migrate %s: drained sessions cannot move: %v", id, err)
	case errors.Is(err, server.ErrSessionMigrating):
		httpError(w, http.StatusConflict, "migrate %s: already migrating", id)
	default:
		httpError(w, http.StatusBadGateway, "migrate %s: %v", id, err)
	}
}

// proxyMigrate relays the operator call to the session's current home
// and forwards the reply verbatim (same envelope either way).
func (n *Node) proxyMigrate(w http.ResponseWriter, ctx context.Context, home, id string, req migrateRequest) {
	var buf shipBuf
	status, err := n.call(ctx, adminTimeout, &buf, n.view().peers[home], "/v1/cluster/sessions/"+id+"/migrate", mustClusterJSON(req), nil)
	if status == 0 {
		n.Observe(home, err)
		httpError(w, http.StatusBadGateway, "proxy migrate to %s: %v", home, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Status already written; nothing useful to do on a failed relay
	// write.
	_, _ = w.Write(buf.resp)
}

// migrateSession performs the owner-side drain-and-handoff of one live
// local session to target. On any failure after the freeze, the shard
// is unfrozen and keeps serving here — the flip is the last step, so
// there is never a moment with zero or two authoritative owners.
func (n *Node) migrateSession(ctx context.Context, id, target string, pinned bool) error {
	addr, ok := n.view().peers[target]
	if !ok {
		return fmt.Errorf("unknown target node %q", target)
	}
	return n.migrateSessionTo(ctx, id, target, addr, pinned)
}

// migrateSessionTo is migrateSession with the target's address resolved
// by the caller: a join rebalance migrates sessions to the joiner
// before the epoch flips, so the target's address exists only in the
// proposed view, not this node's current one.
func (n *Node) migrateSessionTo(ctx context.Context, id, target, addr string, pinned bool) error {
	if target == n.cfg.ID {
		return fmt.Errorf("session %s already on %s", id, target)
	}
	// Freeze: the log ends between two submissions, and a mutation
	// fence goes up. The freeze also serializes migrations: a second
	// one finds the session frozen and gets ErrSessionMigrating.
	submitted, err := n.srv.HandoffSession(ctx, id)
	if err != nil {
		return err
	}
	// Ship: the stream's open frame from seq 0 — spec and whole log —
	// plus the handoff fields. The target's replay re-derives the
	// complete history, so the byte-identical-trace guarantee covers
	// the whole stream.
	var buf shipBuf
	_, _, err = n.build(&buf, frameHeader{ID: id, Submitted: submitted, Pinned: pinned}, true, 0)
	if err == nil {
		_, err = n.call(ctx, adminTimeout, &buf, addr, "/v1/cluster/handoff/"+id, buf.body, nil)
		if err != nil && !isStatusError(err) {
			n.Observe(target, err)
		}
	}
	if err != nil {
		if aerr := n.srv.AbortHandoff(ctx, id); aerr != nil {
			return fmt.Errorf("handoff to %s failed (%v) and unfreeze failed: %w", target, err, aerr)
		}
		return fmt.Errorf("handoff session %s to %s: %w", id, target, err)
	}

	// Flip: from here on the target is authoritative. Install the
	// placement locally first — it fences this node's own routing and
	// EnsureLocal — then tell the rest; the target installed its own
	// placement when it adopted.
	p := Placement{Session: id, Owner: target, Pinned: pinned}
	n.setPlacement(p)
	n.srv.FinishHandoff(id, target)
	n.broadcastPlacement(ctx, p)
	// Retire the ship cursor and drop the replica on our old target: the
	// target now replicates the session along its own chain, and a stale
	// cold copy must never outlive us to promote ancient state. The drop
	// is fenced by sender, so it spares a replica the new owner already
	// opened there. A replica held here is the new owner's — it
	// re-protected onto its first ring candidate before acking — so it
	// stays. Best effort; a leaked replica tombstone is dropped on ID
	// reuse or restart.
	_ = n.Replicate(ctx, id, server.MutationPurge)
	n.migrations.Inc()
	return nil
}

// handleHandoff is POST /v1/cluster/handoff/{id} (internal): the
// receiving half of a migration. The body is a frame that names the
// session and carries its spec and full binary event log. Adoption
// replays the log exactly (server.ReplaySession), so the adopted trace
// is the sender's, byte for byte.
func (n *Node) handleHandoff(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	in := frameIntakePool.Get().(*frameIntake)
	hdr, blob, err := in.read(r)
	if err == nil && (hdr.ID != id || hdr.Spec == nil) {
		err = errors.New("want a frame naming the session, with its spec")
	}
	var events []obs.Event
	if err == nil && len(blob) > 0 {
		if events, err = in.decodeEvents(blob); err != nil {
			err = fmt.Errorf("decode log: %w", err)
		}
	}
	var info server.SessionInfo
	var adoptErr error
	if err == nil {
		// Any cold replica we held for this session is strictly older
		// than the handoff state; drop it before adopting so EnsureLocal
		// cannot race a promotion against the adopt.
		n.replicas.drop(id)
		info, adoptErr = n.srv.AdoptSession(r.Context(), id, *hdr.Spec, events)
	}
	in.trim()
	frameIntakePool.Put(in)
	switch {
	case err != nil:
		httpError(w, http.StatusBadRequest, "handoff %s: %v", id, err)
		return
	case errors.Is(adoptErr, server.ErrSessionExists):
		httpError(w, http.StatusConflict, "handoff %s: %v", id, adoptErr)
		return
	case adoptErr != nil:
		httpError(w, http.StatusInternalServerError, "handoff %s: adopt: %v", id, adoptErr)
		return
	}
	if info.Submitted != hdr.Submitted {
		// The rebuilt engine disagrees with the sender about how many
		// tasks it holds: refuse the handoff and discard the partial
		// adoption so the sender unfreezes and stays authoritative.
		n.srv.DropSession(id)
		httpError(w, http.StatusConflict, "handoff %s: rebuilt %d submitted tasks, sender had %d", id, info.Submitted, hdr.Submitted)
		return
	}
	n.setPlacement(Placement{Session: id, Owner: n.cfg.ID, Pinned: hdr.Pinned})
	// Re-protect immediately: ship the adopted session to this node's
	// own replica target before acking, so a post-migration owner kill
	// is survivable from the first moment. Best effort — with no other
	// live candidate the session runs unreplicated, as any solo session
	// does.
	// Replication degrades gracefully; the next acked submit re-ships
	// before acking.
	_ = n.Replicate(r.Context(), id, server.MutationCreate)
	writeClusterJSON(w, info)
}
