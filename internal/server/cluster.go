package server

import (
	"context"
	"fmt"

	"dvfsched/internal/core"
	"dvfsched/internal/obs"
)

// SessionIDHeader carries a caller-chosen session ID on POST
// /v1/sessions. The cluster router mints the ID before routing the
// create, so placement on the consistent-hash ring is decided from the
// ID the client will be handed back.
const SessionIDHeader = "X-Dvfs-Session-Id"

// EpochHeader stamps forwarded requests with the sender's membership
// epoch; a receiver holding an older view uses it (plus
// SenderAddrHeader) to pull the newer membership — anti-entropy
// without a gossip subsystem.
const EpochHeader = "X-Dvfs-Epoch"

// SenderAddrHeader carries the forwarding node's own base URL, so a
// receiver that doesn't know the sender yet (it may have joined after
// the receiver's view was built) can still sync membership from it.
const SenderAddrHeader = "X-Dvfs-Sender-Addr"

// forwardHopsHeader counts router-to-router forwards; requests at the
// limit are refused instead of orbiting a transiently inconsistent
// placement or ring view.
const forwardHopsHeader = "X-Dvfs-Forward-Hops"

// ValidID is the one rule for session and node IDs: 1-64 characters
// of [A-Za-z0-9._-], safe in URL paths, ring keys, log lines and frame
// headers without escaping.
func ValidID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// RebuiltSession is the product of ReplaySession: a live online
// session whose recorder already holds the complete reconstructed
// trace, plus the accepted-task count carried over from the original
// owner.
type RebuiltSession struct {
	Spec      PlatformSpec
	Rec       *obs.Recorder
	Sess      *core.OnlineSession
	Submitted int
}

// ReplaySession rebuilds a live session from its event log: the
// log's arrivals replay through core.OnlineSession.ReplayTrace, and
// the engine re-derives the schedule it had committed to — LMC's
// choices are a deterministic function of the arrivals — then steps
// on to the log's last Seq, so the rebuild's clock, pending work and
// trace are the source's. A log the engine cannot end on exactly is
// refused. Promotion and migration both rebuild this way.
func ReplaySession(ctx context.Context, spec PlatformSpec, log []obs.Event) (*RebuiltSession, error) {
	spec, params, plat, err := spec.normalize()
	if err != nil {
		return nil, err
	}
	rec := &obs.Recorder{}
	sched, err := core.New(params, plat, core.WithSink(rec))
	if err != nil {
		return nil, err
	}
	sess, err := sched.OpenOnline(ctx)
	if err != nil {
		return nil, err
	}
	n, err := sess.ReplayTrace(ctx, log)
	if err != nil {
		return nil, err
	}
	return &RebuiltSession{Spec: spec, Rec: rec, Sess: sess, Submitted: n}, nil
}

// HasSession reports whether id is registered (live or tombstoned).
func (s *Server) HasSession(id string) bool {
	_, ok := s.sessions.get(id)
	return ok
}

// SessionSpec returns the platform spec a session was created with.
func (s *Server) SessionSpec(id string) (PlatformSpec, bool) {
	sh, ok := s.sessions.get(id)
	if !ok {
		return PlatformSpec{}, false
	}
	return sh.spec, true
}

// AppendSessionEventsSince appends the session's committed events with
// Seq > after to dst, in emission order: the events of whole
// operations only, never the head of one still running. It reads the
// shard's recorder directly (internally locked), so it never waits for
// the session's lock; the replication stream reuses one pooled scratch
// slice per frame build, so a ship costs no event-slice allocation.
func (s *Server) AppendSessionEventsSince(id string, after uint64, dst []obs.Event) ([]obs.Event, error) {
	sh, ok := s.sessions.get(id)
	if !ok {
		return dst, fmt.Errorf("%w: %s", ErrSessionGone, id)
	}
	// Load the commit point before reading: every event up to it is
	// already recorded.
	committed, n := sh.committed.Load(), len(dst)
	dst = sh.rec.AppendSince(dst, after)
	for len(dst) > n && dst[len(dst)-1].Seq > committed {
		dst = dst[:len(dst)-1]
	}
	return dst, nil
}

// SessionLastSeq returns the sequence number of the last event of the
// session's last finished operation (0 when none). A mutation that
// just committed reads it to learn which replication ack covers its
// own events.
func (s *Server) SessionLastSeq(id string) (uint64, error) {
	sh, ok := s.sessions.get(id)
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrSessionGone, id)
	}
	return sh.committed.Load(), nil
}

// HandoffSession freezes a live session for migration and returns
// its admitted-task count. The freeze happens under the session's
// lock, so the log ends between two submissions; from that moment
// every mutation against the shard is fenced with ErrSessionMigrating
// until AbortHandoff or FinishHandoff, and the log read for the handoff
// (AppendSessionEventsSince) is the whole history.
// A drained session returns ErrSessionDrained (tombstones don't
// migrate); a session already frozen returns ErrSessionMigrating.
func (s *Server) HandoffSession(ctx context.Context, id string) (int, error) {
	sh, ok := s.sessions.get(id)
	if !ok {
		return 0, s.sessionErr(id, fmt.Errorf("%w: %s", ErrSessionGone, id))
	}
	resp, err := sh.do(ctx, opHandoff)
	if err != nil {
		return 0, s.sessionErr(id, err)
	}
	return resp.submitted, resp.err
}

// AbortHandoff lifts a migration freeze after a failed ship: the shard
// resumes serving here, still authoritative, nothing lost. The context
// is ignored: a ship often fails because the migration's context ended,
// and the unfreeze must land all the same.
func (s *Server) AbortHandoff(_ context.Context, id string) error {
	sh, ok := s.sessions.get(id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrSessionGone, id)
	}
	sh.unfreeze()
	return nil
}

// FinishHandoff retires the local shard after a successful migration
// flip: the shard is purged and a moved marker (target node) is left
// behind, so requests racing the flip get a retryable 503
// (ErrSessionMoved) instead of a terminal 404.
func (s *Server) FinishHandoff(id, target string) {
	s.sessions.markMoved(id, target)
}

// DropSession removes a session shard without draining it — the
// cluster uses it to discard a partially adopted handoff whose
// integrity check failed. Not for general use: tasks pending in the
// dropped engine are abandoned.
func (s *Server) DropSession(id string) {
	s.sessions.remove(id)
}

// SessionMovedTo reports where a migrated-away session went, if a
// moved marker exists for id.
func (s *Server) SessionMovedTo(id string) (string, bool) {
	return s.sessions.movedTo(id)
}

// LiveSessionIDs returns the IDs of every live (not drained) local
// session, in ID order — the rebalance/evacuate work list.
func (s *Server) LiveSessionIDs(ctx context.Context) []string {
	var out []string
	for _, sh := range s.sessions.all() {
		resp, err := sh.do(ctx, opStatus)
		if err == nil && resp.err == nil && !resp.drained {
			out = append(out, sh.id)
		}
	}
	return out
}

// AdoptSession rebuilds a session from its event log (ReplaySession)
// and installs it as a live shard under its original ID: the cluster
// failover path, and (via the handoff endpoint) the planned migration
// path. The adopted shard serves exactly like a locally created one —
// submits, drain, events.
func (s *Server) AdoptSession(ctx context.Context, id string, spec PlatformSpec, log []obs.Event) (SessionInfo, error) {
	if !ValidID(id) {
		return SessionInfo{}, fmt.Errorf("invalid session ID %q", id)
	}
	rb, err := ReplaySession(ctx, spec, log)
	if err != nil {
		return SessionInfo{}, err
	}
	// Read the session before adopt publishes it; afterwards it is
	// touched only under the shard's lock.
	clock, pending := rb.Sess.Clock(), rb.Sess.Pending()
	sh, err := s.sessions.adopt(id, rb)
	if err != nil {
		return SessionInfo{}, err
	}
	return SessionInfo{
		ID:           sh.id,
		PlatformSpec: sh.spec,
		Clock:        clock,
		Pending:      pending,
		Submitted:    rb.Submitted,
	}, nil
}
