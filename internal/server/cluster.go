package server

import (
	"context"
	"fmt"

	"dvfsched/internal/core"
	"dvfsched/internal/obs"
	"dvfsched/internal/sim"
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

// validSessionID accepts 1-64 characters of [A-Za-z0-9._-]: safe in
// URL paths, ring keys and log lines without escaping.
func validSessionID(id string) bool {
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

// ReplaySession rebuilds a live session from replicated state: the
// session's event log and, from a migration handoff only, the
// checkpoint (core.OnlineSession.Snapshot bytes) taken at the freeze.
// Without a checkpoint the log's arrivals replay through
// core.OnlineSession.ReplayTrace, and the engine re-derives the
// schedule it had committed to — LMC's choices are a deterministic
// function of the arrivals. A checkpoint must end the log (its EvSeq
// is the log's last Seq): the log is preloaded into the recorder, so
// the full history stays readable, the checkpoint restores the engine
// exactly, and nothing is replayed.
func ReplaySession(ctx context.Context, spec PlatformSpec, checkpoint []byte, log []obs.Event) (*RebuiltSession, error) {
	spec, params, plat, err := spec.normalize()
	if err != nil {
		return nil, err
	}
	rec := &obs.Recorder{}
	sched, err := core.New(params, plat, core.WithSink(rec))
	if err != nil {
		return nil, err
	}
	if len(checkpoint) == 0 {
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
	cp, err := sim.UnmarshalCheckpoint(checkpoint)
	if err != nil {
		return nil, fmt.Errorf("decode checkpoint: %w", err)
	}
	var lastSeq uint64
	if len(log) > 0 {
		lastSeq = log[len(log)-1].Seq
	}
	if cp.EvSeq != lastSeq {
		return nil, fmt.Errorf("checkpoint at seq %d does not end the log at seq %d", cp.EvSeq, lastSeq)
	}
	// The restored engine's events continue at EvSeq+1, right after the
	// preloaded log, so the trace stays byte-identical to the owner's.
	for _, ev := range log {
		rec.Emit(ev)
	}
	sess, err := sched.RestoreOnline(ctx, checkpoint)
	if err != nil {
		return nil, err
	}
	return &RebuiltSession{Spec: spec, Rec: rec, Sess: sess, Submitted: len(cp.Tasks)}, nil
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

// HandoffState is the payload of a planned migration: everything the
// target node needs to adopt the session and everything the trace
// guarantee needs — the checkpoint taken at the freeze and the full
// event log it ends, so the rebuilt recorder holds the complete
// byte-identical history.
type HandoffState struct {
	Spec       PlatformSpec
	Submitted  int
	Checkpoint []byte
	Events     []obs.Event
}

// HandoffSession freezes a live session for migration and returns its
// handoff state. The freeze happens under the session's lock, so the
// checkpoint lands between two submissions; from that moment every
// mutation against the shard is fenced with ErrSessionMigrating until
// AbortHandoff or FinishHandoff.
// A drained session returns ErrSessionDrained (tombstones don't
// migrate); a session already frozen returns ErrSessionMigrating.
func (s *Server) HandoffSession(ctx context.Context, id string) (*HandoffState, error) {
	sh, ok := s.sessions.get(id)
	if !ok {
		return nil, s.sessionErr(id, fmt.Errorf("%w: %s", ErrSessionGone, id))
	}
	resp, err := sh.do(ctx, opHandoff)
	if err != nil {
		return nil, s.sessionErr(id, err)
	}
	if resp.err != nil {
		return nil, resp.err
	}
	// The engine is frozen: the recorder is quiescent, so this read
	// observes exactly the events the checkpoint covers.
	return &HandoffState{
		Spec:       sh.spec,
		Submitted:  resp.submitted,
		Checkpoint: resp.snapshot,
		Events:     sh.rec.Events(),
	}, nil
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

// AdoptSession rebuilds a session from replicated state (ReplaySession)
// and installs it as a live shard under the dead owner's ID: the
// cluster failover path, and (via the handoff endpoint) the planned
// migration path. The adopted shard serves exactly like a locally
// created one — submits, snapshots, drain, events.
func (s *Server) AdoptSession(ctx context.Context, id string, spec PlatformSpec, checkpoint []byte, log []obs.Event) (SessionInfo, error) {
	if !validSessionID(id) {
		return SessionInfo{}, fmt.Errorf("invalid session ID %q", id)
	}
	rb, err := ReplaySession(ctx, spec, checkpoint, log)
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
