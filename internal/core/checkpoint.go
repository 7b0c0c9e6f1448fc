package core

import (
	"context"

	"dvfsched/internal/sim"
)

// Snapshot serializes the session's complete state — virtual clock,
// per-core run state, pending work, and the LMC policy's queues and
// cost structures — into a self-describing binary checkpoint. Restore
// it with Scheduler.RestoreOnline; the restored session continues from
// this point exactly. A traced session can also be rebuilt from its
// trace alone with ReplayTrace. The session remains usable after a
// snapshot.
func (o *OnlineSession) Snapshot() ([]byte, error) {
	cp, err := o.sess.Snapshot()
	if err != nil {
		return nil, err
	}
	return cp.MarshalBinary()
}

// RestoreOnline rebuilds an online session from a Snapshot-produced
// checkpoint. The scheduler must be configured with the same platform
// and cost constants the snapshot was taken under (the checkpoint's
// internal validation rejects mismatches); sinks and metrics may
// differ — the restored session's events continue the original
// sequence numbers into whatever sink this scheduler wires in.
func (s *Scheduler) RestoreOnline(ctx context.Context, snapshot []byte) (*OnlineSession, error) {
	if err := ctx.Err(); err != nil {
		return nil, wrapCanceled(err)
	}
	cp, err := sim.UnmarshalCheckpoint(snapshot)
	if err != nil {
		return nil, err
	}
	lmc, err := s.newLMC()
	if err != nil {
		return nil, err
	}
	sess, err := sim.RestoreSession(sim.Config{Platform: s.plat, Policy: lmc, Sink: s.sink}, s.params, cp)
	if err != nil {
		return nil, err
	}
	return &OnlineSession{sess: sess, lmc: lmc}, nil
}
