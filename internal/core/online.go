package core

import (
	"context"
	"fmt"

	"dvfsched/internal/model"
	"dvfsched/internal/online"
	"dvfsched/internal/sim"
)

// OnlineSession is a long-lived online-mode scheduling session: a
// Least Marginal Cost policy attached to an incrementally-driven
// virtual-time engine. Unlike RunOnline, which needs the whole trace
// up front, a session accepts arrivals as they become known — the
// shape a network-facing scheduler daemon needs. Methods must be
// called from a single goroutine.
type OnlineSession struct {
	sess *sim.Session
	lmc  *online.LMC
}

// OpenOnline starts an online session on the scheduler's platform with
// its cost constants, wiring in the scheduler's sink, metrics and
// envelope cache.
func (s *Scheduler) OpenOnline(ctx context.Context) (*OnlineSession, error) {
	if err := ctx.Err(); err != nil {
		return nil, wrapCanceled(err)
	}
	lmc, err := s.newLMC()
	if err != nil {
		return nil, err
	}
	sess, err := sim.OpenSession(sim.Config{Platform: s.plat, Policy: lmc, Sink: s.sink}, s.params)
	if err != nil {
		return nil, err
	}
	return &OnlineSession{sess: sess, lmc: lmc}, nil
}

// Submit feeds a batch of arrivals into the session and advances
// virtual time to the latest arrival in the batch: the session's "now"
// is the newest arrival it has heard about, so earlier work may still
// be queued or running when the next batch lands. Task IDs must be
// unique across the session's lifetime and arrivals must not precede
// the session clock. Canceling ctx aborts the advance with an error
// matching ErrCanceled.
func (o *OnlineSession) Submit(ctx context.Context, tasks model.TaskSet) error {
	if len(tasks) == 0 {
		return ErrEmptySubmission
	}
	if err := o.sess.Inject(tasks); err != nil {
		return err
	}
	latest := tasks[0].Arrival
	for _, t := range tasks {
		if t.Arrival > latest {
			latest = t.Arrival
		}
	}
	return wrapCanceled(o.sess.AdvanceTo(ctx, latest))
}

// Admit feeds a batch of arrivals like Submit, but tolerates stale
// timestamps: any arrival earlier than the session clock is clamped up
// to the clock instead of rejected. Submit's strict check is right for
// replaying a recorded trace, where a stale arrival is corrupt input;
// Admit is the ingestion contract a serving daemon needs, where many
// clients stamp arrivals concurrently and a submit that lost the race
// into the shard queue would otherwise be bounced by time having moved
// on — an error the client can do nothing useful with. Clamped tasks
// are modified in place (the caller yields ownership of the slice, as
// with Inject), and the batch is then applied exactly like Submit:
// inject, then advance to the latest arrival.
func (o *OnlineSession) Admit(ctx context.Context, tasks model.TaskSet) error {
	if len(tasks) == 0 {
		return ErrEmptySubmission
	}
	now := o.sess.Clock()
	latest := now
	for i := range tasks {
		if tasks[i].Arrival < now {
			tasks[i].Arrival = now
		}
		if tasks[i].Arrival > latest {
			latest = tasks[i].Arrival
		}
	}
	if err := o.sess.Inject(tasks); err != nil {
		return err
	}
	return wrapCanceled(o.sess.AdvanceTo(ctx, latest))
}

// Clock returns the session's virtual time in seconds.
func (o *OnlineSession) Clock() float64 { return o.sess.Clock() }

// Pending returns the number of submitted tasks not yet completed.
func (o *OnlineSession) Pending() int { return o.sess.Pending() }

// Drain runs every submitted task to completion and returns the final
// measured result. The session cannot be used after a successful
// drain; after a canceled one it remains usable (and Drain may be
// retried).
func (o *OnlineSession) Drain(ctx context.Context) (*sim.Result, error) {
	res, err := o.sess.Finish(ctx)
	if err != nil {
		return nil, wrapCanceled(err)
	}
	return res, nil
}

// Close ends the caller's use of an undrained session. A session owns
// no goroutines or other resources beyond memory, so there is nothing
// to release: Close is a no-op, kept for callers that defer it.
func (o *OnlineSession) Close() {}

// String identifies the session's policy, for logs.
func (o *OnlineSession) String() string {
	return fmt.Sprintf("online session (%s, pending %d)", o.lmc.Name(), o.Pending())
}
