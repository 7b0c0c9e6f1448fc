package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"dvfsched/internal/core"
	"dvfsched/internal/model"
	"dvfsched/internal/obs"
	"dvfsched/internal/platform"
	"dvfsched/internal/sim"
)

// maxSessionWaiters bounds the callers queued for one session's lock;
// the next caller is shed with ErrBusy (HTTP 429) instead of queueing.
const maxSessionWaiters = 64

// shardOp selects the operation do performs. Submissions carry tasks
// and have their own entry point, shard.submit.
type shardOp int

const (
	opStatus shardOp = iota
	opDrain
	// opHandoff freezes the shard for a planned migration: the log
	// ends between two submissions, and every later mutation (submit,
	// drain) is fenced with ErrSessionMigrating until an unfreeze or a
	// purge.
	opHandoff
)

// shardResp is one operation's answer.
type shardResp struct {
	err       error
	clock     float64
	pending   int
	submitted int
	drained   bool
	// first marks the opDrain reply that actually performed the drain,
	// so lifecycle counters fire exactly once per session.
	first  bool
	result *sim.Result
}

// shard is one online session: a core.OnlineSession and its lifecycle
// state behind one mutex. Every operation (submit, status, drain,
// handoff freeze, unfreeze, purge) runs on the caller's own
// goroutine while holding mu, so the engine sees one caller at a time
// and the trace is the serial trace of the operations in lock order.
type shard struct {
	id   string
	spec PlatformSpec
	// rec records the session's event stream. The engine commits it at
	// the end of each operation, so the events endpoint and the
	// replication stream read whole operations from it without taking
	// mu.
	rec *obs.Recorder

	// waiting counts the callers queued for mu. Past
	// maxSessionWaiters a caller is shed with ErrBusy: backpressure at
	// the HTTP layer.
	waiting atomic.Int32

	mu        sync.Mutex
	sess      *core.OnlineSession
	submitted int
	// final and finalErr are the drain tombstone: they keep the trace
	// and final report readable until the shard is purged.
	final    *sim.Result
	finalErr error
	// frozen marks a handoff in progress: mutations are fenced with
	// ErrSessionMigrating so a submit racing the migration cannot land
	// on a state that has already been shipped (exactly-once across the
	// ownership flip). Only unfreeze clears it; a purge retires the
	// shard without clearing.
	frozen bool
	// gone marks a purged shard: a caller that looked it up before the
	// purge gets ErrSessionGone and never reaches the engine.
	gone bool
}

// newShard builds the session's scheduler with its recorder as sink
// and opens the session.
func newShard(id string, spec PlatformSpec, params model.CostParams, plat *platform.Platform) (*shard, error) {
	rec := &obs.Recorder{}
	sched, err := core.New(params, plat, core.WithSink(rec))
	if err != nil {
		return nil, err
	}
	sess, err := sched.OpenOnline(context.Background())
	if err != nil {
		return nil, err
	}
	return &shard{id: id, spec: spec, rec: rec, sess: sess}, nil
}

// queue counts the caller among mu's waiters, or sheds it with ErrBusy
// when maxSessionWaiters are queued already. A counted caller takes mu
// next and calls acquired.
func (sh *shard) queue() error {
	if sh.waiting.Add(1) > maxSessionWaiters {
		sh.waiting.Add(-1)
		return fmt.Errorf("%w: session %s", ErrBusy, sh.id)
	}
	return nil
}

// acquired ends the wait of a caller that now holds mu. A caller whose
// context ended while it waited gets the context error, and a caller
// of a purged shard ErrSessionGone; either must leave the engine
// untouched.
func (sh *shard) acquired(ctx context.Context) error {
	sh.waiting.Add(-1)
	if err := ctx.Err(); err != nil {
		return err
	}
	if sh.gone {
		return fmt.Errorf("%w: %s", ErrSessionGone, sh.id)
	}
	return nil
}

// submit applies one submission to the session. clamp selects Admit
// (stale arrivals clamped to the clock) over Submit (stale arrivals
// rejected). Session-level refusals come back in the reply's err.
func (sh *shard) submit(ctx context.Context, tasks model.TaskSet, clamp bool) (shardResp, error) {
	if err := sh.queue(); err != nil {
		return shardResp{}, err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.acquired(ctx); err != nil {
		return shardResp{}, err
	}
	var resp shardResp
	switch {
	case sh.frozen:
		resp.err = fmt.Errorf("%w: %s", ErrSessionMigrating, sh.id)
	case sh.final != nil || sh.finalErr != nil:
		resp.err = fmt.Errorf("%w: %s", ErrSessionDrained, sh.id)
	case clamp:
		resp.err = sh.sess.Admit(ctx, tasks)
	default:
		resp.err = sh.sess.Submit(ctx, tasks)
	}
	if resp.err != nil {
		return resp, nil
	}
	sh.submitted += len(tasks)
	resp.clock, resp.pending, resp.submitted = sh.sess.Clock(), sh.sess.Pending(), sh.submitted
	return resp, nil
}

// do performs one control operation. ctx bounds the wait for the lock
// and is threaded into Drain, so an HTTP deadline cancels the
// virtual-time advance it is paying for.
func (sh *shard) do(ctx context.Context, op shardOp) (shardResp, error) {
	if err := sh.queue(); err != nil {
		return shardResp{}, err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.acquired(ctx); err != nil {
		return shardResp{}, err
	}
	var resp shardResp
	drained := sh.final != nil || sh.finalErr != nil
	switch op {
	case opStatus:
		resp.submitted, resp.drained = sh.submitted, drained
		if sh.final != nil {
			resp.clock = sh.final.Makespan
		} else {
			resp.clock, resp.pending = sh.sess.Clock(), sh.sess.Pending()
		}
	case opDrain:
		if sh.frozen {
			resp.err = fmt.Errorf("%w: %s", ErrSessionMigrating, sh.id)
			break
		}
		resp.submitted = sh.submitted
		if !drained {
			res, err := sh.sess.Drain(ctx)
			if err != nil && errors.Is(err, core.ErrCanceled) {
				// A canceled drain is retryable: the engine stopped at
				// an event boundary and stays consistent, so don't
				// tombstone the session.
				resp.err = err
				break
			}
			sh.final, sh.finalErr = res, err
			resp.first = true
		}
		resp.result, resp.err, resp.drained = sh.final, sh.finalErr, true
		if sh.final != nil {
			resp.clock = sh.final.Makespan
		}
	case opHandoff:
		// Under the lock the handed-off log ends between two
		// submissions, never inside one. After the freeze every later
		// mutation is fenced and retried by the client against the new
		// owner.
		if sh.frozen {
			resp.err = fmt.Errorf("%w: %s", ErrSessionMigrating, sh.id)
			break
		}
		if drained {
			resp.err = fmt.Errorf("%w: %s", ErrSessionDrained, sh.id)
			break
		}
		sh.frozen = true
		resp.submitted = sh.submitted
	}
	return resp, nil
}

// unfreeze lifts a handoff freeze after a failed ship, resuming normal
// service on the still-authoritative owner. Like purge it is cleanup:
// it waits for the lock whatever the caller's context and however many
// callers queue, because a frozen shard fences every mutation until it
// runs.
func (sh *shard) unfreeze() {
	sh.mu.Lock()
	sh.frozen = false
	sh.mu.Unlock()
}

// purge retires the shard: callers still holding it get
// ErrSessionGone.
func (sh *shard) purge() {
	sh.mu.Lock()
	sh.gone = true
	sh.mu.Unlock()
}
