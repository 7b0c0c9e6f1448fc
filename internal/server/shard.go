package server

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"dvfsched/internal/core"
	"dvfsched/internal/model"
	"dvfsched/internal/obs"
	"dvfsched/internal/platform"
	"dvfsched/internal/sim"
)

// shardOp selects the operation a shardReq carries. Submissions do not
// travel this channel: they go through the group-commit intake so
// concurrent submitters coalesce (see shard.submit).
type shardOp int

const (
	opStatus shardOp = iota
	opDrain
	opSnapshot
	opPurge
	// opHandoff freezes the shard for a planned migration: it snapshots
	// the session at the group-commit boundary the flush just closed and
	// fences every subsequent mutation (submit, drain, snapshot) with
	// ErrSessionMigrating until opUnfreeze or opPurge.
	opHandoff
	// opUnfreeze lifts a handoff freeze after a failed ship, resuming
	// normal service on the still-authoritative owner.
	opUnfreeze
)

// shardReq is one control-plane message on a shard's request channel.
// ctx is the originating request's context: the shard goroutine
// threads it into Drain so an HTTP deadline cancels the virtual-time
// advance it is paying for.
type shardReq struct {
	op    shardOp
	ctx   context.Context
	reply chan shardResp
}

// shardResp is the shard goroutine's answer.
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
	// snapshot is the opSnapshot reply payload: a serialized session
	// checkpoint.
	snapshot []byte
}

// submitReq is one submission waiting in a shard's intake ring. The
// reply channel has capacity 1 so the leader never blocks answering.
// Requests are pooled: ONLY the submitter that received its reply may
// return a request to the pool — a submitter that gave up (context
// canceled, shard died) must leave its request to the garbage
// collector, because the leader may still be holding it.
type submitReq struct {
	ctx   context.Context
	tasks model.TaskSet
	clamp bool
	reply chan shardResp
}

var submitReqPool = sync.Pool{
	New: func() any { return &submitReq{reply: make(chan shardResp, 1)} },
}

// shard is one online session: a core.OnlineSession owned by a single
// goroutine. Control operations (status, drain, purge) arrive on a
// bounded request channel; submissions arrive through a mutex-guarded
// intake slice that the goroutine drains a whole batch at a time —
// group-commit admission. Concurrent submitters pay one lock
// acquisition and one goroutine wakeup per *batch* instead of one
// channel round trip per request, while the engine itself still sees
// one caller: the leader applies each submission individually, in
// intake order, so the schedule is byte-identical to the same
// submissions arriving serially in that order.
type shard struct {
	id   string
	spec PlatformSpec
	// rec records the session's event stream; obs.Recorder is
	// internally locked, so the events endpoint reads it without a
	// round-trip through the goroutine.
	rec  *obs.Recorder
	reqs chan shardReq
	// dead is closed when the goroutine exits (purge), so callers
	// blocked on enqueue or reply fail fast instead of hanging.
	dead chan struct{}

	// mu guards intake, the bounded submission ring. intakeCap bounds
	// it; overflow is ErrBusy backpressure, exactly like a full request
	// channel. kick (capacity 1) wakes the leader; one pending wakeup
	// is enough because the leader always drains the whole intake.
	mu        sync.Mutex
	intake    []*submitReq
	intakeCap int
	kick      chan struct{}

	// spare is the leader-owned second buffer: intake and spare
	// ping-pong so steady-state admission never allocates. Only the
	// shard goroutine touches spare.
	spare []*submitReq

	// batchSize observes how many submissions each flush admitted.
	batchSize *obs.Histogram
}

// shardState is the loop-private session lifecycle: how many tasks
// were accepted, and the drain tombstone.
type shardState struct {
	submitted int
	final     *sim.Result
	finalErr  error
	// frozen marks a handoff in progress: mutations are fenced with
	// ErrSessionMigrating so a submit racing the migration cannot land
	// on a state that has already been shipped (exactly-once across the
	// ownership flip). Only opUnfreeze clears it; opPurge retires the
	// shard without clearing.
	frozen bool
}

// newShard builds the session's scheduler with its recorder as sink,
// opens the session and starts its goroutine. queueDepth bounds both
// the intake ring and the control channel; overflow is reported to the
// caller as backpressure.
func newShard(id string, spec PlatformSpec, params model.CostParams, plat *platform.Platform, queueDepth int, batchSize *obs.Histogram) (*shard, error) {
	rec := &obs.Recorder{}
	sched, err := core.New(params, plat, core.WithSink(rec))
	if err != nil {
		return nil, err
	}
	sess, err := sched.OpenOnline(context.Background())
	if err != nil {
		return nil, err
	}
	return startShard(id, spec, rec, sess, queueDepth, batchSize, 0), nil
}

// startShard wires an already-open session into a shard and starts its
// goroutine. newShard uses it for fresh sessions; the cluster adoption
// path (Server.AdoptSession) uses it directly with a session rebuilt
// from a replicated checkpoint + log, carrying the task count the dead
// owner had already accepted.
func startShard(id string, spec PlatformSpec, rec *obs.Recorder, sess *core.OnlineSession, queueDepth int, batchSize *obs.Histogram, submitted int) *shard {
	sh := &shard{
		id:        id,
		spec:      spec,
		rec:       rec,
		reqs:      make(chan shardReq, queueDepth),
		dead:      make(chan struct{}),
		intake:    make([]*submitReq, 0, queueDepth),
		intakeCap: queueDepth,
		kick:      make(chan struct{}, 1),
		spare:     make([]*submitReq, 0, queueDepth),
		batchSize: batchSize,
	}
	//dvfslint:allow goroleak the loop exits on the opPurge control op, delivered over reqs by the registry
	go sh.loop(sess, shardState{submitted: submitted})
	return sh
}

// loop is the shard goroutine: it serializes every touch of the
// session and retains the drained result as a tombstone so the trace
// and final report stay readable until the shard is purged.
//
// Submissions queued in the intake are flushed before any control
// operation is answered, so a drain observes every submission that
// beat it into the shard and a status reply reflects them.
func (sh *shard) loop(sess *core.OnlineSession, st shardState) {
	defer close(sh.dead)
	for {
		select {
		case <-sh.kick:
			sh.flushIntake(sess, &st)
		case req := <-sh.reqs:
			sh.flushIntake(sess, &st)
			var resp shardResp
			switch req.op {
			case opStatus:
				resp.submitted = st.submitted
				resp.drained = st.final != nil || st.finalErr != nil
				if st.final != nil {
					resp.clock, resp.pending = st.final.Makespan, 0
				} else {
					resp.clock, resp.pending = sess.Clock(), sess.Pending()
				}
			case opDrain:
				if st.frozen {
					resp.err = fmt.Errorf("%w: %s", ErrSessionMigrating, sh.id)
					break
				}
				if st.final == nil && st.finalErr == nil {
					res, err := sess.Drain(req.ctx)
					if err != nil && errors.Is(err, core.ErrCanceled) {
						// A canceled drain is retryable: the engine stopped at
						// an event boundary and stays consistent, so don't
						// tombstone the session.
						resp.err = err
						resp.submitted = st.submitted
						break
					}
					st.final, st.finalErr = res, err
					resp.first = true
				}
				resp.result, resp.err, resp.drained = st.final, st.finalErr, true
				resp.submitted = st.submitted
				if st.final != nil {
					resp.clock = st.final.Makespan
				}
			case opSnapshot:
				// Landing here means the intake was flushed: a snapshot
				// can observe a whole group-committed batch or none of it,
				// never a prefix.
				if st.frozen {
					resp.err = fmt.Errorf("%w: %s", ErrSessionMigrating, sh.id)
					break
				}
				if st.final != nil || st.finalErr != nil {
					resp.err = fmt.Errorf("%w: %s", ErrSessionDrained, sh.id)
					break
				}
				resp.snapshot, resp.err = sess.Snapshot()
				resp.clock, resp.pending, resp.submitted = sess.Clock(), sess.Pending(), st.submitted
			case opHandoff:
				// The flush above closed a group-commit batch, so the
				// handoff checkpoint observes whole batches only; any
				// submission arriving after this point is fenced by the
				// frozen flag and retried by the client against the new
				// owner.
				if st.frozen {
					resp.err = fmt.Errorf("%w: %s", ErrSessionMigrating, sh.id)
					break
				}
				if st.final != nil || st.finalErr != nil {
					resp.err = fmt.Errorf("%w: %s", ErrSessionDrained, sh.id)
					break
				}
				resp.snapshot, resp.err = sess.Snapshot()
				if resp.err == nil {
					st.frozen = true
				}
				resp.clock, resp.pending, resp.submitted = sess.Clock(), sess.Pending(), st.submitted
			case opUnfreeze:
				st.frozen = false
				resp.submitted = st.submitted
			case opPurge:
				req.reply <- shardResp{}
				return
			}
			req.reply <- resp
		}
	}
}

// flushIntake is the group commit: swap the intake out under the lock,
// then apply every queued submission in intake order — the order
// submitters won the lock, which becomes the batch's definitive
// arrival sequence — replying to each as it lands. Replies go to
// capacity-1 channels, so a departed submitter never blocks the
// leader.
func (sh *shard) flushIntake(sess *core.OnlineSession, st *shardState) {
	sh.mu.Lock()
	batch := sh.intake
	sh.intake = sh.spare[:0]
	sh.mu.Unlock()
	if len(batch) == 0 {
		sh.spare = batch
		return
	}
	if sh.batchSize != nil {
		sh.batchSize.Observe(float64(len(batch)))
	}
	for _, req := range batch {
		req.reply <- sh.admitOne(sess, st, req)
	}
	for i := range batch {
		batch[i] = nil
	}
	sh.spare = batch[:0]
}

// admitOne applies a single submission to the session: the same
// semantics a dedicated per-request channel round trip had, so
// coalescing is invisible to correctness.
func (sh *shard) admitOne(sess *core.OnlineSession, st *shardState, req *submitReq) shardResp {
	var resp shardResp
	if st.frozen {
		resp.err = fmt.Errorf("%w: %s", ErrSessionMigrating, sh.id)
		return resp
	}
	if st.final != nil || st.finalErr != nil {
		resp.err = fmt.Errorf("%w: %s", ErrSessionDrained, sh.id)
		return resp
	}
	var err error
	if req.clamp {
		err = sess.Admit(req.ctx, req.tasks)
	} else {
		err = sess.Submit(req.ctx, req.tasks)
	}
	if err != nil {
		resp.err = err
		return resp
	}
	st.submitted += len(req.tasks)
	resp.clock, resp.pending, resp.submitted = sess.Clock(), sess.Pending(), st.submitted
	return resp
}

// submit enqueues a submission into the intake ring and waits for the
// leader's reply, honoring context cancellation and shard death. A
// full intake returns ErrBusy immediately (backpressure at the HTTP
// layer). clamp selects Admit (stale arrivals clamped to the clock)
// over Submit (stale arrivals rejected).
func (sh *shard) submit(ctx context.Context, tasks model.TaskSet, clamp bool) (shardResp, error) {
	req := submitReqPool.Get().(*submitReq)
	req.ctx, req.tasks, req.clamp = ctx, tasks, clamp
	sh.mu.Lock()
	if len(sh.intake) >= sh.intakeCap {
		sh.mu.Unlock()
		req.ctx, req.tasks = nil, nil
		submitReqPool.Put(req)
		return shardResp{}, fmt.Errorf("%w: session %s", ErrBusy, sh.id)
	}
	sh.intake = append(sh.intake, req)
	sh.mu.Unlock()
	select {
	case sh.kick <- struct{}{}:
	default: // a wakeup is already pending; the leader drains everything
	}
	select {
	case resp := <-req.reply:
		req.ctx, req.tasks = nil, nil
		//dvfslint:allow poolcheck the reply above hands the req back: the loop never touches it after replying (receiver-only Put)
		submitReqPool.Put(req)
		return resp, nil
	case <-sh.dead:
		return shardResp{}, fmt.Errorf("%w: %s", ErrSessionGone, sh.id)
	case <-ctx.Done():
		return shardResp{}, ctx.Err()
	}
}

// do sends a control request to the shard goroutine and waits for its
// reply, honoring context cancellation and shard death. A full request
// queue returns ErrBusy immediately (backpressure at the HTTP layer).
func (sh *shard) do(ctx context.Context, req shardReq) (shardResp, error) {
	req.ctx = ctx
	req.reply = make(chan shardResp, 1)
	select {
	case sh.reqs <- req:
	case <-sh.dead:
		return shardResp{}, fmt.Errorf("%w: %s", ErrSessionGone, sh.id)
	case <-ctx.Done():
		return shardResp{}, ctx.Err()
	default:
		return shardResp{}, fmt.Errorf("%w: session %s", ErrBusy, sh.id)
	}
	select {
	case resp := <-req.reply:
		return resp, nil
	case <-sh.dead:
		return shardResp{}, fmt.Errorf("%w: %s", ErrSessionGone, sh.id)
	case <-ctx.Done():
		return shardResp{}, ctx.Err()
	}
}

// purge asks the goroutine to exit; pending callers observe dead.
func (sh *shard) purge() {
	select {
	case sh.reqs <- shardReq{op: opPurge, reply: make(chan shardResp, 1)}:
	case <-sh.dead:
	}
}
