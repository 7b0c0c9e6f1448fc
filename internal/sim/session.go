package sim

import (
	"context"
	"fmt"
	"math"

	"dvfsched/internal/model"
	"dvfsched/internal/obs"
)

// Session is an incrementally-driven simulation: tasks are injected as
// they become known instead of all up front, and virtual time advances
// only as far as the caller asks. It powers long-running online
// shards (one session per serving shard) where arrivals come from the
// network rather than from a pre-recorded trace; Run is a one-shot
// wrapper around it.
//
// A session is single-owner: all methods must be called from one
// goroutine (shards serialize access through a request channel).
type Session struct {
	e      *Engine
	params model.CostParams
	// maxTime mirrors Run's runaway guard.
	maxTime float64
	// ids tracks every task ID ever injected, for cross-batch
	// uniqueness.
	ids map[int]bool
	// tickAt is the virtual time of the pending tick event, or NaN when
	// no tick is scheduled.
	tickAt float64
	// finished is set once Finish has run; further mutation is an
	// error.
	finished bool
	// inv is the fail-fast invariant checker attached under
	// testInvariants.
	inv *obs.InvariantSink
}

// ctxPollInterval is how many events a call processes between context
// checks; AdvanceTo, StepTo and Drain each check before their first
// event. Events are sub-microsecond, so cancellation is still observed
// within tens of microseconds.
const ctxPollInterval = 256

// OpenSession validates the configuration and returns an empty session
// at virtual time 0. The policy's Init callback runs here, before any
// task exists.
func OpenSession(cfg Config, params model.CostParams) (*Session, error) {
	if cfg.Platform == nil {
		return nil, fmt.Errorf("sim: nil platform")
	}
	if err := cfg.Platform.Validate(); err != nil {
		return nil, err
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("sim: nil policy")
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if cfg.TickInterval < 0 {
		return nil, fmt.Errorf("sim: negative tick interval")
	}
	maxTime := cfg.MaxTime
	if maxTime == 0 {
		maxTime = 1e9
	}

	e := &Engine{cfg: cfg, exec: cfg.Platform.ExecModel(), sink: cfg.Sink, nextDone: -1}
	s := &Session{e: e, params: params, maxTime: maxTime, ids: map[int]bool{}, tickAt: math.NaN()}
	if testInvariants {
		s.inv = obs.NewInvariantSink()
		e.sink = obs.Multi(e.sink, s.inv)
	}
	e.cores = make([]*coreState, cfg.Platform.NumCores())
	levels := 0
	for _, rt := range cfg.Platform.Cores {
		levels += rt.Len()
	}
	counters := make([]levelSeconds, levels)
	for i, rt := range cfg.Platform.Cores {
		n := rt.Len()
		e.cores[i] = &coreState{id: i, rates: rt, level: rt.Min(), residency: counters[:n:n]}
		counters = counters[n:]
	}
	cfg.Policy.Init(e)
	return s, nil
}

// Clock returns the session's current virtual time in seconds.
func (s *Session) Clock() float64 { return s.e.clock }

// Pending returns the number of injected tasks that have not completed.
func (s *Session) Pending() int { return s.e.undone }

// Tasks returns a copy of every injected task, in the order the engine
// holds them: batch by batch, each batch by arrival.
func (s *Session) Tasks() model.TaskSet {
	tasks := make(model.TaskSet, len(s.e.tasks))
	for i, ts := range s.e.tasks {
		tasks[i] = ts.Task
	}
	return tasks
}

// Inject adds tasks to the session. Every task must validate, carry an
// ID never seen by this session, and arrive at or after the current
// virtual clock (a session cannot rewrite the past) and no later than
// the max time, past which virtual time cannot advance. Tasks become
// visible to the policy when virtual time reaches their arrival. A
// refused batch leaves the session unchanged.
func (s *Session) Inject(tasks model.TaskSet) error {
	if s.finished {
		return ErrSessionFinished
	}
	for _, t := range tasks {
		if err := t.Validate(); err != nil {
			return err
		}
		if s.ids[t.ID] {
			return fmt.Errorf("sim: duplicate task ID %d", t.ID)
		}
		if t.Arrival < s.e.clock {
			return fmt.Errorf("sim: task %d arrives at %v, before the session clock %v", t.ID, t.Arrival, s.e.clock)
		}
		if t.Arrival > s.maxTime {
			return fmt.Errorf("sim: task %d arrives at %v, past the max time %v", t.ID, t.Arrival, s.maxTime)
		}
	}
	e := s.e
	e.restamp() // arrivals take orderCtr values after any owed stamps
	sorted := tasks.Clone()
	sorted.ByArrival()
	// One TaskState slab per batch: e.tasks holds pointers into it, so
	// injection costs O(1) allocations however large the batch is.
	states := make([]TaskState, len(sorted))
	for i, t := range sorted {
		s.ids[t.ID] = true
		states[i] = TaskState{Task: t, Remaining: t.Cycles}
		e.tasks = append(e.tasks, &states[i])
		e.orderCtr++
		e.events.push(event{time: t.Arrival, kind: evArrival, order: e.orderCtr, task: len(e.tasks) - 1})
	}
	e.undone += len(sorted)
	if e.cfg.TickInterval > 0 && math.IsNaN(s.tickAt) && len(sorted) > 0 {
		s.tickAt = e.clock + e.cfg.TickInterval
		e.orderCtr++
		e.events.push(event{time: s.tickAt, kind: evTick, order: e.orderCtr, task: -1})
	}
	return nil
}

// step processes the earliest pending event if its time is at most
// limit; it reports whether an event was consumed. n counts the events
// the calling loop has processed: the context is checked before the
// first and every ctxPollInterval-th after it. Mirrors one iteration
// of the original Run loop, including the undone>0 guard: once every
// task has completed the session parks, leaving any future tick in the
// queue.
func (s *Session) step(ctx context.Context, limit float64, n int) (bool, error) {
	e := s.e
	next := e.next()
	if next == nil || e.undone == 0 {
		return false, nil
	}
	if next.time > limit {
		return false, nil
	}
	if n%ctxPollInterval == 0 {
		if err := ctx.Err(); err != nil {
			return false, fmt.Errorf("%w: %w", ErrCanceled, err)
		}
	}
	ev := *next
	if len(e.events) > 0 && next == &e.events[0] {
		e.events.pop()
	} else {
		e.nextDone = -1 // consumed; the completion's restamp picks the next
	}
	if ev.time > s.maxTime {
		return false, fmt.Errorf("sim: exceeded max time %v (policy %q stuck?)", s.maxTime, e.cfg.Policy.Name())
	}
	if ev.time < e.clock {
		return false, fmt.Errorf("sim: time went backwards (%v -> %v)", e.clock, ev.time)
	}
	e.clock = ev.time
	switch ev.kind {
	case evCompletion:
		c := e.cores[ev.core]
		if c.run == nil || c.run.seq != ev.seq {
			return true, e.err // not the core's live completion
		}
		e.settleAll()
		ts := c.run.ts
		if ts.Remaining > 1e-6 {
			return false, fmt.Errorf("sim: task %d completed with %v Gcycles left", ts.Task.ID, ts.Remaining)
		}
		ts.Remaining = 0
		ts.Done = true
		ts.Completion = e.clock
		c.run = nil
		c.accountBusy(e.clock)
		c.isBusy = false
		e.active--
		e.undone--
		e.emit(obs.Event{Kind: obs.KindComplete, Core: ev.core, Task: ts.Task.ID,
			Cycles: ts.Task.Cycles, Energy: ts.Energy})
		e.emit(obs.Event{Kind: obs.KindCoreIdle, Core: ev.core, Task: -1})
		e.invalidate()
		e.cfg.Policy.OnCompletion(e, ev.core, ts)
	case evTick:
		s.tickAt = math.NaN()
		for _, c := range e.cores {
			c.accountBusy(e.clock)
			c.lastFraction = c.busyInWindow / e.cfg.TickInterval
			c.busyInWindow = 0
		}
		e.cfg.Policy.OnTick(e)
		if e.undone > 0 {
			e.restamp() // the next tick's order follows the owed stamps
			s.tickAt = e.clock + e.cfg.TickInterval
			e.orderCtr++
			e.events.push(event{time: s.tickAt, kind: evTick, order: e.orderCtr, task: -1})
		}
	case evArrival:
		ts := e.tasks[ev.task]
		e.emit(obs.Event{Kind: obs.KindArrival, Core: -1, Task: ts.Task.ID,
			Cycles: ts.Task.Cycles, Remaining: ts.Remaining,
			Interactive: ts.Task.Interactive})
		e.cfg.Policy.OnArrival(e, ts)
	}
	e.restamp()
	return true, e.err
}

// AdvanceTo processes every event up to and including virtual time t,
// then sets the clock to t. It models "the wall says it is now t":
// tasks arriving later stay pending, running work keeps running. The
// context is polled between events; cancellation aborts with an error
// matching ErrCanceled.
func (s *Session) AdvanceTo(ctx context.Context, t float64) error {
	if s.finished {
		return ErrSessionFinished
	}
	if t < s.e.clock {
		return fmt.Errorf("sim: cannot advance backwards (%v -> %v)", s.e.clock, t)
	}
	if t > s.maxTime {
		return fmt.Errorf("sim: advance target %v exceeds max time %v", t, s.maxTime)
	}
	for n := 0; ; n++ {
		ok, err := s.step(ctx, t, n)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
	}
	if t > s.e.clock {
		s.e.clock = t
	}
	return nil
}

// StepTo processes events, with no time limit, until the engine has
// emitted event seq, and fails unless it stops exactly there: the
// engine runs dry short of seq, or one step carries it past. A replay
// calls it after re-admitting a log's arrivals, to re-derive the
// events the source processed after its last advance, such as those
// of a canceled drain.
func (s *Session) StepTo(ctx context.Context, seq uint64) error {
	if s.finished {
		return ErrSessionFinished
	}
	for n := 0; s.e.evSeq < seq; n++ {
		ok, err := s.step(ctx, math.Inf(1), n)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("sim: engine stopped at seq %d, short of %d", s.e.evSeq, seq)
		}
	}
	if s.e.evSeq != seq {
		return fmt.Errorf("sim: engine reached seq %d, past %d", s.e.evSeq, seq)
	}
	return nil
}

// Drain runs the session until every injected task has completed or
// the context is canceled.
func (s *Session) Drain(ctx context.Context) error {
	if s.finished {
		return ErrSessionFinished
	}
	for n := 0; s.e.undone > 0; n++ {
		ok, err := s.step(ctx, math.Inf(1), n)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("sim: %d tasks never completed under policy %q (deadlock?)", s.e.undone, s.e.cfg.Policy.Name())
		}
	}
	return nil
}

// Finish drains the session and summarizes it. The session cannot be
// used afterwards.
func (s *Session) Finish(ctx context.Context) (*Result, error) {
	if s.finished {
		return nil, ErrSessionFinished
	}
	if err := s.Drain(ctx); err != nil {
		return nil, err
	}
	s.finished = true
	if len(s.e.tasks) == 0 {
		return nil, fmt.Errorf("sim: session finished with no tasks")
	}
	res, err := s.e.finalize(s.params)
	if err != nil {
		return nil, err
	}
	if s.inv != nil {
		if err := s.inv.Err(); err != nil {
			return nil, err
		}
	}
	return res, nil
}
