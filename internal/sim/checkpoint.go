package sim

import (
	"errors"
	"fmt"
	"sort"

	"dvfsched/internal/model"
)

// Session checkpointing: Snapshot captures a live session's complete
// state — clock, event heap, per-core run state, task table, policy
// state — so that recovery is "load snapshot, replay the trace suffix"
// instead of replaying from t=0 (ROADMAP items 1 and 2). The contract
// is exactness: a restored session makes bit-identical decisions and
// emits a byte-identical event stream from the snapshot point on, so
// snapshot + suffix equals the uninterrupted run. That rules out
// re-deriving any floating-point accumulation state; everything with
// rounding history is stored verbatim, and only values that are pure
// functions of stored state (effective cycle times, tree node sizes)
// are recomputed.

// ErrNotCheckpointable is returned by Snapshot when the session's
// configuration cannot be captured: a policy without checkpoint
// support, or a Meter / RecordTimeline run (their accumulated output
// lives outside the session and is not part of a checkpoint).
var ErrNotCheckpointable = errors.New("sim: session not checkpointable")

// CheckpointablePolicy is implemented by policies that can save and
// restore their internal state. Policies hold *TaskState references;
// the taskIndex / taskAt translators map those to stable indices into
// the session's task table so the references survive serialization.
type CheckpointablePolicy interface {
	Policy
	// SnapshotPolicy returns an opaque, versioned serialization of the
	// policy's state. taskIndex resolves a task reference to its index
	// in the session's task table (it panics on foreign tasks — a
	// policy bug).
	SnapshotPolicy(taskIndex func(*TaskState) int) ([]byte, error)
	// RestorePolicy rebuilds the state captured by SnapshotPolicy on a
	// policy that has been Init-ed but has seen no tasks. taskAt
	// resolves a task-table index back to the restored *TaskState.
	RestorePolicy(data []byte, taskAt func(int) *TaskState) error
}

// EventState is the persisted form of one queued simulator event.
type EventState struct {
	Time  float64
	Kind  int
	Order uint64
	Core  int
	Seq   uint64
	Task  int
}

// RateSeconds is one frequency-residency entry: busy seconds at Rate.
type RateSeconds struct {
	Rate    float64
	Seconds float64
}

// CoreCheckpoint is the persisted state of one simulated core. Rate
// levels are stored as indices into the core's rate table, which the
// restoring platform must match.
type CoreCheckpoint struct {
	LevelIdx int
	// Running run-segment state; RunTask is an index into Tasks, -1
	// when idle (the remaining Run fields are then meaningless).
	RunTask       int
	RunLevelIdx   int
	RunExecStart  float64
	RunLastSettle float64
	RunSeq        uint64
	IsBusy        bool
	BusyMark      float64
	BusyInWindow  float64
	BusyTotal     float64
	LastFraction  float64
	Switches      int
	// Residency is the busy-seconds-per-rate histogram, sorted by rate
	// for deterministic serialization.
	Residency []RateSeconds
}

// Checkpoint is a complete capture of a Session. Produce one with
// Session.Snapshot, serialize with MarshalBinary, and rebuild a live
// session with RestoreSession.
type Checkpoint struct {
	// PolicyName guards against restoring onto the wrong policy.
	PolicyName string
	Clock      float64
	// TickAt is the pending tick time, NaN when none is scheduled.
	TickAt   float64
	Steps    uint64
	OrderCtr uint64
	SeqCtr   uint64
	EvSeq    uint64
	Active   int
	Undone   int
	// IDs are all task IDs ever injected, sorted ascending.
	IDs []int
	// Tasks is the session's task table in injection order; policies
	// and events reference tasks by index into it.
	Tasks []TaskState
	// Events holds the pending arrivals and ticks plus each running
	// core's one live completion, laid out as a valid 4-ary heap (the
	// comparator is a strict total order, so any valid layout pops
	// identically). Checkpoints written before completions left the
	// event queue also hold superseded completions, whose Seq differs
	// from their core's RunSeq; restore drops them.
	Events []EventState
	Cores  []CoreCheckpoint
	// Policy is the CheckpointablePolicy's opaque state.
	Policy []byte
}

// Snapshot captures the session's complete state. The session must be
// live (not finished, not failed), configured without Meter or
// RecordTimeline, and its policy must implement CheckpointablePolicy.
// The session remains usable afterwards.
func (s *Session) Snapshot() (*Checkpoint, error) {
	if s.finished {
		return nil, ErrSessionFinished
	}
	e := s.e
	if e.err != nil {
		return nil, fmt.Errorf("sim: cannot snapshot a failed session: %w", e.err)
	}
	if e.cfg.Meter != nil {
		return nil, fmt.Errorf("%w: Meter output is external to the session", ErrNotCheckpointable)
	}
	if e.cfg.RecordTimeline {
		return nil, fmt.Errorf("%w: RecordTimeline output is external to the session", ErrNotCheckpointable)
	}
	cpPolicy, ok := e.cfg.Policy.(CheckpointablePolicy)
	if !ok {
		return nil, fmt.Errorf("%w: policy %q does not implement CheckpointablePolicy", ErrNotCheckpointable, e.cfg.Policy.Name())
	}

	e.restamp() // the checkpoint holds stamps and counters
	cp := &Checkpoint{
		PolicyName: e.cfg.Policy.Name(),
		Clock:      e.clock,
		TickAt:     s.tickAt,
		Steps:      s.steps,
		OrderCtr:   e.orderCtr,
		SeqCtr:     e.seqCtr,
		EvSeq:      e.evSeq,
		Active:     e.active,
		Undone:     e.undone,
	}
	cp.IDs = make([]int, 0, len(s.ids))
	for id := range s.ids {
		cp.IDs = append(cp.IDs, id)
	}
	sort.Ints(cp.IDs)

	cp.Tasks = make([]TaskState, len(e.tasks))
	taskIdx := make(map[*TaskState]int, len(e.tasks))
	for i, ts := range e.tasks {
		cp.Tasks[i] = *ts
		taskIdx[ts] = i
	}

	queue := make(eventHeap, len(e.events), len(e.events)+e.active)
	copy(queue, e.events)
	for _, c := range e.cores {
		if c.run != nil {
			queue.push(c.done)
		}
	}
	cp.Events = make([]EventState, len(queue))
	for i, ev := range queue {
		cp.Events[i] = EventState{Time: ev.time, Kind: ev.kind, Order: ev.order, Core: ev.core, Seq: ev.seq, Task: ev.task}
	}

	cp.Cores = make([]CoreCheckpoint, len(e.cores))
	for i, c := range e.cores {
		cc := CoreCheckpoint{
			LevelIdx:     c.rates.IndexOf(c.level.Rate),
			RunTask:      -1,
			IsBusy:       c.isBusy,
			BusyMark:     c.busyMark,
			BusyInWindow: c.busyInWindow,
			BusyTotal:    c.busyTotal,
			LastFraction: c.lastFraction,
			Switches:     c.switches,
		}
		if cc.LevelIdx < 0 {
			return nil, fmt.Errorf("sim: core %d level %v not in its rate table", i, c.level.Rate)
		}
		if c.run != nil {
			cc.RunTask = taskIdx[c.run.ts]
			cc.RunLevelIdx = c.rates.IndexOf(c.run.level.Rate)
			if cc.RunLevelIdx < 0 {
				return nil, fmt.Errorf("sim: core %d running level %v not in its rate table", i, c.run.level.Rate)
			}
			cc.RunExecStart = c.run.execStart
			cc.RunLastSettle = c.run.lastSettle
			cc.RunSeq = c.run.seq
		}
		// Levels ascend by rate, so the entries come out sorted.
		cc.Residency = make([]RateSeconds, 0, len(c.residency))
		for lvl, r := range c.residency {
			if r.seen {
				cc.Residency = append(cc.Residency, RateSeconds{Rate: c.rates.Level(lvl).Rate, Seconds: r.seconds})
			}
		}
		cp.Cores[i] = cc
	}

	pol, err := cpPolicy.SnapshotPolicy(func(ts *TaskState) int {
		i, ok := taskIdx[ts]
		if !ok {
			panic("sim: policy referenced a task unknown to the session")
		}
		return i
	})
	if err != nil {
		return nil, fmt.Errorf("sim: policy snapshot: %w", err)
	}
	cp.Policy = pol
	return cp, nil
}

// RestoreSession rebuilds a live session from a checkpoint. The
// configuration must match the captured session's: same platform
// (core count and rate tables), same cost parameters, and a fresh
// policy of the same kind implementing CheckpointablePolicy. The
// sink may differ — a restored session typically writes a new trace
// whose events continue the original's sequence numbers, so the
// recovered stream is original-prefix + new-suffix. Invariant-checking
// test sinks are not attached: a mid-stream trace legitimately opens
// with tasks already running.
func RestoreSession(cfg Config, params model.CostParams, cp *Checkpoint) (*Session, error) {
	if cp == nil {
		return nil, fmt.Errorf("sim: nil checkpoint")
	}
	if cfg.Meter != nil || cfg.RecordTimeline {
		return nil, fmt.Errorf("%w: Meter/RecordTimeline cannot resume from a checkpoint", ErrNotCheckpointable)
	}
	cpPolicy, ok := cfg.Policy.(CheckpointablePolicy)
	if cfg.Policy != nil && !ok {
		return nil, fmt.Errorf("%w: policy %q does not implement CheckpointablePolicy", ErrNotCheckpointable, cfg.Policy.Name())
	}
	s, err := OpenSession(cfg, params)
	if err != nil {
		return nil, err
	}
	if got := cfg.Policy.Name(); got != cp.PolicyName {
		return nil, fmt.Errorf("sim: checkpoint was taken under policy %q, restoring onto %q", cp.PolicyName, got)
	}
	e := s.e
	// Drop the invariant test sink: it validates streams from t=0.
	e.sink = cfg.Sink
	s.inv = nil

	if len(cp.Cores) != len(e.cores) {
		return nil, fmt.Errorf("sim: checkpoint has %d cores, platform has %d", len(cp.Cores), len(e.cores))
	}

	s.tickAt = cp.TickAt
	s.steps = cp.Steps
	e.clock = cp.Clock
	e.orderCtr = cp.OrderCtr
	e.seqCtr = cp.SeqCtr
	e.evSeq = cp.EvSeq
	e.active = cp.Active
	e.undone = cp.Undone

	for _, id := range cp.IDs {
		s.ids[id] = true
	}

	states := make([]TaskState, len(cp.Tasks))
	copy(states, cp.Tasks)
	e.tasks = make([]*TaskState, len(states))
	for i := range states {
		e.tasks[i] = &states[i]
	}

	queue := make(eventHeap, len(cp.Events))
	for i, es := range cp.Events {
		if es.Kind == evArrival && (es.Task < 0 || es.Task >= len(e.tasks)) {
			return nil, fmt.Errorf("sim: queued arrival references task %d of %d", es.Task, len(e.tasks))
		}
		if es.Kind == evCompletion && (es.Core < 0 || es.Core >= len(e.cores)) {
			return nil, fmt.Errorf("sim: queued completion references core %d of %d", es.Core, len(e.cores))
		}
		queue[i] = event{time: es.Time, kind: es.Kind, order: es.Order, core: es.Core, seq: es.Seq, task: es.Task}
	}
	// Verify the heap invariant so a corrupted checkpoint fails here
	// instead of as a time-travel error mid-replay.
	for i := 1; i < len(queue); i++ {
		if p := (i - 1) / heapArity; eventLess(&queue[i], &queue[p]) {
			return nil, fmt.Errorf("sim: checkpoint event queue violates heap order at %d", i)
		}
	}
	// Arrivals and ticks go back on the heap; each running core's live
	// completion (Seq equal to its RunSeq) goes back into the core, and
	// superseded completions are dropped.
	live := make([]bool, len(e.cores))
	for _, ev := range queue {
		if ev.kind != evCompletion {
			e.events.push(ev)
			continue
		}
		cc := &cp.Cores[ev.core]
		if cc.RunTask < 0 || ev.seq != cc.RunSeq {
			continue
		}
		if live[ev.core] {
			return nil, fmt.Errorf("sim: checkpoint holds two live completions for core %d", ev.core)
		}
		live[ev.core] = true
		e.cores[ev.core].done = ev
	}

	active := 0
	for i, cc := range cp.Cores {
		c := e.cores[i]
		if cc.LevelIdx < 0 || cc.LevelIdx >= c.rates.Len() {
			return nil, fmt.Errorf("sim: core %d level index %d out of range", i, cc.LevelIdx)
		}
		c.level = c.rates.Level(cc.LevelIdx)
		c.isBusy = cc.IsBusy
		c.busyMark = cc.BusyMark
		c.busyInWindow = cc.BusyInWindow
		c.busyTotal = cc.BusyTotal
		c.lastFraction = cc.LastFraction
		c.switches = cc.Switches
		for _, rs := range cc.Residency {
			lvl := c.rates.IndexOf(rs.Rate)
			if lvl < 0 {
				return nil, fmt.Errorf("sim: core %d residency names rate %v, not in its rate table", i, rs.Rate)
			}
			if c.residency[lvl].seen {
				return nil, fmt.Errorf("sim: core %d residency lists rate %v twice", i, rs.Rate)
			}
			c.residency[lvl] = levelSeconds{seconds: rs.Seconds, seen: true}
		}
		if cc.RunTask >= 0 {
			if cc.RunTask >= len(e.tasks) {
				return nil, fmt.Errorf("sim: core %d runs task index %d of %d", i, cc.RunTask, len(e.tasks))
			}
			if cc.RunLevelIdx < 0 || cc.RunLevelIdx >= c.rates.Len() {
				return nil, fmt.Errorf("sim: core %d run level index %d out of range", i, cc.RunLevelIdx)
			}
			c.seg = runSeg{
				ts:         e.tasks[cc.RunTask],
				level:      c.rates.Level(cc.RunLevelIdx),
				lvl:        cc.RunLevelIdx,
				execStart:  cc.RunExecStart,
				lastSettle: cc.RunLastSettle,
				seq:        cc.RunSeq,
			}
			c.run = &c.seg
			active++
			if !live[i] {
				return nil, fmt.Errorf("sim: core %d runs task index %d but has no live completion", i, cc.RunTask)
			}
		}
	}
	if active != cp.Active {
		return nil, fmt.Errorf("sim: checkpoint says %d active cores, run state has %d", cp.Active, active)
	}
	e.findNextDone()
	// Effective speeds are a pure function of (level, active count):
	// the live engine recomputed them in the restamp after every
	// active-count change, so recomputing here reproduces the exact
	// bits without touching seqCtr or the event queue.
	for _, c := range e.cores {
		if c.run != nil {
			c.run.tpc = e.exec.TimePerCycle(c.run.level, e.active)
			c.run.epc = e.exec.EnergyPerCycle(c.run.level, e.active)
		}
	}

	if err := cpPolicy.RestorePolicy(cp.Policy, func(i int) *TaskState {
		if i < 0 || i >= len(e.tasks) {
			panic(fmt.Sprintf("sim: policy checkpoint references task index %d of %d", i, len(e.tasks)))
		}
		return e.tasks[i]
	}); err != nil {
		return nil, fmt.Errorf("sim: policy restore: %w", err)
	}
	return s, nil
}
