// Package sim is a deterministic discrete-event simulator of a
// multi-core platform with per-core DVFS. It provides the mechanics —
// virtual time, task execution with contention-dependent speed, energy
// accounting, frequency switching, and preemption — while scheduling
// policies (package sched, online) decide task placement, ordering and
// rates through the Engine API.
//
// The engine plays the role of the paper's testbed: the event-driven
// simulator of Section V-B, and, with a platform.Realistic execution
// model, the physical x86 machine of Section V-A.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"dvfsched/internal/model"
	"dvfsched/internal/obs"
	"dvfsched/internal/platform"
	"dvfsched/internal/power"
)

// Sentinel errors for session lifecycle and cancellation, matchable
// via errors.Is. Detailed messages wrap these with %w.
var (
	// ErrSessionFinished is returned by every Session method once
	// Finish has run.
	ErrSessionFinished = errors.New("sim: session already finished")
	// ErrCanceled is returned when a run is aborted by its context; the
	// underlying context.Canceled / DeadlineExceeded is wrapped too.
	ErrCanceled = errors.New("sim: run canceled")
)

// TaskState tracks one task through the simulation. Policies receive
// TaskStates on arrival and completion and may stash them in their own
// queues.
type TaskState struct {
	// Task is the immutable task definition.
	Task model.Task
	// Remaining is the number of Gcycles left to execute.
	Remaining float64
	// Energy is the joules consumed by this task so far.
	Energy float64
	// Started reports whether the task ever ran.
	Started bool
	// FirstStart is the time the task first started running.
	FirstStart float64
	// Done reports whether the task completed.
	Done bool
	// Completion is the completion time (valid once Done).
	Completion float64
	// Preemptions counts how many times the task was preempted.
	Preemptions int
}

// Turnaround returns completion minus arrival, in seconds.
func (t *TaskState) Turnaround() float64 { return t.Completion - t.Task.Arrival }

// Policy decides scheduling. All callbacks run on the simulator's
// single goroutine; policies must not retain the Engine past Run.
type Policy interface {
	// Name identifies the policy in results.
	Name() string
	// Init is called once before the first event.
	Init(e *Engine)
	// OnArrival is called when a task arrives.
	OnArrival(e *Engine, t *TaskState)
	// OnCompletion is called after a task finishes on the given core;
	// the core is idle when the callback runs.
	OnCompletion(e *Engine, coreID int, t *TaskState)
	// OnTick is called every Config.TickInterval of virtual time (if
	// non-zero); BusyFraction is refreshed at this point. Governor-
	// driven policies adjust frequencies here.
	OnTick(e *Engine)
}

// Config configures a simulation run.
type Config struct {
	// Platform describes cores and the execution model.
	Platform *platform.Platform
	// Policy is the scheduling policy under test.
	Policy Policy
	// TickInterval enables periodic OnTick callbacks (seconds);
	// 0 disables them.
	TickInterval float64
	// Meter, if non-nil, records per-core power segments.
	Meter *power.Meter
	// MaxTime aborts runs whose virtual time exceeds it; 0 means the
	// default of 1e9 seconds.
	MaxTime float64
	// RecordTimeline captures per-core execution segments into
	// Result.Timeline (adds memory proportional to event count).
	RecordTimeline bool
	// Sink, if non-nil, receives the run's structured event stream
	// (task arrival/start/preempt/complete, DVFS changes, core
	// idle/active transitions) as it unfolds. Sinks run on the
	// simulator goroutine and must not call back into the Engine.
	Sink obs.Sink
}

// TimelineSegment is one recorded stretch of execution: task TaskID
// ran on Core at Rate GHz during [Start, End).
type TimelineSegment struct {
	Core       int
	TaskID     int
	Start, End float64
	Rate       float64
}

// event kinds, in tie-break order at equal times: completions free
// cores before ticks observe them and before new arrivals are placed.
const (
	evCompletion = iota
	evTick
	evArrival
)

// event is one pending simulator event. It is deliberately
// pointer-free (tasks are referenced by index into Engine.tasks) so the
// event array never incurs GC write barriers, and arrivals and ticks
// live in a typed d-ary heap rather than container/heap: the interface
// boxing on every Push/Pop used to dominate the LMC hot path's
// allocations. Completions never enter the heap: each running core
// holds its single live completion in coreState.done.
type event struct {
	time  float64
	kind  int
	order uint64 // global arrival order for full determinism
	core  int
	seq   uint64 // completion validity check
	task  int    // index into Engine.tasks for evArrival; -1 otherwise
}

// eventLess is the strict total order on events: time, then kind, then
// the unique order counter (orderCtr increments before every event is
// stamped, so no two pending events compare equal). Because the order
// breaks every tie, any correct min-heap — whatever its arity or
// internal layout — pops events in exactly this sequence, and so does
// taking the lesser of the heap top and the earliest live completion
// (Engine.next); the typed heap below is behavior-identical to the
// container/heap it replaced.
func eventLess(a, b *event) bool {
	//dvfslint:allow floatcmp event-heap ordering needs a strict weak order; epsilon equality is intransitive
	if a.time != b.time {
		return a.time < b.time
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.order < b.order
}

// heapArity is the event heap's branching factor. 4-ary halves the
// tree depth of the binary layout, trading a few extra comparisons per
// level for far fewer cache-missing swap chains in down — the
// simulator's single hottest loop. Pop order is unaffected (see
// eventLess).
const heapArity = 4

// eventHeap is a typed d-ary min-heap of events.
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

func (h *eventHeap) pop() event {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	h.down(0, n)
	ev := s[n]
	s[n] = event{} // keep the dead slot zeroed
	*h = s[:n]
	return ev
}

func (h eventHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / heapArity // parent
		if !eventLess(&h[j], &h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h eventHeap) down(i, n int) {
	for {
		first := heapArity*i + 1
		if first >= n || first < 0 { // first < 0 after int overflow
			break
		}
		j := first // least child
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if eventLess(&h[c], &h[j]) {
				j = c
			}
		}
		if !eventLess(&h[j], &h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// runSeg is the execution segment of the task currently on a core.
type runSeg struct {
	ts         *TaskState
	level      model.RateLevel
	lvl        int     // level's index in the core's rate table
	tpc, epc   float64 // effective ns/cycle, nJ/cycle (set by restamp)
	execStart  float64 // first instant cycles advance (after any switch stall)
	lastSettle float64
	seq        uint64
}

type coreState struct {
	id    int
	rates *model.RateTable
	level model.RateLevel
	// run points at seg while a task executes and is nil when idle;
	// seg is the per-core scratch segment reused across starts so the
	// steady-state arrival path never allocates. Nothing outside the
	// engine may retain *runSeg across events.
	run    *runSeg
	seg    runSeg
	done   event // run's one live completion, set by restamp
	isBusy bool
	// busy accounting
	busyMark     float64
	busyInWindow float64
	busyTotal    float64
	lastFraction float64
	switches     int
	// residency holds the busy seconds per rate level, indexed like
	// rates; every core's counters share one slab.
	residency []levelSeconds
}

// levelSeconds is one rate level's residency counter. A rate is
// reported in Result.Residency once its core has been settled at it.
type levelSeconds struct {
	seconds float64
	seen    bool
}

// residencyByRate returns the busy seconds per rate (GHz) of every
// level the core has been settled at.
func (c *coreState) residencyByRate() map[float64]float64 {
	m := map[float64]float64{}
	for lvl, r := range c.residency {
		if r.seen {
			m[c.rates.Level(lvl).Rate] = r.seconds
		}
	}
	return m
}

func (c *coreState) accountBusy(now float64) {
	if c.isBusy {
		c.busyInWindow += now - c.busyMark
		c.busyTotal += now - c.busyMark
	}
	c.busyMark = now
}

// Engine is the simulation state exposed to policies.
type Engine struct {
	cfg      Config
	exec     platform.ExecutionModel
	clock    float64
	events   eventHeap // pending arrivals and ticks
	nextDone int       // core whose live completion comes first, -1 if none runs
	orderCtr uint64
	seqCtr   uint64
	// stale marks the completion stamps and nextDone out of date;
	// stamps sums the running-core counts of the mutations since the
	// last restamp (see restamp).
	stale    bool
	stamps   uint64
	cores    []*coreState
	active   int
	tasks    []*TaskState
	undone   int
	timeline []TimelineSegment
	sink     obs.Sink
	evSeq    uint64
	err      error
}

// testInvariants, when set (by this package's tests), attaches a
// fail-fast obs.InvariantSink to every Run so all scenarios are
// validated against the conservation properties of the event stream.
var testInvariants bool

// emit forwards an event to the configured sink, stamping the current
// clock and the next sequence number. The sequence number advances
// with or without a sink, so StepTo counts the same events either way;
// without one nothing else happens, and the hot path stays
// allocation-free when observability is off.
func (e *Engine) emit(ev obs.Event) {
	e.evSeq++
	if e.sink == nil {
		return
	}
	ev.Seq = e.evSeq
	ev.T = e.clock
	e.sink.Emit(ev)
}

// Clock returns the current virtual time in seconds.
func (e *Engine) Clock() float64 { return e.clock }

// NumCores returns the number of cores.
func (e *Engine) NumCores() int { return len(e.cores) }

// RateTable returns core i's rate table.
func (e *Engine) RateTable(i int) *model.RateTable { return e.cores[i].rates }

// CurrentLevel returns core i's current frequency level.
func (e *Engine) CurrentLevel(i int) model.RateLevel { return e.cores[i].level }

// Running returns the task currently executing on core i, or nil.
func (e *Engine) Running(i int) *TaskState {
	if e.cores[i].run == nil {
		return nil
	}
	return e.cores[i].run.ts
}

// Idle reports whether core i has no running task.
func (e *Engine) Idle(i int) bool { return e.cores[i].run == nil }

// BusyFraction returns core i's busy fraction over the last completed
// tick window (valid during OnTick).
func (e *Engine) BusyFraction(i int) float64 { return e.cores[i].lastFraction }

// ActiveCores returns the number of cores currently executing.
func (e *Engine) ActiveCores() int { return e.active }

// settleAll charges elapsed time to every running task and emits meter
// segments up to the current clock.
func (e *Engine) settleAll() {
	for _, c := range e.cores {
		seg := c.run
		if seg == nil {
			continue
		}
		from := seg.lastSettle
		if e.clock <= from {
			continue
		}
		elapsed := e.clock - from
		progress := elapsed / seg.tpc
		if progress > seg.ts.Remaining {
			progress = seg.ts.Remaining
		}
		seg.ts.Remaining -= progress
		seg.ts.Energy += progress * seg.epc
		if e.cfg.Meter != nil {
			// nJ/cycle over ns/cycle is watts.
			if err := e.cfg.Meter.Record(from, e.clock, seg.epc/seg.tpc); err != nil && e.err == nil {
				e.err = err
			}
		}
		r := &c.residency[seg.lvl]
		r.seconds += elapsed
		r.seen = true
		if e.cfg.RecordTimeline {
			e.timeline = append(e.timeline, TimelineSegment{
				Core:   c.id,
				TaskID: seg.ts.Task.ID,
				Start:  from,
				End:    e.clock,
				Rate:   seg.level.Rate,
			})
		}
		seg.lastSettle = e.clock
	}
}

// invalidate marks the completion stamps stale after a mutation that
// settled the instant and changed the running set, a level or a
// segment's start. Each such mutation owes one stamp per running core.
func (e *Engine) invalidate() {
	e.stale = true
	e.stamps += uint64(e.active)
}

// restamp recomputes effective speeds (which depend on the active-core
// count) and restamps every running core's completion, replacing the
// one it held. Start, Preempt, SetLevel and completions only
// invalidate; step restamps once before it returns, and every reader
// of stamps, nextDone or the counters (next, Inject, the tick push)
// restamps first.
//
// One pass stands for all the passes the instant's mutations owe, bit
// for bit. The clock does not move within a step, and the first
// settleAll of an instant leaves every running segment with
// lastSettle >= clock, so later settles charge nothing: the pass reads
// the state the last owed pass would have read, including the final
// active count. seqCtr and orderCtr first skip the stamps of the
// earlier passes, then the pass stamps the running cores in core order,
// so every counter, seq and order ends where a pass per mutation would
// leave it and traces do not change.
func (e *Engine) restamp() {
	if !e.stale {
		return
	}
	skipped := e.stamps - uint64(e.active)
	e.seqCtr += skipped
	e.orderCtr += skipped
	e.stale, e.stamps = false, 0
	for _, c := range e.cores {
		seg := c.run
		if seg == nil {
			continue
		}
		seg.tpc = e.exec.TimePerCycle(seg.level, e.active)
		seg.epc = e.exec.EnergyPerCycle(seg.level, e.active)
		e.seqCtr++
		seg.seq = e.seqCtr
		start := seg.lastSettle
		if start < e.clock {
			start = e.clock
		}
		end := start + seg.ts.Remaining*seg.tpc
		e.orderCtr++
		c.done = event{time: end, kind: evCompletion, order: e.orderCtr, core: c.id, seq: seg.seq, task: -1}
	}
	e.findNextDone()
}

// findNextDone caches the core whose live completion comes first.
func (e *Engine) findNextDone() {
	e.nextDone = -1
	for _, c := range e.cores {
		if c.run != nil && (e.nextDone < 0 || eventLess(&c.done, &e.cores[e.nextDone].done)) {
			e.nextDone = c.id
		}
	}
}

// next returns the earliest pending event — the lesser of the heap top
// and the earliest live completion — or nil when none is pending.
func (e *Engine) next() *event {
	e.restamp()
	var top *event
	if len(e.events) > 0 {
		top = &e.events[0]
	}
	if e.nextDone >= 0 {
		if done := &e.cores[e.nextDone].done; top == nil || eventLess(done, top) {
			return done
		}
	}
	return top
}

// Start begins executing a task on an idle core at the given level.
// If the level differs from the core's current setting, the switch
// latency stalls execution first.
func (e *Engine) Start(i int, ts *TaskState, level model.RateLevel) error {
	c := e.cores[i]
	if c.run != nil {
		return fmt.Errorf("sim: core %d busy, cannot start task %d", i, ts.Task.ID)
	}
	if ts.Done {
		return fmt.Errorf("sim: task %d already done", ts.Task.ID)
	}
	lvl := c.rates.IndexOf(level.Rate)
	if lvl < 0 {
		return fmt.Errorf("sim: core %d does not support rate %v", i, level.Rate)
	}
	e.settleAll()
	stall := 0.0
	if !model.ApproxEq(c.level.Rate, level.Rate, model.DefaultEps) {
		stall = e.cfg.Platform.SwitchLatency
		c.switches++
		e.emit(obs.Event{Kind: obs.KindDVFS, Core: i, Task: -1,
			PrevRate: c.level.Rate, Rate: level.Rate, Eff: e.clock + stall})
	}
	c.level = level
	if !ts.Started {
		ts.Started = true
		ts.FirstStart = e.clock
	}
	c.seg = runSeg{
		ts:         ts,
		level:      level,
		lvl:        lvl,
		execStart:  e.clock + stall,
		lastSettle: e.clock + stall,
	}
	c.run = &c.seg
	c.accountBusy(e.clock)
	c.isBusy = true
	e.active++
	e.emit(obs.Event{Kind: obs.KindStart, Core: i, Task: ts.Task.ID,
		Rate: level.Rate, Eff: e.clock + stall, Cycles: ts.Task.Cycles,
		Remaining: ts.Remaining, Energy: ts.Energy, Interactive: ts.Task.Interactive})
	e.emit(obs.Event{Kind: obs.KindCoreActive, Core: i, Task: ts.Task.ID})
	e.invalidate()
	return nil
}

// Preempt pauses the task running on core i and returns it with its
// Remaining cycles updated. The policy is responsible for resuming it
// later via Start.
func (e *Engine) Preempt(i int) (*TaskState, error) {
	c := e.cores[i]
	if c.run == nil {
		return nil, fmt.Errorf("sim: core %d idle, nothing to preempt", i)
	}
	e.settleAll()
	ts := c.run.ts
	ts.Preemptions++
	c.run = nil
	c.accountBusy(e.clock)
	c.isBusy = false
	e.active--
	e.emit(obs.Event{Kind: obs.KindPreempt, Core: i, Task: ts.Task.ID,
		Cycles: ts.Task.Cycles, Remaining: ts.Remaining, Energy: ts.Energy})
	e.emit(obs.Event{Kind: obs.KindCoreIdle, Core: i, Task: -1})
	e.invalidate()
	return ts, nil
}

// SetLevel changes core i's frequency. A running task continues at the
// new speed after the switch stall.
func (e *Engine) SetLevel(i int, level model.RateLevel) error {
	c := e.cores[i]
	lvl := c.rates.IndexOf(level.Rate)
	if lvl < 0 {
		return fmt.Errorf("sim: core %d does not support rate %v", i, level.Rate)
	}
	if model.ApproxEq(c.level.Rate, level.Rate, model.DefaultEps) {
		return nil
	}
	prev := c.level.Rate
	c.switches++
	c.level = level
	if c.run == nil {
		e.emit(obs.Event{Kind: obs.KindDVFS, Core: i, Task: -1,
			PrevRate: prev, Rate: level.Rate, Eff: e.clock})
		return nil
	}
	e.settleAll()
	c.run.level = level
	c.run.lvl = lvl
	c.run.execStart = e.clock + e.cfg.Platform.SwitchLatency
	if c.run.lastSettle < c.run.execStart {
		c.run.lastSettle = c.run.execStart
	}
	e.emit(obs.Event{Kind: obs.KindDVFS, Core: i, Task: c.run.ts.Task.ID,
		PrevRate: prev, Rate: level.Rate, Eff: c.run.lastSettle})
	e.invalidate()
	return nil
}

// Result summarizes a run.
type Result struct {
	// Policy is the policy name.
	Policy string
	// Tasks holds final per-task states sorted by task ID.
	Tasks []*TaskState
	// ActiveEnergy is the energy consumed executing tasks, in joules.
	ActiveEnergy float64
	// IdleEnergy is IdleWatts integrated over core idle time up to
	// the makespan.
	IdleEnergy float64
	// TotalEnergy is active plus idle energy.
	TotalEnergy float64
	// Makespan is the latest completion time, in seconds.
	Makespan float64
	// TurnaroundSum is the sum of per-task turnaround times.
	TurnaroundSum float64
	// EnergyCost, TimeCost and TotalCost apply the cost model to the
	// measured energy and turnarounds, in cents.
	EnergyCost, TimeCost, TotalCost float64
	// Switches counts frequency switches across cores.
	Switches int
	// Preemptions counts task preemptions.
	Preemptions int
	// Timeline holds recorded execution segments (only when
	// Config.RecordTimeline was set), ordered by settle time.
	Timeline []TimelineSegment
	// Residency maps, per core, each rate (GHz) to the busy seconds
	// spent at it — the frequency-residency histogram cpufreq stats
	// expose on real hardware.
	Residency []map[float64]float64
}

// Run simulates the tasks under the configured policy and returns the
// outcome. It is deterministic for identical inputs. Run is the
// one-shot form of a Session: open, inject everything, drain, finish.
func Run(cfg Config, tasks model.TaskSet, params model.CostParams) (*Result, error) {
	return RunContext(context.Background(), cfg, tasks, params)
}

// RunContext is Run with cancellation: the context is polled between
// events, and a canceled run returns an error matching ErrCanceled and
// the context's own error.
func RunContext(ctx context.Context, cfg Config, tasks model.TaskSet, params model.CostParams) (*Result, error) {
	if err := tasks.Validate(); err != nil {
		return nil, err
	}
	s, err := OpenSession(cfg, params)
	if err != nil {
		return nil, err
	}
	if err := s.Inject(tasks); err != nil {
		return nil, err
	}
	return s.Finish(ctx)
}

// finalize summarizes the engine state into a Result once every task
// has completed.
func (e *Engine) finalize(params model.CostParams) (*Result, error) {
	res := &Result{Policy: e.cfg.Policy.Name(), Timeline: e.timeline}
	res.Tasks = append(res.Tasks, e.tasks...)
	sort.Slice(res.Tasks, func(i, j int) bool { return res.Tasks[i].Task.ID < res.Tasks[j].Task.ID })
	var busyTotal float64
	for _, c := range e.cores {
		c.accountBusy(e.clock)
		busyTotal += c.busyTotal
		res.Switches += c.switches
		res.Residency = append(res.Residency, c.residencyByRate())
	}
	for _, ts := range res.Tasks {
		res.ActiveEnergy += ts.Energy
		res.TurnaroundSum += ts.Turnaround()
		res.Preemptions += ts.Preemptions
		if ts.Completion > res.Makespan {
			res.Makespan = ts.Completion
		}
	}
	if e.cfg.Platform.IdleWatts > 0 {
		idleTime := float64(len(e.cores))*res.Makespan - busyTotal
		if idleTime > 0 {
			res.IdleEnergy = e.cfg.Platform.IdleWatts * idleTime
		}
	}
	res.TotalEnergy = res.ActiveEnergy + res.IdleEnergy
	res.EnergyCost = params.Re * res.TotalEnergy
	res.TimeCost = params.Rt * res.TurnaroundSum
	res.TotalCost = res.EnergyCost + res.TimeCost
	if math.IsNaN(res.TotalCost) || math.IsInf(res.TotalCost, 0) {
		return nil, fmt.Errorf("sim: non-finite cost")
	}
	return res, nil
}
