package sim

import (
	"context"
	"math"
	"sort"
	"testing"

	"dvfsched/internal/model"
	"dvfsched/internal/obs"
	"dvfsched/internal/platform"
)

// checkLiveCompletions asserts the engine's completion bookkeeping: the
// heap holds only arrivals and ticks, every running core holds its one
// live completion, and nextDone names the earliest of them.
func checkLiveCompletions(t *testing.T, e *Engine) {
	t.Helper()
	for i := range e.events {
		if e.events[i].kind == evCompletion {
			t.Fatalf("t=%v: completion for core %d in the event heap", e.clock, e.events[i].core)
		}
	}
	first := -1
	for _, c := range e.cores {
		if c.run == nil {
			continue
		}
		if c.done.kind != evCompletion || c.done.core != c.id || c.done.seq != c.run.seq {
			t.Fatalf("t=%v: core %d holds %+v, not its live completion (seq %d)", e.clock, c.id, c.done, c.run.seq)
		}
		if first < 0 || eventLess(&c.done, &e.cores[first].done) {
			first = c.id
		}
	}
	if e.nextDone != first {
		t.Fatalf("t=%v: nextDone = %d, earliest live completion is on core %d", e.clock, e.nextDone, first)
	}
}

func TestEventHeapHoldsNoCompletions(t *testing.T) {
	s, err := OpenSession(Config{
		Platform:     platform.Homogeneous(3, table2(), platform.DefaultRealistic()),
		Policy:       &cpFIFO{},
		TickInterval: 0.25,
	}, paperParams)
	if err != nil {
		t.Fatal(err)
	}
	tasks := checkpointTasks()
	if err := s.Inject(tasks); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for steps := 0; ; steps++ {
		checkLiveCompletions(t, s.e)
		if steps%50 == 0 && s.e.undone > 0 {
			cp, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if want := len(s.e.events) + s.e.active; len(cp.Events) != want {
				t.Fatalf("checkpoint holds %d events, want %d queued + %d live", len(cp.Events), len(s.e.events), s.e.active)
			}
		}
		// Never more queued than pending arrivals plus one tick.
		if len(s.e.events) > len(tasks)+1 {
			t.Fatalf("event heap holds %d events for %d tasks", len(s.e.events), len(tasks))
		}
		ok, err := s.step(ctx, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("%d tasks pending after the event loop ran dry", s.Pending())
	}
}

// sortEvents lays events out in eventLess order, which is a valid heap
// of any arity.
func sortEvents(evs []EventState) {
	sort.Slice(evs, func(i, j int) bool {
		a := event{time: evs[i].Time, kind: evs[i].Kind, order: evs[i].Order}
		b := event{time: evs[j].Time, kind: evs[j].Kind, order: evs[j].Order}
		return eventLess(&a, &b)
	})
}

// TestRestoreDropsSupersededCompletions feeds restore a checkpoint in
// the older layout, where the event queue also held completions that a
// reschedule had superseded (their Seq differs from the core's
// RunSeq), some due before the live one and some after. Restore must
// drop them and resume byte-identically; a running core with no live
// completion, or with two, is corrupt.
func TestRestoreDropsSupersededCompletions(t *testing.T) {
	ctx := context.Background()
	const cut = 1.7
	recA := &obs.Recorder{}
	cfg := Config{
		Platform:     platform.Homogeneous(3, table2(), platform.DefaultRealistic()),
		Policy:       &cpFIFO{},
		TickInterval: 0.25,
		Sink:         recA,
	}
	sA, err := OpenSession(cfg, paperParams)
	if err != nil {
		t.Fatal(err)
	}
	if err := sA.Inject(checkpointTasks()); err != nil {
		t.Fatal(err)
	}
	if err := sA.AdvanceTo(ctx, cut); err != nil {
		t.Fatal(err)
	}
	cp, err := sA.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	old := *cp
	old.Events = append([]EventState(nil), cp.Events...)
	live := -1 // index of one live completion in cp.Events
	for i, ev := range cp.Events {
		if ev.Kind != evCompletion {
			continue
		}
		live = i
		for _, dt := range []float64{-0.01, 0, 0.5} {
			stale := ev
			stale.Time = math.Max(cp.Clock, ev.Time+dt)
			stale.Seq = ev.Seq - 1
			stale.Order = ev.Order - 1
			old.Events = append(old.Events, stale)
		}
	}
	if live < 0 {
		t.Fatal("no core running at the cut; nothing to supersede")
	}
	for i, cc := range cp.Cores {
		if cc.RunTask < 0 { // an idle core's leftover completion
			old.Events = append(old.Events, EventState{Time: cp.Clock + 1, Kind: evCompletion, Core: i, Seq: 1, Task: -1})
		}
	}
	sortEvents(old.Events)

	recB := &obs.Recorder{}
	cfgB := cfg
	cfgB.Policy = &cpFIFO{}
	cfgB.Sink = recB
	sB, err := RestoreSession(cfgB, paperParams, &old)
	if err != nil {
		t.Fatal(err)
	}
	checkLiveCompletions(t, sB.e)
	late := model.TaskSet{{ID: 101, Cycles: 6, Arrival: cut + 0.4, Deadline: model.NoDeadline}}
	if err := sA.Inject(late); err != nil {
		t.Fatal(err)
	}
	if err := sB.Inject(late.Clone()); err != nil {
		t.Fatal(err)
	}
	resA, err := sA.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := sB.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, resA, resB)
	if want, got := traceBytes(suffixAfter(recA.Events(), cp.EvSeq)), traceBytes(recB.Events()); string(want) != string(got) {
		t.Fatalf("trace suffix diverged: original %d bytes, restored %d bytes", len(want), len(got))
	}

	fresh := func() Config {
		c := cfg
		c.Policy = &cpFIFO{}
		c.Sink = nil
		return c
	}
	missing := *cp
	missing.Events = append(append([]EventState(nil), cp.Events[:live]...), cp.Events[live+1:]...)
	sortEvents(missing.Events)
	if _, err := RestoreSession(fresh(), paperParams, &missing); err == nil {
		t.Error("a running core without its live completion accepted")
	}
	twice := *cp
	twice.Events = append(append([]EventState(nil), cp.Events...), cp.Events[live])
	sortEvents(twice.Events)
	if _, err := RestoreSession(fresh(), paperParams, &twice); err == nil {
		t.Error("a core with two live completions accepted")
	}
}

// TestCompletionPrecedesArrivalAtSameInstant pins the tie between the
// two event sources: a live completion and a queued arrival due at the
// bit-identical instant must pop completion first, as eventLess orders
// kinds.
func TestCompletionPrecedesArrivalAtSameInstant(t *testing.T) {
	first := model.TaskSet{{ID: 1, Cycles: 10, Deadline: model.NoDeadline}}
	solo, err := Run(Config{Platform: singleCorePlatform(), Policy: newFIFO()}, first, paperParams)
	if err != nil {
		t.Fatal(err)
	}
	end := solo.Tasks[0].Completion
	rec := &obs.Recorder{}
	tasks := append(first.Clone(), model.Task{ID: 2, Cycles: 10, Arrival: end, Deadline: model.NoDeadline})
	if _, err := Run(Config{Platform: singleCorePlatform(), Policy: newFIFO(), Sink: rec}, tasks, paperParams); err != nil {
		t.Fatal(err)
	}
	var kinds []obs.Kind
	for _, ev := range rec.Events() {
		if ev.T == end && (ev.Kind == obs.KindComplete || ev.Kind == obs.KindArrival) {
			kinds = append(kinds, ev.Kind)
		}
	}
	if len(kinds) != 2 || kinds[0] != obs.KindComplete {
		t.Fatalf("events at t=%v: %v, want the completion before the arrival", end, kinds)
	}
}

// holdPolicy keeps every arrival and starts nothing, so a test can
// drive the engine's mutations itself between steps.
type holdPolicy struct{ held []*TaskState }

func (p *holdPolicy) Name() string                          { return "hold" }
func (p *holdPolicy) Init(*Engine)                          {}
func (p *holdPolicy) OnArrival(_ *Engine, ts *TaskState)    { p.held = append(p.held, ts) }
func (p *holdPolicy) OnCompletion(*Engine, int, *TaskState) {}
func (p *holdPolicy) OnTick(*Engine)                        {}

func (p *holdPolicy) SnapshotPolicy(func(*TaskState) int) ([]byte, error) { return nil, nil }
func (p *holdPolicy) RestorePolicy([]byte, func(int) *TaskState) error    { return nil }

// TestMutationsBetweenStepsRestampFirst drives Start and Preempt from
// outside a step, where no end-of-step restamp follows them. Snapshot,
// Inject and next must each apply the owed restamp before they read
// stamps or counters, leaving the state one restamp per mutation would.
func TestMutationsBetweenStepsRestampFirst(t *testing.T) {
	ctx := context.Background()
	pol := &holdPolicy{}
	s, err := OpenSession(Config{Platform: platform.Homogeneous(2, table2(), platform.DefaultRealistic()), Policy: pol}, paperParams)
	if err != nil {
		t.Fatal(err)
	}
	e := s.e
	if err := s.Inject(model.TaskSet{
		{ID: 1, Cycles: 4, Deadline: model.NoDeadline},
		{ID: 2, Cycles: 2, Deadline: model.NoDeadline},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceTo(ctx, 0); err != nil || len(pol.held) != 2 {
		t.Fatalf("advance: %v, %d held", err, len(pol.held))
	}
	// Two arrivals took orders 1 and 2.
	if err := e.Start(0, pol.held[0], table2().Max()); err != nil {
		t.Fatal(err)
	}
	cp, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if cp.SeqCtr != 1 || cp.OrderCtr != 3 || len(cp.Events) != 1 || cp.Events[0].Seq != cp.Cores[0].RunSeq {
		t.Fatalf("snapshot after Start: seq %d order %d events %+v", cp.SeqCtr, cp.OrderCtr, cp.Events)
	}
	checkLiveCompletions(t, e)

	// Start owes two stamps (orders 4, 5) before the arrival's order 6.
	if err := e.Start(1, pol.held[1], table2().Min()); err != nil {
		t.Fatal(err)
	}
	if err := s.Inject(model.TaskSet{{ID: 3, Cycles: 1, Arrival: 1, Deadline: model.NoDeadline}}); err != nil {
		t.Fatal(err)
	}
	if e.seqCtr != 3 || len(e.events) != 1 || e.events[0].order != 6 {
		t.Fatalf("inject after Start: seq %d, queued %+v", e.seqCtr, e.events)
	}
	checkLiveCompletions(t, e)

	// Preempt leaves core 1 running alone; next must see its new stamp.
	if _, err := e.Preempt(0); err != nil {
		t.Fatal(err)
	}
	ev := e.next()
	checkLiveCompletions(t, e)
	if ev == nil || ev.kind != evArrival || e.nextDone != 1 || e.seqCtr != 4 || e.orderCtr != 7 {
		t.Fatalf("next after Preempt: %+v, nextDone %d, seq %d, order %d", ev, e.nextDone, e.seqCtr, e.orderCtr)
	}
}
