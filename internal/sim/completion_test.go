package sim

import (
	"context"
	"math"
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
	for i := range e.cores {
		c := &e.cores[i]
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
		Policy:       &dvfsFIFO{},
		TickInterval: 0.25,
	}, paperParams)
	if err != nil {
		t.Fatal(err)
	}
	tasks := dvfsTasks()
	if err := s.Inject(tasks); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for n := 0; ; n++ {
		checkLiveCompletions(t, s.e)
		// Never more queued than pending arrivals plus one tick.
		if len(s.e.events) > len(tasks)+1 {
			t.Fatalf("event heap holds %d events for %d tasks", len(s.e.events), len(tasks))
		}
		ok, err := s.step(ctx, math.Inf(1), n)
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

// TestMutationsBetweenStepsRestampFirst drives Start and Preempt from
// outside a step, where no end-of-step restamp follows them. Inject and
// next must each apply the owed restamp before they read stamps or
// counters, leaving the state one restamp per mutation would.
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
	// Two arrivals took orders 1 and 2. The two Starts owe three
	// stamps: Inject skips one (order 3) and restamps both cores
	// (orders 4, 5) before the arrival's order 6.
	if err := e.Start(0, pol.held[0], table2().Max()); err != nil {
		t.Fatal(err)
	}
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
