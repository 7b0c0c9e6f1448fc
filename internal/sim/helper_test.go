package sim

import (
	"fmt"
	"math/rand"

	"dvfsched/internal/model"
)

// dvfsFIFO is a variant of the test FIFO policy: queue in arrival
// order, first idle core, and a level that alternates by task ID
// parity so runs exercise DVFS switches. Its ticks drop an idle core
// to the lowest level.
type dvfsFIFO struct {
	queue []*TaskState
}

func (f *dvfsFIFO) Name() string   { return "dvfs-fifo" }
func (f *dvfsFIFO) Init(e *Engine) {}
func (f *dvfsFIFO) OnTick(e *Engine) {
	// Nudge an idle core's level around so tick events have visible
	// consequences.
	for i := 0; i < e.NumCores(); i++ {
		if e.Idle(i) {
			if err := e.SetLevel(i, e.RateTable(i).Min()); err != nil {
				panic(err)
			}
			return
		}
	}
}
func (f *dvfsFIFO) OnArrival(e *Engine, t *TaskState)           { f.queue = append(f.queue, t); f.drain(e) }
func (f *dvfsFIFO) OnCompletion(e *Engine, _ int, _ *TaskState) { f.drain(e) }
func (f *dvfsFIFO) drain(e *Engine) {
	for i := 0; i < e.NumCores() && len(f.queue) > 0; i++ {
		if !e.Idle(i) {
			continue
		}
		t := f.queue[0]
		f.queue = f.queue[1:]
		rt := e.RateTable(i)
		level := rt.Max()
		if t.Task.ID%2 == 0 {
			level = rt.Min()
		}
		if err := e.Start(i, t, level); err != nil {
			panic(err)
		}
	}
}

// dvfsTasks builds a deterministic workload that keeps 3 cores
// oversubscribed: mixed lengths, staggered arrivals, both level
// parities.
func dvfsTasks() model.TaskSet {
	rng := rand.New(rand.NewSource(7)) // deterministic workload, not randomness
	tasks := make(model.TaskSet, 40)
	for i := range tasks {
		tasks[i] = model.Task{
			ID:          i + 1,
			Name:        fmt.Sprintf("job-%d", i+1),
			Cycles:      rng.Float64()*20 + 0.5,
			Arrival:     rng.Float64() * 8,
			Deadline:    model.NoDeadline,
			Interactive: i%3 == 0,
		}
	}
	return tasks
}
