package core

import (
	"context"
	"fmt"

	"dvfsched/internal/model"
	"dvfsched/internal/obs"
)

// ReplayTrace re-admits the arrival events of a recorded trace into
// the session. Arrivals are submitted one at a time, in sequence
// order, at their recorded (possibly clamped) timestamps — arrival
// events pop from the engine in nondecreasing time order, so the
// strict Submit contract always holds and the engine re-derives the
// same schedule it produced the first time. It returns the number of
// tasks re-admitted.
//
// This is how internal/cluster promotes a replica: LMC's schedule is a
// deterministic function of the arrival sequence, so replaying a
// session's whole shipped log into a fresh session rebuilds it. Names
// and deadlines are not recorded in arrival events and are dropped on
// replay; the Least Marginal Cost policy consults neither, so the
// rebuilt schedule is unchanged.
func (o *OnlineSession) ReplayTrace(ctx context.Context, events []obs.Event) (int, error) {
	n := 0
	for _, ev := range events {
		if ev.Kind != obs.KindArrival {
			continue
		}
		task := model.Task{
			ID:          ev.Task,
			Cycles:      ev.Cycles,
			Arrival:     ev.T,
			Deadline:    model.NoDeadline,
			Interactive: ev.Interactive,
		}
		if err := o.Submit(ctx, model.TaskSet{task}); err != nil {
			return n, fmt.Errorf("replay arrival seq %d (task %d at t=%v): %w", ev.Seq, ev.Task, ev.T, err)
		}
		n++
	}
	return n, nil
}
