package core

import (
	"context"
	"fmt"

	"dvfsched/internal/model"
	"dvfsched/internal/obs"
)

// ReplayTrace rebuilds the session a recorded trace describes. It
// re-admits the trace's arrival events one at a time, in sequence
// order, at their recorded (possibly clamped) timestamps — arrival
// events pop from the engine in nondecreasing time order, so the
// strict Submit contract always holds and the engine re-derives the
// same schedule it produced the first time. It then steps the engine
// until it has emitted the trace's last Seq, which re-derives what the
// source ran after its last arrival (a canceled drain, say), and fails
// unless the engine ends exactly there. It returns the number of tasks
// re-admitted.
//
// This is how internal/cluster promotes a replica and adopts a
// migrated session: LMC's schedule is a deterministic function of the
// arrival sequence, so replaying a session's whole log into a fresh
// session rebuilds it, clock, pending work and event Seq included.
// Names and deadlines are not recorded in arrival events and are
// dropped on replay; the Least Marginal Cost policy consults neither,
// so the rebuilt schedule is unchanged.
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
	if len(events) > 0 {
		last := events[len(events)-1].Seq
		if err := o.sess.StepTo(ctx, last); err != nil {
			return n, fmt.Errorf("replay to the trace's last seq %d: %w", last, wrapCanceled(err))
		}
	}
	return n, nil
}
