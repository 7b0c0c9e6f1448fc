package model

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Task is a sequence of instructions to be executed by one core, as in
// Section II-A of the paper: j_k = (L_k, A_k, D_k).
type Task struct {
	// ID identifies the task. The scheduling algorithms treat it as
	// opaque; generators assign sequential IDs.
	ID int
	// Name is an optional human-readable label (e.g. the SPEC
	// benchmark the task models).
	Name string
	// Cycles is L_k, the number of Gcycles needed to complete the
	// task. It must be positive.
	Cycles float64
	// Arrival is A_k in seconds. Batch-mode tasks all have Arrival 0.
	Arrival float64
	// Deadline is D_k in seconds. Tasks without a time constraint use
	// NoDeadline (+Inf).
	Deadline float64
	// Interactive marks online-mode tasks initiated by a user that
	// must be completed as soon as possible. Interactive tasks have
	// higher priority than non-interactive ones and may preempt them.
	Interactive bool
}

// NoDeadline is the Deadline value of a task with no time constraint.
var NoDeadline = math.Inf(1)

// HasDeadline reports whether the task carries a finite deadline.
func (t Task) HasDeadline() bool { return !math.IsInf(t.Deadline, 1) }

// Validate checks the task invariants from the task model.
func (t Task) Validate() error {
	switch {
	case t.Cycles <= 0 || math.IsNaN(t.Cycles) || math.IsInf(t.Cycles, 0):
		return fmt.Errorf("model: task %d: cycles must be positive and finite, got %v", t.ID, t.Cycles)
	case t.Arrival < 0 || math.IsNaN(t.Arrival):
		return fmt.Errorf("model: task %d: arrival must be non-negative, got %v", t.ID, t.Arrival)
	case t.HasDeadline() && t.Deadline <= t.Arrival:
		return fmt.Errorf("model: task %d: deadline %v must exceed arrival %v", t.ID, t.Deadline, t.Arrival)
	case math.IsNaN(t.Deadline):
		return fmt.Errorf("model: task %d: deadline is NaN", t.ID)
	}
	return nil
}

func (t Task) String() string {
	kind := "batch"
	if t.Interactive {
		kind = "interactive"
	}
	if t.Name != "" {
		return fmt.Sprintf("task %d (%s, %s, %.3f Gcyc)", t.ID, t.Name, kind, t.Cycles)
	}
	return fmt.Sprintf("task %d (%s, %.3f Gcyc)", t.ID, kind, t.Cycles)
}

// TaskSet is an ordered collection of tasks.
type TaskSet []Task

// Validate checks every task and that IDs are unique, reporting the
// first fault in input order. IDs that strictly increase are unique
// without an index, so the set of IDs is built only at the first ID
// that does not, from the IDs before it.
func (ts TaskSet) Validate() error {
	if len(ts) == 0 {
		return errors.New("model: empty task set")
	}
	var seen map[int]bool
	for i, t := range ts {
		if err := t.Validate(); err != nil {
			return err
		}
		if seen == nil {
			if i == 0 || t.ID > ts[i-1].ID {
				continue
			}
			seen = make(map[int]bool, len(ts))
			for _, u := range ts[:i] {
				seen[u.ID] = true
			}
		}
		if seen[t.ID] {
			return fmt.Errorf("model: duplicate task ID %d", t.ID)
		}
		seen[t.ID] = true
	}
	return nil
}

// TotalCycles returns the sum of L_k over the set, in Gcycles.
func (ts TaskSet) TotalCycles() float64 {
	var sum float64
	for _, t := range ts {
		sum += t.Cycles
	}
	return sum
}

// Clone returns a deep copy of the set.
func (ts TaskSet) Clone() TaskSet {
	out := make(TaskSet, len(ts))
	copy(out, ts)
	return out
}

// SortByCyclesAsc sorts tasks in non-decreasing order of cycles (the
// optimal single-core execution order of Theorem 3), breaking ties by ID
// for determinism.
func (ts TaskSet) SortByCyclesAsc() {
	ts.sortByKey(func(t *Task) float64 { return t.Cycles })
}

// SortByCyclesDesc sorts tasks in non-increasing order of cycles (the
// assignment order used by Workload Based Greedy), breaking ties by ID.
func (ts TaskSet) SortByCyclesDesc() {
	// Negation is exact, so ascending -L is descending L.
	ts.sortByKey(func(t *Task) float64 { return -t.Cycles })
}

// ByArrival sorts tasks by arrival time (stable, ties by ID), the order
// an online scheduler observes them.
func (ts TaskSet) ByArrival() {
	ts.sortByKey(func(t *Task) float64 { return t.Arrival })
}

// sortKey is one task's place in a sort: the compared value, the ID
// tie-break and the task's position before the sort.
type sortKey struct {
	v   float64
	id  int
	pos int
}

// sortByKey orders tasks by (key, ID), keeping the input order among
// tasks equal in both, as a stable sort would. It sorts a pointer-free
// key slice, in which the original position breaks every remaining tie,
// so the order is total and the unstable slices.SortFunc yields exactly
// the stable order; it then moves each task once, following the
// permutation's cycles in place. Keys compare with < and >, so signed
// zeros tie; a NaN key (which Validate rejects) has no defined place.
func (ts TaskSet) sortByKey(key func(*Task) float64) {
	keys := make([]sortKey, len(ts))
	for i := range ts {
		keys[i] = sortKey{v: key(&ts[i]), id: ts[i].ID, pos: i}
	}
	slices.SortFunc(keys, func(a, b sortKey) int {
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		}
		if c := cmp.Compare(a.id, b.id); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	// ts[i] takes the task that stood at keys[i].pos; a visited slot is
	// marked by pointing its key at itself.
	for i := range keys {
		if keys[i].pos == i {
			continue
		}
		held := ts[i]
		j := i
		for {
			from := keys[j].pos
			keys[j].pos = j
			if from == i {
				ts[j] = held
				break
			}
			ts[j] = ts[from]
			j = from
		}
	}
}

// Split partitions the set into interactive and non-interactive subsets,
// preserving order.
func (ts TaskSet) Split() (interactive, nonInteractive TaskSet) {
	for _, t := range ts {
		if t.Interactive {
			interactive = append(interactive, t)
		} else {
			nonInteractive = append(nonInteractive, t)
		}
	}
	return interactive, nonInteractive
}
