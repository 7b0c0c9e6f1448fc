package batch

import (
	"context"
	"errors"
	"fmt"

	"dvfsched/internal/envelope"
	"dvfsched/internal/model"
)

// ErrNoCores is returned when planning is attempted with an empty core
// set. Matchable via errors.Is.
var ErrNoCores = errors.New("batch: no cores")

// CoreSpec describes one core available to the scheduler. Cores may
// differ in their rate tables (heterogeneous systems) but share the
// cost constants.
type CoreSpec struct {
	// Rates is the core's discrete rate set with its E and T
	// functions.
	Rates *model.RateTable
}

// HomogeneousCores returns r identical CoreSpecs sharing one table.
func HomogeneousCores(r int, rates *model.RateTable) []CoreSpec {
	cores := make([]CoreSpec, r)
	for i := range cores {
		cores[i] = CoreSpec{Rates: rates}
	}
	return cores
}

// slot is a candidate (core, backward position) pair in the greedy
// heap, ordered by the per-cycle cost C_j(k).
type slot struct {
	cost float64
	core int
	k    int // backward position on that core
}

// before orders slots by cost, then core, then position: a total order,
// since no two slots share a (core, k), so the heap's minimum is unique
// however the heap is arranged.
func (s slot) before(o slot) bool {
	//dvfslint:allow floatcmp heap ordering needs a strict weak order; epsilon equality is intransitive
	if s.cost != o.cost {
		return s.cost < o.cost
	}
	if s.core != o.core {
		return s.core < o.core // deterministic tie-break
	}
	return s.k < o.k
}

// slotHeap is a binary min-heap of slots, one per core.
type slotHeap []slot

// init establishes the heap order over arbitrary contents.
func (h slotHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// down sifts h[i] toward the leaves until neither child precedes it.
func (h slotHeap) down(i int) {
	s := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(s) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = s
}

// WBG implements Algorithm 3, Workload Based Greedy: the optimal batch
// schedule for tasks without deadlines on R possibly-heterogeneous
// cores (Theorem 5). Tasks are considered in non-increasing cycle
// order; each is assigned to the (core, backward position) slot with
// the least per-cycle cost C_j(k), taken from a min-heap seeded with
// C_j(1) for every core. It runs in O(|J| (log |J| + log R) + R|P|).
func WBG(params model.CostParams, cores []CoreSpec, tasks model.TaskSet) (*Plan, error) {
	return WBGContext(context.Background(), params, cores, tasks, nil)
}

// ctxCheckInterval is how many greedy placements WBGContext performs
// between context polls.
const ctxCheckInterval = 1024

// WBGContext is WBG with cancellation and, when cache is non-nil,
// per-core envelopes resolved through the memoized cache instead of
// recomputed. The schedule is identical to WBG's for identical inputs:
// the cache returns the same envelopes Compute would.
func WBGContext(ctx context.Context, params model.CostParams, cores []CoreSpec, tasks model.TaskSet, cache *envelope.Cache) (*Plan, error) {
	if len(cores) == 0 {
		return nil, ErrNoCores
	}
	if err := tasks.Validate(); err != nil {
		return nil, err
	}
	envs, err := resolveEnvelopes(params, cores, cache)
	if err != nil {
		return nil, err
	}

	sorted := tasks.Clone()
	sorted.SortByCyclesDesc()

	h := make(slotHeap, len(cores))
	for j := range cores {
		h[j] = slot{cost: envs[j].Cost(1), core: j, k: 1}
	}
	h.init()

	// The greedy loop only records where each task goes; the plan is
	// laid out once the per-core counts are known.
	placed := make([]placement, len(sorted))
	counts := make([]int, len(cores))
	for n := range sorted {
		if n%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("batch: plan canceled: %w", err)
			}
		}
		// Placing a task takes the top slot and replaces it with the
		// same core's next backward position.
		s := &h[0]
		env := envs[s.core]
		placed[n] = placement{core: s.core, level: env.LevelFor(s.k)}
		counts[s.core] = s.k
		s.k++
		s.cost = env.Cost(s.k)
		h.down(0)
	}
	return layOut(params, sorted, counts, func(n int) placement { return placed[n] }), nil
}

// placement is where the greedy put one task: its core and rate level.
type placement struct {
	core  int
	level model.RateLevel
}

// layOut builds a plan from tasks in non-increasing cycle order, where
// task n goes to place(n) and counts[j] tasks go to core j. All
// assignments share one exact-size slab, and core j's Sequence is a
// capped sub-slice of it, filled from its end: the first task placed on
// a core (backward position 1) runs last.
func layOut(params model.CostParams, sorted model.TaskSet, counts []int, place func(n int) placement) *Plan {
	slab := make([]model.Assignment, len(sorted))
	plan := &Plan{Params: params, Cores: make([]CorePlan, len(counts))}
	// next[j] is the slab index of core j's next placement.
	next := make([]int, len(counts))
	end := 0
	for j, c := range counts {
		end += c
		plan.Cores[j] = CorePlan{Core: j, Sequence: slab[end-c : end : end]}
		next[j] = end - 1
	}
	for n := range sorted {
		p := place(n)
		slab[next[p.core]] = model.Assignment{Task: sorted[n], Level: p.level}
		next[p.core]--
	}
	return plan
}

// resolveEnvelopes materializes each core's dominating-range envelope,
// through cache when it is non-nil.
func resolveEnvelopes(params model.CostParams, cores []CoreSpec, cache *envelope.Cache) ([]*envelope.Envelope, error) {
	envs := make([]*envelope.Envelope, len(cores))
	for i, c := range cores {
		var err error
		if cache != nil {
			envs[i], err = cache.Get(params, c.Rates)
		} else {
			envs[i], err = envelope.Compute(params, c.Rates)
		}
		if err != nil {
			return nil, fmt.Errorf("batch: core %d: %w", i, err)
		}
	}
	return envs, nil
}

// Homogeneous implements the round-robin technique of Theorem 4 for R
// identical cores: the i-th longest task (0-indexed) is placed at
// backward position i/R + 1 of core i mod R. For identical cores this
// coincides with WBG but runs without a heap.
func Homogeneous(params model.CostParams, rates *model.RateTable, r int, tasks model.TaskSet) (*Plan, error) {
	if r <= 0 {
		return nil, fmt.Errorf("batch: need at least one core, got %d", r)
	}
	env, err := envelope.Compute(params, rates)
	if err != nil {
		return nil, err
	}
	if err := tasks.Validate(); err != nil {
		return nil, err
	}
	sorted := tasks.Clone()
	sorted.SortByCyclesDesc()

	// The i-th longest task goes to core i mod r, so core j gets every
	// r-th task from j on.
	counts := make([]int, r)
	for j := range counts {
		counts[j] = (len(sorted) - j + r - 1) / r
	}
	ri := 0
	return layOut(params, sorted, counts, func(i int) placement {
		k := i/r + 1
		for !env.Range(ri).Contains(k) {
			ri++
		}
		return placement{core: i % r, level: env.Range(ri).Level}
	}), nil
}
