package experiments

import (
	"context"

	"dvfsched/internal/batch"
	"dvfsched/internal/envelope"
	"dvfsched/internal/model"
	"dvfsched/internal/platform"
)

// planWBG builds a 4-core WBG plan on the Table II menu.
func planWBG(params model.CostParams, tasks model.TaskSet) (*batch.Plan, error) {
	return planWBGWith(params, platform.TableII(), tasks)
}

// planWBGWith builds a 4-core WBG plan on the given menu. Experiments
// sweep the same platform across many workloads, so they share the
// process-wide envelope cache.
func planWBGWith(params model.CostParams, rt *model.RateTable, tasks model.TaskSet) (*batch.Plan, error) {
	return batch.WBGContext(context.Background(), params, batch.HomogeneousCores(4, rt), tasks,
		envelope.Shared())
}
