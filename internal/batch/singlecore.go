package batch

import (
	"dvfsched/internal/model"
)

// SingleCore implements Algorithm 2 ("Longest Task Last"): the optimal
// schedule of a batch of independent tasks without deadlines on one
// core. It runs in O(|J| log |J| + |P|).
//
// By Theorem 3 the optimal execution order is non-decreasing in cycle
// count (shortest first), and by Lemma 1 the optimal rate for a task
// depends only on its position: the task at backward position k (k = 1
// runs last) uses the rate whose dominating position range contains k.
// Front tasks therefore run short-and-fast, tail tasks long-and-slow.
// On one core the round robin of Theorem 4 is exactly this: the i-th
// longest task takes backward position i+1, its rate found by walking
// the envelope ranges in one pass (the loop structure of Algorithm 2).
func SingleCore(params model.CostParams, rates *model.RateTable, tasks model.TaskSet) (*Plan, error) {
	return Homogeneous(params, rates, 1, tasks)
}
