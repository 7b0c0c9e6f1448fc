package batch

import (
	"math/rand"
	"testing"

	"dvfsched/internal/model"
	"dvfsched/internal/platform"
)

// BenchmarkWBG measures Workload Based Greedy end to end (validation,
// envelopes, sort, greedy loop and plan assembly) at the plan plane's
// largest request size on a small Table II box, and on a large batch
// across 16 i7 cores.
func BenchmarkWBG(b *testing.B) {
	for _, bc := range []struct {
		name  string
		n     int
		cores []CoreSpec
	}{
		{"table2/1000x4", 1000, HomogeneousCores(4, platform.TableII())},
		{"i7/10000x16", 10000, HomogeneousCores(16, platform.IntelI7950())},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(9))
			tasks := make(model.TaskSet, bc.n)
			for i, id := range rng.Perm(bc.n) {
				tasks[i] = model.Task{ID: id, Cycles: 0.1 + rng.Float64()*100, Deadline: model.NoDeadline}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := WBG(paperParams, bc.cores, tasks); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
