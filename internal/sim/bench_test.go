package sim

import (
	"math/rand"
	"testing"

	"dvfsched/internal/model"
	"dvfsched/internal/platform"
)

// BenchmarkSession16 drains 4000 FIFO-scheduled tasks through a
// 16-core session kept saturated, so every step that starts or
// completes a task restamps all sixteen running cores' completions:
// the engine's event loop without a policy's own cost.
func BenchmarkSession16(b *testing.B) {
	rng := rand.New(rand.NewSource(1)) // deterministic workload, not randomness
	tasks := make(model.TaskSet, 4000)
	at := 0.0
	for i := range tasks {
		at += rng.ExpFloat64() * 0.05
		tasks[i] = model.Task{ID: i + 1, Cycles: rng.ExpFloat64()*2 + 0.01, Arrival: at, Deadline: model.NoDeadline}
	}
	plat := platform.Homogeneous(16, table2(), platform.Ideal{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{Platform: plat, Policy: newFIFO()}, tasks, paperParams); err != nil {
			b.Fatal(err)
		}
	}
}
