package core_test

import (
	"context"
	"testing"

	"dvfsched/internal/obs"
)

// BenchmarkJudgeSession16 replays a 1/8-scale judge trace through a
// 16-core online session in 64-task batches and drains it: the
// judge-online workload's session without the HTTP plane. log-B reports
// the binary size of the session's log halfway, after batch
// len(batches)/2, measured outside the timed loop.
func BenchmarkJudgeSession16(b *testing.B) {
	ctx := context.Background()
	batches := judgeBatches(b, 1.0/8, 1)
	rec := &obs.Recorder{}
	half, err := judgeScheduler(b, rec).OpenOnline(ctx)
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range batches[:len(batches)/2+1] {
		if err := half.Submit(ctx, batch); err != nil {
			b.Fatal(err)
		}
	}
	logB := len(obs.AppendBinary(nil, rec.Events()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := judgeScheduler(b, &obs.Recorder{}).OpenOnline(ctx)
		if err != nil {
			b.Fatal(err)
		}
		for _, batch := range batches {
			if err := sess.Submit(ctx, batch); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := sess.Drain(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(logB), "log-B")
}
