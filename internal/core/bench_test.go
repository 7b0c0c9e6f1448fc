package core_test

import (
	"context"
	"testing"

	"dvfsched/internal/obs"
)

// BenchmarkJudgeSession16 replays a 1/8-scale judge trace through a
// 16-core online session in 64-task batches, snapshots it halfway, and
// drains it: the judge-online workload's session without the HTTP
// plane. ckpt-B reports the halfway checkpoint's size.
func BenchmarkJudgeSession16(b *testing.B) {
	ctx := context.Background()
	batches := judgeBatches(b, 1.0/8, 1)
	ckpt := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := judgeScheduler(b, &obs.Recorder{}).OpenOnline(ctx)
		if err != nil {
			b.Fatal(err)
		}
		for j, batch := range batches {
			if err := sess.Submit(ctx, batch); err != nil {
				b.Fatal(err)
			}
			if j == len(batches)/2 {
				blob, err := sess.Snapshot()
				if err != nil {
					b.Fatal(err)
				}
				ckpt = len(blob)
			}
		}
		if _, err := sess.Drain(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ckpt), "ckpt-B")
}
