package loadgen

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestScheduleIsArithmetic(t *testing.T) {
	s := Schedule(4000, 2*time.Second)
	if n := len(s); n < 7999 || n > 8001 {
		t.Fatalf("4000/s for 2s scheduled %d operations, want 8000 ± 1", n)
	}
	if s[0] != 0 || s[4000] != time.Second {
		t.Fatalf("due times drift: s[0]=%v s[4000]=%v", s[0], s[4000])
	}
	if Schedule(0, time.Second) != nil || Schedule(10, 0) != nil {
		t.Fatal("empty schedule expected for a zero rate or duration")
	}
}

// TestStallShowsInLatencyAndLag runs 4000 ops/s for 2s against a fake
// server that serializes every operation, and stalls it for 50ms once.
// Both workers queue behind the stall, so operations due during it are
// sent late (lag) and finish late (latency measured from the due time).
func TestStallShowsInLatencyAndLag(t *testing.T) {
	const stall = 50 * time.Millisecond
	sched := Schedule(4000, 2*time.Second)
	var server sync.Mutex
	ops := Open(context.Background(), time.Now(), sched, 2, time.Second, func(i int) {
		server.Lock()
		defer server.Unlock()
		if i == len(sched)/2 {
			time.Sleep(stall)
		}
	})
	if f := SentFrac(ops); f < 1 {
		t.Fatalf("sent fraction %v, want 1", f)
	}
	for i, op := range ops {
		if op.Sent < op.Due {
			t.Fatalf("op %d sent at %v before its due time %v", i, op.Sent, op.Due)
		}
	}
	lags := Lags(ops)
	if maxLag := lags[len(lags)-1]; maxLag < stall*4/5 {
		t.Errorf("max lag %v does not show the %v stall", maxLag, stall)
	}
	var maxLat time.Duration
	for _, op := range ops {
		maxLat = max(maxLat, op.Done-op.Due)
	}
	if maxLat < stall {
		t.Errorf("max latency %v does not show the %v stall", maxLat, stall)
	}
	if medLag := lags[len(lags)/2]; medLag > 5*time.Millisecond {
		t.Errorf("median lag %v: the generator itself is late", medLag)
	}
}

func TestOpenAbandonsAfterGrace(t *testing.T) {
	sched := Schedule(1000, 100*time.Millisecond)
	ops := Open(context.Background(), time.Now(), sched, 1, 10*time.Millisecond, func(int) {
		time.Sleep(20 * time.Millisecond)
	})
	if f := SentFrac(ops); f > 0.5 {
		t.Fatalf("sent fraction %v: a stalled generator must abandon late operations", f)
	}
}
