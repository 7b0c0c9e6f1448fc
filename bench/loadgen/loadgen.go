// Package loadgen is the open-loop request generator of the dvfsched
// benchmark. Due times come from arithmetic on the schedule index, not
// from a time.Ticker, so a slow tick or a stalled sender never shifts
// later operations; each operation records when it was due, when it
// was actually sent and when it finished, so latency is measured from
// the due time and the generator's own lateness is visible.
package loadgen

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Schedule returns the due offsets of an open loop offering rate
// operations per second for d: operation k is due at k/rate.
func Schedule(rate float64, d time.Duration) []time.Duration {
	if rate <= 0 || d <= 0 {
		return nil
	}
	n := int(math.Round(rate * d.Seconds()))
	out := make([]time.Duration, n)
	for k := range out {
		out[k] = time.Duration(float64(k) / rate * float64(time.Second))
	}
	return out
}

// Op is one scheduled operation, as offsets from the run's start.
// Sent is negative when the operation was never sent.
type Op struct {
	Due, Sent, Done time.Duration
}

// Open runs fn(i) for every due offset sched[i], counted from start, on
// workers goroutines that take operations in schedule order. No
// operation is sent before it is due; a worker that falls behind sends
// the next one at once. Operations still unsent grace after the last
// due time, or when ctx ends, are abandoned. Open returns when every
// worker has stopped, with one Op per scheduled operation.
func Open(ctx context.Context, start time.Time, sched []time.Duration, workers int, grace time.Duration, fn func(i int)) []Op {
	ops := make([]Op, len(sched))
	for i := range ops {
		ops[i] = Op{Due: sched[i], Sent: -1, Done: -1}
	}
	if len(sched) == 0 {
		return ops
	}
	stop := start.Add(sched[len(sched)-1] + grace)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) || ctx.Err() != nil {
					return
				}
				preciseSleeps()
				sleepUntil(start.Add(sched[i]))
				sent := time.Since(start)
				if sent > stop.Sub(start) {
					return
				}
				fn(i)
				ops[i].Sent, ops[i].Done = sent, time.Since(start)
			}
		}()
	}
	wg.Wait()
	return ops
}

// preciseSleeps sets the calling thread's timer slack to 1ns. Open
// sleeps with nanosleep: the Go runtime's timers wake an idle process
// at millisecond granularity, and the kernel's default 50µs slack would
// still delay every operation. A worker is not pinned to a thread, so
// it sets the slack before every sleep: a pinned goroutine waits after
// each sleep until the scheduler hands a P to its thread, which took
// milliseconds on a busy two-core machine.
func preciseSleeps() {
	const prSetTimerSlack = 29
	// Best effort: with the default slack operations are merely later,
	// which the lag records.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
}

// sleepUntil blocks the calling thread until t.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			time.Sleep(d)
		}
	}
}

// SentFrac is the share of scheduled operations that were sent.
func SentFrac(ops []Op) float64 {
	if len(ops) == 0 {
		return 0
	}
	sent := 0
	for _, op := range ops {
		if op.Sent >= 0 {
			sent++
		}
	}
	return float64(sent) / float64(len(ops))
}

// Lags returns how late each sent operation left, sorted ascending.
func Lags(ops []Op) []time.Duration {
	out := make([]time.Duration, 0, len(ops))
	for _, op := range ops {
		if op.Sent >= 0 {
			out = append(out, op.Sent-op.Due)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
