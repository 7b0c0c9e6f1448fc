package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"sync/atomic"
	"time"

	"dvfsched/internal/core"
	"dvfsched/internal/model"
	"dvfsched/internal/obs"
	"dvfsched/internal/platform"
	"dvfsched/internal/server"
	"dvfsched/internal/trace"
	"dvfsched/internal/workload"
)

// judgeBatch is how many consecutive arrivals one judge submit carries.
const judgeBatch = 64

// judgeSpec is the judge session: 16 Table II cores with the paper's
// online cost constants (Re 0.4, Rt 0.1).
var judgeSpec = server.PlatformSpec{Cores: 16, Platform: "table2", Re: 0.4, Rt: 0.1}

// judgeTrace is one Judgegirl-like trace with its serial oracle.
type judgeTrace struct {
	tasks  int
	bodies [][]byte // strict submit bodies of judgeBatch arrivals each
	sizes  []int
	// cost is the oracle's drained total cost ('g', -1) and events its
	// trace length; admitUs and drainMs time the oracle's calls.
	cost    string
	events  int
	admitUs []float64
	drainMs float64
	// log is the oracle's binary event log (first trace only).
	log []byte
}

// judgeOracle builds cfg.judgeTraces traces, seeds seed..seed+n-1, and
// replays each serially through core.OnlineSession.Submit — the same
// batches, strict, in the same order the HTTP senders use. It runs
// once, before any timing.
func (b *bench) judgeOracle() ([]*judgeTrace, error) {
	b.judgeOne.Do(func() {
		for i := 0; i < b.cfg.judgeTraces; i++ {
			tr, err := b.buildJudgeTrace(b.cfg.seed+int64(i), i == 0)
			if err != nil {
				b.judgeErr = err
				return
			}
			b.judge = append(b.judge, tr)
		}
	})
	return b.judge, b.judgeErr
}

func judgeTasks(seed int64, scale float64) (model.TaskSet, error) {
	jc := workload.DefaultJudgeConfig()
	jc.Interactive = int(float64(jc.Interactive) * scale)
	jc.NonInteractive = int(float64(jc.NonInteractive) * scale)
	jc.Duration *= scale
	return jc.Generate(rand.New(rand.NewSource(seed)))
}

func judgePlatform() *platform.Platform {
	return platform.Homogeneous(judgeSpec.Cores, platform.TableII(), platform.Ideal{})
}

func judgeParams() model.CostParams { return model.CostParams{Re: judgeSpec.Re, Rt: judgeSpec.Rt} }

func (b *bench) buildJudgeTrace(seed int64, keepLog bool) (*judgeTrace, error) {
	tasks, err := judgeTasks(seed, b.cfg.judgeScale)
	if err != nil {
		return nil, err
	}
	recs := make([]trace.Record, len(tasks))
	for i, t := range tasks {
		recs[i] = trace.FromTask(t)
	}
	rec := &obs.Recorder{}
	sched, err := core.New(judgeParams(), judgePlatform(), core.WithSink(rec))
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	sess, err := sched.OpenOnline(ctx)
	if err != nil {
		return nil, err
	}
	tr := &judgeTrace{tasks: len(recs)}
	for lo := 0; lo < len(recs); lo += judgeBatch {
		batch := recs[lo:min(lo+judgeBatch, len(recs))]
		body, err := json.Marshal(server.SubmitRequest{Tasks: batch})
		if err != nil {
			return nil, err
		}
		tr.bodies = append(tr.bodies, body)
		tr.sizes = append(tr.sizes, len(batch))
		ts := taskSet(batch)
		t0 := time.Now()
		if err := sess.Submit(ctx, ts); err != nil {
			return nil, fmt.Errorf("oracle submit: %w", err)
		}
		t1 := time.Now()
		b.timeCore("core.admit", t0, t1)
		tr.admitUs = append(tr.admitUs, float64(t1.Sub(t0))/1e3)
	}
	t0 := time.Now()
	res, err := sess.Drain(ctx)
	if err != nil {
		return nil, fmt.Errorf("oracle drain: %w", err)
	}
	t1 := time.Now()
	b.timeCore("core.drain", t0, t1)
	tr.drainMs = float64(t1.Sub(t0)) / 1e6
	if len(res.Tasks) != len(recs) {
		return nil, fmt.Errorf("oracle drained %d of %d tasks", len(res.Tasks), len(recs))
	}
	cost := res.TotalCost
	if b.cfg.corruptOracle {
		cost = math.Nextafter(cost, math.Inf(1))
	}
	tr.cost = formatCost(cost)
	events := rec.Events()
	tr.events = len(events)
	if keepLog {
		tr.log = obs.AppendBinary(nil, events)
	}
	return tr, nil
}

// countEvents decodes a binary trace strictly and counts its events,
// which must carry the sequence numbers 1..n.
func countEvents(dec *obs.BinaryReader, trace []byte) (int, error) {
	dec.Reset(bytes.NewReader(trace))
	n := 0
	for {
		ev, err := dec.Next()
		if errors.Is(err, io.EOF) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n++
		if ev.Seq != uint64(n) {
			return n, fmt.Errorf("event %d has sequence number %d", n, ev.Seq)
		}
	}
}

// formatCost renders a cost for exact comparison: the shortest decimal
// that round-trips the float64, so equal bits compare equal and nothing
// else does.
func formatCost(c float64) string { return strconv.FormatFloat(c, 'g', -1, 64) }

// runJudge is judge-online: each sender owns one 16-core session at a
// time, replays a judge trace into it in strict 64-arrival batches,
// drains it, fetches its binary trace, checks both against the oracle,
// purges it and opens the next; session s replays trace s mod
// judgeTraces. Closed loop for cfg.seconds after the warm-up, every
// other slot of which a sender spends echoing instead of submitting.
func runJudge(b *bench) (*outcome, error) {
	traces, err := b.judgeOracle()
	if err != nil {
		return nil, err
	}
	if err := b.setup(false, nil); err != nil {
		return nil, err
	}
	res := &outcome{primary: "submit"}
	spec, err := json.Marshal(judgeSpec)
	if err != nil {
		return nil, err
	}
	b.timedFrom = time.Now().Add(b.cfg.warmup)
	win := newWindow(b.timedFrom, b.cfg.seconds)
	res.reqPhase, res.tasksPhase = win, win
	var next atomic.Int64
	err = b.measureLoad(res, func() {
		runSenders(func() {
			// Each sender reuses one reply buffer and trace decoder, and
			// echoes the first batch of the first trace.
			c := &judgeClient{buf: new(bytes.Buffer), dec: obs.NewBinaryReader(bytes.NewReader(nil)), echo: traces[0].bodies[0]}
			// A session started before the deadline runs to completion, so
			// every session is verified.
			for !b.stopped() && time.Now().Before(win.to) {
				tr := traces[int(next.Add(1)-1)%len(traces)]
				if err := b.judgeSession(c, spec, tr, res, win); err != nil {
					b.fail(err)
				}
			}
		})
	})
	if err != nil {
		return nil, err
	}
	return b.result(res)
}

// judgeClient is one sender's reusable reply buffer and trace decoder:
// a judge trace is megabytes, and the load generator must not add its
// own garbage to the heap it shares with the servers. echo is the body
// it sends in echo slots.
type judgeClient struct {
	buf  *bytes.Buffer
	dec  *obs.BinaryReader
	echo []byte
}

// judgeSession runs one session's life cycle and checks it.
func (b *bench) judgeSession(c *judgeClient, spec []byte, tr *judgeTrace, res *outcome, win window) error {
	r, err := b.do("create", "POST", "/v1/sessions", spec, "", c.buf)
	if err != nil {
		return err
	}
	if err := expect(r, 201, "create session"); err != nil {
		return err
	}
	var info server.SessionInfo
	if err := json.Unmarshal(r.body, &info); err != nil {
		return fmt.Errorf("create session: %w", err)
	}
	path := "/v1/sessions/" + info.ID
	for i, body := range tr.bodies {
		if err := b.echoUntilWork(win, c.echo, res); err != nil {
			return err
		}
		r, err := b.do("submit", "POST", path+"/tasks", body, "", nil)
		if err != nil {
			return err
		}
		if err := expect(r, 200, fmt.Sprintf("session %s batch %d", info.ID, i)); err != nil {
			return err
		}
		res.submits.Add(1)
		if win.has(r.sent) {
			res.rec.add("submit", r.sent, r.ms())
			res.tasks.Add(int64(tr.sizes[i]))
		}
	}
	r, drain, err := b.drain(info.ID, c.buf)
	if err != nil {
		return err
	}
	if win.has(r.sent) {
		res.rec.add("drain", r.sent, r.ms())
	}
	if got := formatCost(drain.TotalCost); got != tr.cost || drain.Tasks != tr.tasks {
		return fmt.Errorf("session %s drained %d tasks at cost %s; the serial oracle has %d at %s",
			info.ID, drain.Tasks, got, tr.tasks, tr.cost)
	}
	r, err = b.do("events", "GET", path+"/events?format=binary", nil, "", c.buf)
	if err != nil {
		return err
	}
	if err := expect(r, 200, "events "+info.ID); err != nil {
		return err
	}
	if win.has(r.sent) {
		res.rec.add("events", r.sent, r.ms())
	}
	events, err := countEvents(c.dec, r.body)
	if err != nil {
		return fmt.Errorf("events %s: %w", info.ID, err)
	}
	if hdr := r.header.Get("X-Event-Count"); events != tr.events || hdr != strconv.Itoa(tr.events) {
		return fmt.Errorf("session %s trace has %d events (header %q); the serial oracle has %d",
			info.ID, events, hdr, tr.events)
	}
	return b.purge(info.ID)
}
