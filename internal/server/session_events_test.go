package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"testing"

	"dvfsched/internal/core"
	"dvfsched/internal/model"
	"dvfsched/internal/obs"
	"dvfsched/internal/trace"
)

// createSession opens a session over HTTP and returns its ID.
func createSession(t *testing.T, url string) string {
	t.Helper()
	var info SessionInfo
	if code := doJSON(t, "POST", url+"/v1/sessions", PlatformSpec{}, &info); code != http.StatusCreated {
		t.Fatalf("create session: status %d", code)
	}
	return info.ID
}

// submitOver posts one submission batch over HTTP.
func submitOver(t *testing.T, url, id string, recs []trace.Record, clamp bool) {
	t.Helper()
	var resp SubmitResponse
	code := doJSON(t, "POST", url+"/v1/sessions/"+id+"/tasks", SubmitRequest{Tasks: recs, Clamp: clamp}, &resp)
	if code != http.StatusOK {
		t.Fatalf("submit: status %d", code)
	}
}

// getRaw fetches a URL and returns status and body.
func getRaw(t *testing.T, url string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header
}

// TestSessionEventsBinaryFormat drives a session over HTTP and fetches
// its trace in both formats: the binary stream must carry the magic,
// decode to events whose JSON re-encoding is byte-identical to the
// jsonl endpoint's output, and be substantially smaller.
func TestSessionEventsBinaryFormat(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := createSession(t, ts.URL)

	recs := make([]trace.Record, 30)
	for i := range recs {
		recs[i] = trace.Record{ID: i + 1, Cycles: 2 + float64(i%7), Arrival: float64(i) * 0.2, Interactive: i%4 == 0}
	}
	submitOver(t, ts.URL, id, recs, false)
	if code := doJSON(t, "DELETE", ts.URL+"/v1/sessions/"+id, nil, nil); code != http.StatusOK {
		t.Fatalf("drain: status %d", code)
	}

	codeJ, jsonl, hdrJ := getRaw(t, ts.URL+"/v1/sessions/"+id+"/events")
	codeB, bin, hdrB := getRaw(t, ts.URL+"/v1/sessions/"+id+"/events?format=binary")
	if codeJ != http.StatusOK || codeB != http.StatusOK {
		t.Fatalf("events: status %d / %d", codeJ, codeB)
	}
	if ct := hdrB.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("binary Content-Type = %q", ct)
	}
	if hdrJ.Get("X-Event-Count") != hdrB.Get("X-Event-Count") {
		t.Errorf("event counts differ: %s vs %s", hdrJ.Get("X-Event-Count"), hdrB.Get("X-Event-Count"))
	}
	if !obs.DetectBinary(bin) {
		t.Fatal("binary body does not start with the trace magic")
	}

	events, err := obs.ReadBinary(bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	var rejson []byte
	for _, ev := range events {
		rejson = ev.AppendJSON(rejson)
		rejson = append(rejson, '\n')
	}
	if !bytes.Equal(rejson, jsonl) {
		t.Fatalf("binary trace decodes to different JSON (%d vs %d bytes)", len(rejson), len(jsonl))
	}
	if len(bin)*2 >= len(jsonl) {
		t.Errorf("binary trace %d bytes, jsonl %d: expected at least 2x smaller", len(bin), len(jsonl))
	}

	if code, _, _ := getRaw(t, ts.URL+"/v1/sessions/"+id+"/events?format=yaml"); code != http.StatusBadRequest {
		t.Errorf("unknown format: status %d, want 400", code)
	}
}

// rebuild replays a binary events export on a scheduler configured
// like the session's but with no sink, the way a client rebuilds a
// session it exported, and returns the session with the number of
// tasks it re-admitted.
func rebuild(t *testing.T, spec PlatformSpec, bin []byte) (*core.OnlineSession, int) {
	t.Helper()
	events, err := obs.ReadBinary(bytes.NewReader(bin))
	if err != nil {
		t.Fatalf("events export does not decode: %v", err)
	}
	_, params, plat, err := spec.normalize()
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.New(params, plat)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sched.OpenOnline(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	n, err := sess.ReplayTrace(context.Background(), events)
	if err != nil {
		t.Fatalf("events export does not replay: %v", err)
	}
	return sess, n
}

// TestSessionEventsExportRebuilds exports a live session over HTTP as
// its binary events, rebuilds it in-process on a scheduler with no
// sink, and drains it: the totals must equal the live DELETE's bit for
// bit. The events are the only export: GET /snapshot answers 404.
func TestSessionEventsExportRebuilds(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := createSession(t, ts.URL)

	recs := make([]trace.Record, 20)
	for i := range recs {
		recs[i] = trace.Record{ID: i + 1, Cycles: 5 + float64(i%5)*3, Arrival: float64(i) * 0.3, Interactive: i%3 == 0}
	}
	submitOver(t, ts.URL, id, recs, false)

	code, bin, _ := getRaw(t, ts.URL+"/v1/sessions/"+id+"/events?format=binary")
	if code != http.StatusOK {
		t.Fatalf("events: status %d (%s)", code, bin)
	}
	var status SessionInfo
	if code := doJSON(t, "GET", ts.URL+"/v1/sessions/"+id, nil, &status); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	sess, n := rebuild(t, PlatformSpec{}, bin)
	if n != len(recs) || sess.Pending() != status.Pending || sess.Pending() == 0 {
		t.Fatalf("rebuilt %d tasks, %d pending; the session admitted %d, %d pending", n, sess.Pending(), len(recs), status.Pending)
	}
	if math.Float64bits(sess.Clock()) != math.Float64bits(status.Clock) {
		t.Fatalf("rebuilt clock %v, session %v", sess.Clock(), status.Clock)
	}
	res, err := sess.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	var final DrainResponse
	if code := doJSON(t, "DELETE", ts.URL+"/v1/sessions/"+id, nil, &final); code != http.StatusOK {
		t.Fatalf("drain: status %d", code)
	}
	for _, f := range []struct {
		name       string
		got, field float64
	}{
		{"total cost", res.TotalCost, final.TotalCost},
		{"energy", res.TotalEnergy, final.TotalEnergyJ},
		{"makespan", res.Makespan, final.MakespanS},
		{"turnaround", res.TurnaroundSum, final.TurnaroundSumS},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.field) {
			t.Errorf("rebuilt %s %v, live drain %v", f.name, f.got, f.field)
		}
	}
	if len(res.Tasks) != final.Tasks || res.Switches != final.Switches || res.Preemptions != final.Preemptions {
		t.Errorf("rebuilt drain %d tasks, %d switches, %d preemptions; live %d, %d, %d",
			len(res.Tasks), res.Switches, res.Preemptions, final.Tasks, final.Switches, final.Preemptions)
	}

	if code, _, _ := getRaw(t, ts.URL+"/v1/sessions/"+id+"/snapshot"); code != http.StatusNotFound {
		t.Errorf("GET /snapshot: status %d, want 404", code)
	}
}

// TestEventsReadMidSubmit races clamped multi-task submits against
// binary events reads of the same session. A read must end on a whole
// submit, never inside one: every read must hold every arrival of each
// batch it names and replay. The read taken after the last submit must
// rebuild a session that drains bit-identically to the shard.
func TestEventsReadMidSubmit(t *testing.T) {
	const submitters, batches, size = 4, 40, 32
	srv, ts := newTestServer(t, Config{})
	id := createSession(t, ts.URL)
	sh, ok := srv.sessions.get(id)
	if !ok {
		t.Fatal("session not registered")
	}

	done := make(chan error, submitters)
	for g := 0; g < submitters; g++ {
		go func(g int) {
			for b := 0; b < batches; b++ {
				batch := g*batches + b
				tasks := make(model.TaskSet, size)
				for i := range tasks {
					tasks[i] = model.Task{ID: batch*size + i, Cycles: 0.5 + float64(i%7)*0.25,
						Arrival: float64(b) * 0.05, Deadline: model.NoDeadline, Interactive: i%5 == 0}
				}
				resp, err := sh.submit(context.Background(), tasks, true)
				if err == nil {
					err = resp.err
				}
				if err != nil {
					done <- fmt.Errorf("batch %d: %w", batch, err)
					return
				}
			}
			done <- nil
		}(g)
	}

	url := ts.URL + "/v1/sessions/" + id + "/events?format=binary"
	var bin []byte
	reads := 0
	for running := submitters; running > 0; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running--
			if running > 0 {
				continue
			}
		default:
		}
		code, body, _ := getRaw(t, url)
		if code != http.StatusOK {
			t.Fatalf("events: status %d (%s)", code, body)
		}
		events, err := obs.ReadBinary(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		perBatch := map[int]int{}
		for _, ev := range events {
			if ev.Kind == obs.KindArrival {
				perBatch[ev.Task/size]++
			}
		}
		for batch, n := range perBatch {
			if n != size {
				t.Fatalf("read %d (%d events) holds %d of batch %d's %d arrivals", reads, len(events), n, batch, size)
			}
		}
		rebuild(t, PlatformSpec{}, body)
		bin = body
		reads++
	}
	if reads < 2 {
		t.Fatalf("only %d reads raced the submits", reads)
	}

	sess, n := rebuild(t, PlatformSpec{}, bin)
	if n != submitters*batches*size {
		t.Fatalf("the read after the last submit rebuilt %d tasks, want %d", n, submitters*batches*size)
	}
	res, err := sess.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	live, err := sh.do(context.Background(), opDrain)
	if err != nil {
		t.Fatal(err)
	}
	if live.err != nil {
		t.Fatal(live.err)
	}
	if math.Float64bits(res.TotalCost) != math.Float64bits(live.result.TotalCost) ||
		math.Float64bits(res.Makespan) != math.Float64bits(live.result.Makespan) ||
		math.Float64bits(res.TotalEnergy) != math.Float64bits(live.result.TotalEnergy) {
		t.Fatalf("rebuilt drain cost %v, makespan %v, energy %v; shard %v, %v, %v",
			res.TotalCost, res.Makespan, res.TotalEnergy,
			live.result.TotalCost, live.result.Makespan, live.result.TotalEnergy)
	}
}
