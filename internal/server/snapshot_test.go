package server

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"testing"

	"dvfsched/internal/core"
	"dvfsched/internal/obs"
	"dvfsched/internal/sim"
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

// TestSessionSnapshotEndpoint snapshots a live session over HTTP,
// restores it in-process, and drains both: final results must agree
// and the restored trace must be the byte-exact suffix of the shard's.
func TestSessionSnapshotEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	id := createSession(t, ts.URL)

	recs := make([]trace.Record, 20)
	for i := range recs {
		recs[i] = trace.Record{ID: i + 1, Cycles: 5 + float64(i%5)*3, Arrival: float64(i) * 0.3, Interactive: i%3 == 0}
	}
	submitOver(t, ts.URL, id, recs, false)

	code, blob, hdr := getRaw(t, ts.URL+"/v1/sessions/"+id+"/snapshot")
	if code != http.StatusOK {
		t.Fatalf("snapshot: status %d (%s)", code, blob)
	}
	if hdr.Get("X-Checkpoint-Pending") == "0" {
		t.Fatal("snapshot taken with nothing pending; the test would be trivial")
	}
	cp, err := sim.UnmarshalCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}

	// Restore in-process on an identically-specced scheduler.
	_, params, plat, err := PlatformSpec{}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	rec := &obs.Recorder{}
	sched, err := core.New(params, plat, core.WithSink(rec))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sched.RestoreOnline(context.Background(), blob)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Drain the shard and compare.
	var final DrainResponse
	if code := doJSON(t, "DELETE", ts.URL+"/v1/sessions/"+id, nil, &final); code != http.StatusOK {
		t.Fatalf("drain: status %d", code)
	}
	if final.TotalCost != res.TotalCost || final.MakespanS != res.Makespan {
		t.Fatalf("restored drain diverged: cost %v/%v makespan %v/%v",
			res.TotalCost, final.TotalCost, res.Makespan, final.MakespanS)
	}

	sh, ok := srv.sessions.get(id)
	if !ok {
		t.Fatal("shard vanished")
	}
	all := sh.rec.Events()
	var suffix []obs.Event
	for i, ev := range all {
		if ev.Seq > cp.EvSeq {
			suffix = all[i:]
			break
		}
	}
	var want, got []byte
	for _, ev := range suffix {
		want = ev.AppendJSON(want)
		want = append(want, '\n')
	}
	for _, ev := range rec.Events() {
		got = ev.AppendJSON(got)
		got = append(got, '\n')
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("restored trace is not the shard trace's suffix (%d vs %d bytes)", len(want), len(got))
	}

	// A drained session has no live engine to checkpoint.
	if code, _, _ := getRaw(t, ts.URL+"/v1/sessions/"+id+"/snapshot"); code != http.StatusConflict {
		t.Errorf("snapshot of drained session: status %d, want 409", code)
	}
}

// TestSnapshotMidGroupCommit races concurrent submitters against
// repeated snapshots on one shard. A snapshot takes the session's lock
// like a submit does, so every snapshot lands between two submissions:
// each one must be restorable, agree with its reported clock/pending,
// and drain cleanly with exactly the tasks it had admitted.
func TestSnapshotMidGroupCommit(t *testing.T) {
	const goroutines, perG = 6, 20
	sh := newTestShard(t)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := g*perG + i
				resp, err := sh.submit(context.Background(), oneTask(k+1, 1+float64(g)*0.3, float64(i)*0.1), true)
				if err != nil {
					t.Errorf("submit %d: %v", k, err)
					return
				}
				if resp.err != nil {
					t.Errorf("submit %d: session error: %v", k, resp.err)
					return
				}
			}
		}(g)
	}

	_, params, plat, err := PlatformSpec{}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	snapshots := 0
	for stop := false; !stop; {
		select {
		case <-done:
			stop = true
		default:
		}
		resp, err := sh.do(context.Background(), opSnapshot)
		if err != nil {
			t.Fatal(err)
		}
		if resp.err != nil {
			t.Fatalf("snapshot refused mid-run: %v", resp.err)
		}
		cp, err := sim.UnmarshalCheckpoint(resp.snapshot)
		if err != nil {
			t.Fatalf("mid-commit snapshot corrupt: %v", err)
		}
		if cp.Clock != resp.clock {
			t.Fatalf("checkpoint clock %v, reply said %v", cp.Clock, resp.clock)
		}
		sched, err := core.New(params, plat)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := sched.RestoreOnline(context.Background(), resp.snapshot)
		if err != nil {
			t.Fatalf("mid-commit snapshot not restorable: %v", err)
		}
		if sess.Pending() != resp.pending {
			t.Fatalf("restored pending %d, reply said %d", sess.Pending(), resp.pending)
		}
		// A restored mid-commit session must always drain cleanly.
		if resp.pending > 0 {
			if _, err := sess.Drain(context.Background()); err != nil {
				t.Fatalf("restored session failed to drain: %v", err)
			}
		}
		snapshots++
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if snapshots == 0 {
		t.Fatal("no snapshots taken")
	}

	// Final consistency: the last snapshot (taken after every submitter
	// finished) restores to a session that drains bit-identically to
	// the shard itself.
	resp, err := sh.do(context.Background(), opSnapshot)
	if err != nil || resp.err != nil {
		t.Fatalf("final snapshot: %v / %v", err, resp.err)
	}
	if resp.submitted != goroutines*perG {
		t.Fatalf("final snapshot saw %d submitted, want %d", resp.submitted, goroutines*perG)
	}
	rec := &obs.Recorder{}
	sched, err := core.New(params, plat, core.WithSink(rec))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sched.RestoreOnline(context.Background(), resp.snapshot)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	shResp, err := sh.do(context.Background(), opDrain)
	if err != nil {
		t.Fatal(err)
	}
	if shResp.err != nil {
		t.Fatal(shResp.err)
	}
	if res.TotalCost != shResp.result.TotalCost || res.Makespan != shResp.result.Makespan {
		t.Fatalf("final restore diverged: cost %v/%v makespan %v/%v",
			res.TotalCost, shResp.result.TotalCost, res.Makespan, shResp.result.Makespan)
	}
	if len(res.Tasks) != goroutines*perG {
		t.Fatalf("restored session drained %d tasks, want %d", len(res.Tasks), goroutines*perG)
	}
}
