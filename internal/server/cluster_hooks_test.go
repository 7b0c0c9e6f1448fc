package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	"dvfsched/internal/model"
	"dvfsched/internal/obs"
	"dvfsched/internal/trace"
)

// logSince reads the session's committed events past after the way
// the replication stream does: AppendSessionLogSince, decoded.
func logSince(s *Server, id string, after uint64) ([]obs.Event, error) {
	blob, _, _, err := s.AppendSessionLogSince(id, after, nil)
	if err != nil {
		return nil, err
	}
	return obs.ReadBinary(bytes.NewReader(blob))
}

// TestSessionEventHooks pins the recorder-backed cluster hooks the
// replication shipper lives on: AppendSessionLogSince must select
// the suffix by Seq and preserve the caller's prefix, and
// SessionLastSeq must name exactly the tail the covering ack has to
// reach.
func TestSessionEventHooks(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	var info SessionInfo
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", map[string]any{"cores": 2}, &info); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	path := ts.URL + "/v1/sessions/" + info.ID + "/tasks"
	for i, batch := range [][]trace.Record{
		{{ID: 1, Cycles: 30, Arrival: 0}, {ID: 2, Cycles: 10, Arrival: 0.5}},
		{{ID: 3, Cycles: 5, Arrival: 1.0}},
	} {
		if code := doJSON(t, http.MethodPost, path, SubmitRequest{Tasks: batch}, nil); code != http.StatusOK {
			t.Fatalf("submit %d: %d", i, code)
		}
	}

	blob, lastRead, n, err := s.AppendSessionLogSince(info.ID, 0, nil)
	if err != nil {
		t.Fatalf("AppendSessionLogSince: %v", err)
	}
	evs, err := obs.ReadBinary(bytes.NewReader(blob))
	if err != nil || len(evs) == 0 || n != len(evs) {
		t.Fatalf("AppendSessionLogSince: %d events decoded, %d reported, err %v", len(evs), n, err)
	}
	last, err := s.SessionLastSeq(info.ID)
	if err != nil {
		t.Fatalf("SessionLastSeq: %v", err)
	}
	if want := evs[len(evs)-1].Seq; last != want || last == 0 || lastRead != want {
		t.Fatalf("SessionLastSeq %d, read up to %d, want trace tail %d", last, lastRead, want)
	}

	// A mid-trace cursor selects exactly the suffix past it.
	mid := evs[len(evs)/2].Seq
	var wantTail []obs.Event
	for i, ev := range evs {
		if ev.Seq > mid {
			wantTail = evs[i:]
			break
		}
	}
	blob, lastRead, n, err = s.AppendSessionLogSince(info.ID, mid, nil)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := obs.ReadBinary(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tail, wantTail) || n != len(wantTail) || lastRead != last {
		t.Fatalf("suffix after %d diverges: %d (reported %d, up to %d) vs %d events", mid, len(tail), n, lastRead, len(wantTail))
	}
	for _, ev := range tail {
		if ev.Seq <= mid {
			t.Fatalf("suffix after %d contains Seq %d", mid, ev.Seq)
		}
	}

	// The caller's prefix survives, and a fully-covered cursor appends
	// no event.
	prefix := []byte("prefix")
	dst, lastRead, n, err := s.AppendSessionLogSince(info.ID, last, append([]byte(nil), prefix...))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(dst, prefix) {
		t.Fatalf("covered cursor mutated the caller's prefix: %q", dst)
	}
	if covered, err := obs.ReadBinary(bytes.NewReader(dst[len(prefix):])); err != nil || len(covered) != 0 || n != 0 || lastRead != last {
		t.Fatalf("covered cursor read %d events (reported %d, up to %d), err %v; want none", len(covered), n, lastRead, err)
	}

	// Unknown sessions fail with the typed gone error on every hook.
	if _, _, _, err := s.AppendSessionLogSince("nope", 0, nil); !errors.Is(err, ErrSessionGone) {
		t.Fatalf("AppendSessionLogSince(unknown): %v", err)
	}
	if _, err := s.SessionLastSeq("nope"); !errors.Is(err, ErrSessionGone) {
		t.Fatalf("SessionLastSeq(unknown): %v", err)
	}
}

// TestEventsSinceWholeMutations reads the log tail the way the
// replication stream builds a frame while a submitter races it: every
// read must end on a whole batch, so the arrivals read so far are
// always a multiple of the batch size. A read that took the head of a
// running batch without its tail would ship a partial batch, which a
// client's retry after failover would take as accepted.
func TestEventsSinceWholeMutations(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	spec, params, plat, err := PlatformSpec{Cores: 4}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	sh, err := s.sessions.create("", spec, params, plat)
	if err != nil {
		t.Fatal(err)
	}
	const batches, size = 400, 32
	done := make(chan error, 1)
	go func() {
		for b := 0; b < batches; b++ {
			tasks := make(model.TaskSet, size)
			for i := range tasks {
				tasks[i] = model.Task{ID: b*size + i, Cycles: 1, Arrival: float64(b), Deadline: model.NoDeadline}
			}
			resp, err := sh.submit(context.Background(), tasks, true)
			if err == nil {
				err = resp.err
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	var after uint64
	var buf []byte
	arrivals := 0
	for finished := false; !finished; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			finished = true // one last read sees everything
		default:
		}
		var n int
		buf, after, n, err = s.AppendSessionLogSince(sh.id, after, buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		evs, err := obs.ReadBinary(bytes.NewReader(buf))
		if err != nil || len(evs) != n {
			t.Fatalf("tail up to seq %d: %d events decoded, %d reported, err %v", after, len(evs), n, err)
		}
		for _, ev := range evs {
			if ev.Kind == obs.KindArrival {
				arrivals++
			}
		}
		if arrivals%size != 0 {
			t.Fatalf("read up to seq %d holds %d arrivals: part of a %d-task batch", after, arrivals, size)
		}
	}
	if arrivals != batches*size {
		t.Fatalf("read %d arrivals in all, want %d", arrivals, batches*size)
	}
}

// countingTransport counts round trips on their way to the default
// transport.
type countingTransport struct {
	calls atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.calls.Add(1)
	return http.DefaultTransport.RoundTrip(r)
}

// TestRouterSetTransport proves an installed transport carries the
// router's forwards — the seam the cluster node uses to pool forwards,
// ships and probes on one shared connection pool.
func TestRouterSetTransport(t *testing.T) {
	owner, _, ownerTS := newRouterNode(t, "b")
	front := New(Config{})
	fc := &fakeCluster{self: "a", routes: []string{"b"}, addrs: map[string]string{"b": ownerTS.URL}}
	rt := NewRouter(front, fc)
	ct := &countingTransport{}
	rt.SetTransport(ct)
	frontTS := httptest.NewServer(rt)
	t.Cleanup(func() {
		frontTS.Close()
		front.Close()
	})

	var info SessionInfo
	if code := doJSON(t, http.MethodPost, frontTS.URL+"/v1/sessions", map[string]any{"cores": 2}, &info); code != http.StatusCreated {
		t.Fatalf("forwarded create: %d", code)
	}
	if !owner.HasSession(info.ID) {
		t.Fatal("session did not land on the owner")
	}
	if ct.calls.Load() == 0 {
		t.Fatal("forward bypassed the installed transport")
	}
}
