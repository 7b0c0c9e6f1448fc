package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"

	"dvfsched/internal/obs"
)

// benchDiscardRW drops the response body, keeping only the status.
// Its ReadFrom drops a relayed body through one reused buffer, as a
// served request's *http.response copies through net/http's pooled
// one, so the io.Copy in Router.forward allocates no copy buffer per
// op.
type benchDiscardRW struct {
	h      http.Header
	status int
	buf    []byte
}

func (w *benchDiscardRW) ReadFrom(r io.Reader) (int64, error) {
	if w.buf == nil {
		w.buf = make([]byte, 4<<10)
	}
	var n int64
	for {
		m, err := r.Read(w.buf)
		n += int64(m)
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}

func (w *benchDiscardRW) Header() http.Header {
	if w.h == nil {
		w.h = http.Header{}
	}
	return w.h
}
func (w *benchDiscardRW) Write(p []byte) (int, error) { return len(p), nil }
func (w *benchDiscardRW) WriteHeader(c int)           { w.status = c }

// sessionsOwnedBy returns n session IDs the current ring places on owner.
func sessionsOwnedBy(tb testing.TB, tc *testCluster, owner string, n int) []string {
	tb.Helper()
	ids := make([]string, 0, n)
	for i := 0; i < 4096 && len(ids) < n; i++ {
		id := fmt.Sprintf("bench-%03d", i)
		if cands := tc.byID[owner].node.Route(id); len(cands) > 0 && cands[0] == owner {
			ids = append(ids, id)
		}
	}
	if len(ids) < n {
		tb.Fatalf("only %d of %d bench session IDs map to %s", len(ids), n, owner)
	}
	return ids
}

// benchSessions is how many owner-resident sessions the benchmark
// drives. One hot session is the steepest case for the ack rendezvous
// (every submit waits on the same cursor) while still exercising the
// stream's group commit: submits that land while a frame is on the
// wire ride the next frame together. Raising this spreads load across
// shards, which on small CPU counts measures scheduler churn more
// than the replication plane.
const benchSessions = 1

// BenchmarkReplicatedSubmit measures the cluster mutation hot path —
// concurrent single-task submits across benchSessions owner-resident
// sessions with "acked implies replicated" held. Requests run
// in-process against a front's handler; `stream` enters at the owner
// and replicates over the per-session frame stream across a real
// loopback socket, so its gap to `solo` is the price of replication.
// `forwarded` enters at a non-owner front, which forwards each submit
// over loopback to the owner, so its gap to `stream` is the price of
// the forward exchange.
func BenchmarkReplicatedSubmit(b *testing.B) {
	for _, mode := range []struct {
		name  string
		nodes int
		front string
	}{
		// solo is the no-replication floor: a 1-node view never ships,
		// so this prices the cluster submit machinery alone.
		{"solo", 1, "n1"},
		{"stream", 2, "n1"},
		{"forwarded", 3, "n3"},
	} {
		b.Run(mode.name, func(b *testing.B) {
			tc := startCluster(b, mode.nodes, nil)
			owner := "n1"
			ids := sessionsOwnedBy(b, tc, owner, benchSessions)
			h := tc.byID[mode.front].node.Handler()

			paths := make([]string, len(ids))
			for i, id := range ids {
				req := httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader([]byte(`{"cores":2}`)))
				req.Header.Set("X-Dvfs-Session-Id", id)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusCreated {
					b.Fatalf("create %s: %d %s", id, rec.Code, rec.Body)
				}
				var info struct {
					ID string `json:"id"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil || info.ID != id {
					b.Fatalf("create returned %q (err %v), want %q", info.ID, err, id)
				}
				paths[i] = "/v1/sessions/" + id + "/tasks"
			}

			var seq atomic.Int64
			// 16 concurrent clients per GOMAXPROCS: the stream is measured
			// under contention, where its group commit amortizes.
			b.SetParallelism(16)
			b.ReportAllocs()
			b.ResetTimer()
			framesBefore := tc.byID[owner].srv.Registry().Counter(obs.ClusterShipFrames).Value()
			b.RunParallel(func(pb *testing.PB) {
				w := &benchDiscardRW{}
				rd := bytes.NewReader(nil)
				req := httptest.NewRequest(http.MethodPost, paths[0], rd)
				buf := make([]byte, 0, 128)
				for pb.Next() {
					n := seq.Add(1)
					req.URL.Path = paths[int(n)%len(paths)]
					buf = append(buf[:0], `{"clamp":true,"tasks":[{"id":`...)
					buf = strconv.AppendInt(buf, n, 10)
					buf = append(buf, `,"cycles":2,"arrival":`...)
					buf = strconv.AppendInt(buf, n, 10)
					buf = append(buf, `}]}`...)
					rd.Reset(buf)
					req.Body = io.NopCloser(rd)
					h.ServeHTTP(w, req)
					if w.status != http.StatusOK {
						b.Errorf("submit %d: status %d", n, w.status)
						return
					}
				}
			})
			b.StopTimer()
			// frames/op shows the coalescing factor the stream achieved
			// (solo reports 0: it never ships).
			frames := tc.byID[owner].srv.Registry().Counter(obs.ClusterShipFrames).Value() - framesBefore
			b.ReportMetric(frames/float64(b.N), "frames/op")
		})
	}
}

// BenchmarkReplicatedSubmitPrefilled times serial single-task submits
// into a session that already holds size tasks, so per-op cost shows
// whether replication work follows the change (one task's events) or
// the session's history. One 4-core session is owned by n1 and
// replicated to n2; it is pre-filled with clamped 500-task batches,
// task i being 2 Gcycles arriving at i/2 s, as in dvfsbench's
// replicated-submit, and each op submits the next task through the
// owner's handler.
func BenchmarkReplicatedSubmitPrefilled(b *testing.B) {
	for _, size := range []int{1000, 16000} {
		b.Run(strconv.Itoa(size), func(b *testing.B) {
			tc := startCluster(b, 2, nil)
			id := sessionsOwnedBy(b, tc, "n1", 1)[0]
			h := tc.byID["n1"].node.Handler()
			serve := func(path string, body []byte, want int) {
				req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
				req.Header.Set("X-Dvfs-Session-Id", id)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != want {
					b.Fatalf("POST %s: %d %s", path, rec.Code, rec.Body)
				}
			}
			serve("/v1/sessions", []byte(`{"cores":4}`), http.StatusCreated)
			path := "/v1/sessions/" + id + "/tasks"
			appendTask := func(buf []byte, i int) []byte {
				buf = append(buf, `{"id":`...)
				buf = strconv.AppendInt(buf, int64(i), 10)
				buf = append(buf, `,"cycles":2,"arrival":`...)
				buf = strconv.AppendFloat(buf, float64(i)/2, 'g', -1, 64)
				return append(buf, '}')
			}
			var buf []byte
			for lo := 0; lo < size; lo += 500 {
				buf = append(buf[:0], `{"clamp":true,"tasks":[`...)
				for i := lo; i < lo+500 && i < size; i++ {
					if i > lo {
						buf = append(buf, ',')
					}
					buf = appendTask(buf, i)
				}
				serve(path, append(buf, "]}"...), http.StatusOK)
			}

			w := &benchDiscardRW{}
			rd := bytes.NewReader(nil)
			req := httptest.NewRequest(http.MethodPost, path, rd)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = appendTask(append(buf[:0], `{"clamp":true,"tasks":[`...), size+i)
				buf = append(buf, "]}"...)
				rd.Reset(buf)
				req.Body = io.NopCloser(rd)
				h.ServeHTTP(w, req)
				if w.status != http.StatusOK {
					b.Fatalf("submit %d: status %d", size+i, w.status)
				}
			}
		})
	}
}
