package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"dvfsched/internal/trace"
)

func benchPost(b *testing.B, url string, body any) *http.Response {
	b.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode/100 != 2 {
		b.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
	return resp
}

func drainClose(resp *http.Response) {
	var sink [4096]byte
	for {
		if _, err := resp.Body.Read(sink[:]); err != nil {
			break
		}
	}
	resp.Body.Close()
}

// BenchmarkPlanCacheHit measures the planning plane's fast path: a
// repeated identical workload served from the LRU cache, full HTTP
// round trip included.
func BenchmarkPlanCacheHit(b *testing.B) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	req := PlanRequest{Tasks: benchTasks(32)}
	drainClose(benchPost(b, ts.URL+"/v1/plan", req)) // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drainClose(benchPost(b, ts.URL+"/v1/plan", req))
	}
}

// BenchmarkPlanCompute measures the planning plane with caching
// disabled: slot, WBG, and response shaping per request.
func BenchmarkPlanCompute(b *testing.B) { benchPlanCompute(b, 32) }

// BenchmarkPlanCompute1000 is BenchmarkPlanCompute at the largest
// plan-mix size, where decoding the request and encoding the plan
// document weigh the most.
func BenchmarkPlanCompute1000(b *testing.B) { benchPlanCompute(b, 1000) }

func benchPlanCompute(b *testing.B, tasks int) {
	s := New(Config{CacheSize: -1})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	req := PlanRequest{Tasks: benchTasks(tasks)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drainClose(benchPost(b, ts.URL+"/v1/plan", req))
	}
}

// newBenchSession opens a session in-process and returns its submit
// path.
func newBenchSession(b *testing.B, s *Server) string {
	b.Helper()
	raw, err := json.Marshal(PlatformSpec{Cores: 4})
	if err != nil {
		b.Fatal(err)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(raw)))
	if w.Code != http.StatusCreated {
		b.Fatalf("create session: %d %s", w.Code, w.Body)
	}
	var info SessionInfo
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		b.Fatal(err)
	}
	return "/v1/sessions/" + info.ID + "/tasks"
}

// BenchmarkSessionSubmit measures the session plane's arrival path
// under parallel load, in-process (ServeHTTP, no sockets): concurrent
// single-task submissions racing for one session's lock exercise the
// lock wait and the pooled response encoding. Arrivals advance one
// virtual second per submission so the engine completes work at the
// rate it arrives, as a live session would; clamp admits the
// submissions that lose the race for the lock.
func BenchmarkSessionSubmit(b *testing.B) {
	s := New(Config{})
	defer s.Close()
	path := newBenchSession(b, s)
	var seq atomic.Int64
	b.SetParallelism(8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := newDiscardResponseWriter()
		rd := bytes.NewReader(nil)
		req := httptest.NewRequest(http.MethodPost, path, rd)
		buf := make([]byte, 0, 128)
		for pb.Next() {
			n := seq.Add(1)
			buf = append(buf[:0], `{"clamp":true,"tasks":[{"id":`...)
			buf = strconv.AppendInt(buf, n, 10)
			buf = append(buf, `,"cycles":2,"arrival":`...)
			buf = strconv.AppendInt(buf, n, 10)
			buf = append(buf, `}]}`...)
			rd.Reset(buf)
			s.ServeHTTP(w, req)
			if w.status != http.StatusOK {
				b.Errorf("submit %d: status %d", n, w.status)
				return
			}
		}
	})
}

// BenchmarkSessionSubmitSerial is the same path with one client, so
// the session's lock is never contended.
func BenchmarkSessionSubmitSerial(b *testing.B) {
	s := New(Config{})
	defer s.Close()
	path := newBenchSession(b, s)
	w := newDiscardResponseWriter()
	rd := bytes.NewReader(nil)
	req := httptest.NewRequest(http.MethodPost, path, rd)
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = append(buf[:0], `{"tasks":[{"id":`...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, `,"cycles":2,"arrival":`...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, `}]}`...)
		rd.Reset(buf)
		s.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			b.Fatalf("submit %d: status %d", i, w.status)
		}
	}
}

func benchTasks(n int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{ID: i, Cycles: 5 + float64(i%17)}
	}
	return recs
}

// BenchmarkReplaySession prices a promotion: rebuilding a session from
// its event log alone, as a replica does when the owner dies. The log
// is a 4-core session's after clamped 500-task batches, task i being 2
// Gcycles arriving at i/2 s.
func BenchmarkReplaySession(b *testing.B) {
	for _, size := range []int{1000, 16000} {
		b.Run(strconv.Itoa(size), func(b *testing.B) {
			s := New(Config{})
			defer s.Close()
			path := newBenchSession(b, s)
			id := strings.TrimSuffix(strings.TrimPrefix(path, "/v1/sessions/"), "/tasks")
			var body []byte
			for lo := 0; lo < size; lo += 500 {
				body = append(body[:0], `{"clamp":true,"tasks":[`...)
				for i := lo; i < lo+500 && i < size; i++ {
					if i > lo {
						body = append(body, ',')
					}
					body = append(body, `{"id":`...)
					body = strconv.AppendInt(body, int64(i), 10)
					body = append(body, `,"cycles":2,"arrival":`...)
					body = strconv.AppendFloat(body, float64(i)/2, 'g', -1, 64)
					body = append(body, '}')
				}
				body = append(body, "]}"...)
				w := httptest.NewRecorder()
				s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
				if w.Code != http.StatusOK {
					b.Fatalf("prefill at task %d: %d %s", lo, w.Code, w.Body)
				}
			}
			spec, _ := s.SessionSpec(id)
			log, err := s.AppendSessionEventsSince(id, 0, nil)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rb, err := ReplaySession(ctx, spec, log)
				if err != nil {
					b.Fatal(err)
				}
				if rb.Submitted != size {
					b.Fatalf("rebuilt %d tasks, want %d", rb.Submitted, size)
				}
			}
		})
	}
}
