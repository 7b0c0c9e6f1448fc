package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dvfsched/internal/server"
)

// serve starts the real service handler on a loopback test server.
func serve(t *testing.T) string {
	t.Helper()
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts.URL
}

// runReport runs dvfsload with -out and returns its decoded report.
func runReport(t *testing.T, args ...string) loadReport {
	t.Helper()
	out := filepath.Join(t.TempDir(), "load.json")
	var buf bytes.Buffer
	if err := run(append(args, "-out", out), &buf); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	var rep loadReport
	raw, err := os.ReadFile(out)
	if err == nil {
		err = json.Unmarshal(raw, &rep)
	}
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestOracleModePasses(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-addr", serve(t), "-clients", "2"}, &buf); err != nil || !strings.Contains(buf.String(), "all checks passed") {
		t.Fatalf("%v\n%s", err, buf.String())
	}
}

func TestClosedLoopRunsForDuration(t *testing.T) {
	rep := runReport(t, "-addr", serve(t), "-mode", "closed", "-clients", "2", "-duration", "200ms")
	if rep.DurationS < 0.2 || rep.Requests == 0 || rep.Errors != 0 {
		t.Fatalf("report %+v: want ≥0.2s with requests and no errors", rep)
	}
}

func TestOpenLoopKeepsSchedule(t *testing.T) {
	rep := runReport(t, "-addr", serve(t), "-mode", "open", "-clients", "4", "-rate", "1000", "-duration", "500ms")
	if rep.SentFrac != 1 || rep.Requests != 500 || rep.Errors != 0 {
		t.Fatalf("report %+v: want all 500 scheduled requests sent and acked", rep)
	}
}

// TestOpenLoopShowsStall runs the open loop against a fake endpoint
// that serves one submit at a time and stalls once for 100ms. Requests
// due during the stall leave late and finish late, so both the send
// lag and the latency measured from the due time must show it.
func TestOpenLoopShowsStall(t *testing.T) {
	var mu sync.Mutex
	submits := 0
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusCreated)
		fmt.Fprint(w, `{"id":"s-1"}`)
	})
	mux.HandleFunc("POST /v1/sessions/s-1/tasks", func(http.ResponseWriter, *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if submits++; submits == 200 {
			time.Sleep(100 * time.Millisecond)
		}
	})
	mux.HandleFunc("DELETE /v1/sessions/s-1", func(http.ResponseWriter, *http.Request) {})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	rep := runReport(t, "-addr", ts.URL, "-mode", "open", "-clients", "2", "-rate", "1000", "-duration", "500ms")
	if rep.SentFrac != 1 || rep.LagP99Ms < 50 || rep.P99Ms < 50 {
		t.Fatalf("report %+v: want every request sent, lag and latency p99 ≥ 50ms", rep)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, c := range []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-clients", "0"}, "at least one client"},
		{[]string{"-mode", "cluster"}, `unknown -mode "cluster"`},
		{[]string{"-mode", "open", "-rate", "0"}, "open loop needs -rate > 0"},
	} {
		// Nothing listens at the address: each check must fire before
		// any request is made.
		err := run(append(c.args, "-addr", "http://127.0.0.1:0"), new(bytes.Buffer))
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%v: error %v, want one containing %q", c.args, err, c.wantErr)
		}
	}
}
