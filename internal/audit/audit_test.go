package audit

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"dvfsched/internal/obs"
	"dvfsched/internal/server"
)

// fixture is one CheckTrace input.
type fixture struct {
	spec   server.PlatformSpec
	events []obs.Event
	acked  map[int]bool
	drain  *server.DrainResponse
}

// realSession runs one session through the service handler: 24 tasks
// of mixed length on 2 cores, every fourth one interactive, so the
// trace carries preemptions and DVFS switches. Every task is acked.
func realSession(t *testing.T) fixture {
	t.Helper()
	srv := server.New(server.Config{})
	t.Cleanup(srv.Close)
	call := func(method, path, body string, want int, out any) {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code != want {
			t.Fatalf("%s %s: %d %s", method, path, rec.Code, rec.Body)
		}
		if out != nil {
			if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
				t.Fatal(err)
			}
		}
	}
	var info server.SessionInfo
	call(http.MethodPost, "/v1/sessions", `{"cores":2}`, http.StatusCreated, &info)
	path := "/v1/sessions/" + info.ID
	f := fixture{spec: info.PlatformSpec, acked: map[int]bool{}, drain: &server.DrainResponse{}}
	var recs []string
	for id := 1; id <= 24; id++ {
		f.acked[id] = true
		recs = append(recs, fmt.Sprintf(`{"id":%d,"cycles":%g,"arrival":%g,"interactive":%t}`,
			id, 0.5+float64(id*7%11), 0.3*float64(id), id%4 == 0))
	}
	call(http.MethodPost, path+"/tasks", `{"tasks":[`+strings.Join(recs, ",")+`]}`, http.StatusOK, nil)
	call(http.MethodDelete, path, "", http.StatusOK, f.drain)
	var err error
	if f.events, err = srv.SessionEventsSince(info.ID, 0); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestCheckTracePassesRealSession(t *testing.T) {
	f := realSession(t)
	has := func(k obs.Kind) bool {
		return slices.ContainsFunc(f.events, func(ev obs.Event) bool { return ev.Kind == k })
	}
	if !has(obs.KindPreempt) || !has(obs.KindDVFS) {
		t.Fatal("trace has no preemption or DVFS switch to audit")
	}
	if err := CheckTrace(f.spec, f.events, f.acked, f.drain); err != nil {
		t.Fatal(err)
	}
	// A lost drain ack leaves only the trace checks.
	if err := CheckTrace(f.spec, f.events, f.acked, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCheckTraceRejectsMutations breaks a real session's trace, acked
// set or drain in one way each; every break must trip its own check.
func TestCheckTraceRejectsMutations(t *testing.T) {
	base := realSession(t)
	mid := len(base.events) / 2
	arrival := slices.IndexFunc(base.events, func(ev obs.Event) bool { return ev.Kind == obs.KindArrival })
	complete := slices.IndexFunc(base.events, func(ev obs.Event) bool { return ev.Kind == obs.KindComplete })
	// renumber rewrites seqs to 1..n, so an added or removed event
	// reaches the check behind the gapless one.
	renumber := func(events []obs.Event) []obs.Event {
		for i := range events {
			events[i].Seq = uint64(i + 1)
		}
		return events
	}
	for _, c := range []struct {
		name, wantErr string
		mutate        func(f *fixture)
	}{
		{"dropped event", "event 5 has seq 7: trace gap or reorder", func(f *fixture) {
			f.events = slices.Delete(f.events, 5, 6)
		}},
		{"swapped pair", fmt.Sprintf("event %d has seq %d: trace gap or reorder", mid, mid+2), func(f *fixture) {
			f.events[mid], f.events[mid+1] = f.events[mid+1], f.events[mid]
		}},
		{"duplicated arrival", fmt.Sprintf("task %d arrives twice", base.events[arrival].Task), func(f *fixture) {
			f.events = renumber(slices.Insert(f.events, arrival, f.events[arrival]))
		}},
		{"acked task absent", "acked task 99 never arrives", func(f *fixture) { f.acked[99] = true }},
		{"acked task never completes", fmt.Sprintf("acked task %d completes 0 times", base.events[complete].Task), func(f *fixture) {
			f.events = renumber(slices.Delete(f.events, complete, complete+1))
		}},
		{"drain tasks +1", "drain reports 25 tasks", func(f *fixture) { f.drain.Tasks++ }},
		{"drain tasks -1", "drain reports 23 tasks", func(f *fixture) { f.drain.Tasks-- }},
		{"drain cost one ulp off", "rebuilt cost", func(f *fixture) {
			f.drain.TotalCost = math.Nextafter(f.drain.TotalCost, math.Inf(1))
		}},
		{"changed event field", "serial rebuild diverges", func(f *fixture) { f.events[complete].Energy++ }},
		{"empty trace", "empty trace", func(f *fixture) { f.events = nil }},
		{"unknown platform", "serial rebuild: unknown platform", func(f *fixture) { f.spec.Platform = "arm" }},
	} {
		drain := *base.drain
		f := fixture{base.spec, slices.Clone(base.events), maps.Clone(base.acked), &drain}
		c.mutate(&f)
		if err := CheckTrace(f.spec, f.events, f.acked, f.drain); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.wantErr)
		}
	}
}
