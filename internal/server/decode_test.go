package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dvfsched/internal/model"
	"dvfsched/internal/trace"
	"dvfsched/internal/workload"
)

// judgeRecords is the first n tasks of a small Judgegirl-like trace in
// wire form: named, interactive tasks with deadlines among plain
// submissions, so every Record field is exercised.
func judgeRecords(t testing.TB, n int) []trace.Record {
	t.Helper()
	jc := workload.DefaultJudgeConfig()
	jc.Interactive, jc.NonInteractive, jc.Duration = 10*n, n, 60
	tasks, err := jc.Generate(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.FromTask(tasks[i])
	}
	return recs
}

// judgeBody is a judge batch as a client sends it: one 64-task
// SubmitRequest.
func judgeBody(t testing.TB) []byte {
	t.Helper()
	body, err := json.Marshal(SubmitRequest{Tasks: judgeRecords(t, 64)})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// planBody is a PlanRequest shaped like plan-mix's requests: 4 Table II
// cores, IDs 0..n-1, cycles uniform in [1, 120) at full precision.
func planBody(t testing.TB, n int) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{ID: i, Cycles: 1 + 119*rng.Float64()}
	}
	body, err := json.Marshal(PlanRequest{PlatformSpec: PlatformSpec{Cores: 4, Platform: "table2"}, Tasks: recs})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// referenceSubmit and referencePlan decode body with the reference
// decoder alone.
func referenceSubmit(body []byte) (model.TaskSet, bool, error) {
	var req SubmitRequest
	if err := decodeJSON(bytes.NewReader(body), &req); err != nil {
		return nil, false, err
	}
	return recordTasks(req.Tasks), req.Clamp, nil
}

func referencePlan(body []byte) (PlatformSpec, model.TaskSet, error) {
	var req PlanRequest
	if err := decodeJSON(bytes.NewReader(body), &req); err != nil {
		return PlatformSpec{}, nil, err
	}
	return req.PlatformSpec, recordTasks(req.Tasks), nil
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// sameFloat compares bit patterns: -0 and 0 differ, as they would to
// a consumer of the decoded value.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// diffTasks describes the first difference between two task lists, or
// returns "".
func diffTasks(got, want model.TaskSet) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d tasks, want %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.ID != w.ID || g.Name != w.Name || g.Interactive != w.Interactive ||
			!sameFloat(g.Cycles, w.Cycles) || !sameFloat(g.Arrival, w.Arrival) || !sameFloat(g.Deadline, w.Deadline) {
			return fmt.Sprintf("task %d = %+v, want %+v", i, g, w)
		}
	}
	return ""
}

// checkDecodeParity requires both one-pass decoders to agree with the
// reference decoder on body: accept or reject, error text, and every
// decoded value to the bit. The decoders get their own copy, as their
// pooled buffer is theirs to append to.
func checkDecodeParity(t *testing.T, body []byte) {
	t.Helper()
	tasks, clamp, err := (&taskDecoder{buf: bytes.Clone(body)}).submit(nil)
	wantTasks, wantClamp, wantErr := referenceSubmit(body)
	if errText(err) != errText(wantErr) {
		t.Fatalf("submit %q: error %q, reference %q", body, errText(err), errText(wantErr))
	}
	if d := diffTasks(tasks, wantTasks); d != "" || clamp != wantClamp {
		t.Fatalf("submit %q: clamp %v (reference %v); %s", body, clamp, wantClamp, d)
	}

	spec, tasks, err := (&taskDecoder{buf: bytes.Clone(body)}).plan(nil)
	wantSpec, wantTasks, wantErr := referencePlan(body)
	if errText(err) != errText(wantErr) {
		t.Fatalf("plan %q: error %q, reference %q", body, errText(err), errText(wantErr))
	}
	if d := diffTasks(tasks, wantTasks); d != "" || spec.Cores != wantSpec.Cores || spec.Platform != wantSpec.Platform ||
		!sameFloat(spec.Re, wantSpec.Re) || !sameFloat(spec.Rt, wantSpec.Rt) {
		t.Fatalf("plan %q: spec %+v (reference %+v); %s", body, spec, wantSpec, d)
	}
}

// decodeSeeds covers what the scanner accepts and each reason it
// declines.
func decodeSeeds(t testing.TB) []string {
	judge := string(judgeBody(t))
	plan, err := json.Marshal(PlanRequest{
		PlatformSpec: PlatformSpec{Cores: 4, Platform: "table2", Re: 0.1, Rt: 0.4},
		Tasks:        benchTasks(24),
	})
	if err != nil {
		t.Fatal(err)
	}
	return []string{
		judge,
		string(plan),
		judge[:len(judge)/2],
		judge[:len(judge)-1],
		string(plan[:len(plan)-3]),
		"",
		" ",
		"{}",
		"[]",
		"null",
		`{"tasks":[]}`,
		`{"tasks":[{"id":1,"cycles":2}],"clamp":true}`,
		" \t\r\n{ \"clamp\" : false ,\n\"tasks\" : [ { \"cycles\" : 2.5e0 , \"id\" : -0 , \"arrival\" : -0.0 } ] } ",
		`{"tasks":[{"id":1,"cycles":2}]} trailing garbage`,
		`{"tasks":[{"id":1,"cycles":2}]}{"tasks":[]}`,
		// Escapes.
		`{"tasks":[{"id":1,"name":"a\"b","cycles":2}]}`,
		`{"tasks":[{"id":1,"name":"\u00e9","cycles":2}]}`,
		`{"t\u0061sks":[{"id":1,"cycles":2}]}`,
		`{"tasks":[{"id":1,"name":"a\/b","cycles":2}]}`,
		// Keys that only case-fold to a field.
		`{"Tasks":[{"id":1,"cycles":2}]}`,
		`{"tasks":[{"ID":1,"Cycles":2}]}`,
		`{"taſks":[{"id":1,"cycles":2}]}`,
		`{"CLAMP":true,"tasks":[{"id":1,"cycles":2}]}`,
		`{"Platform":"i7","tasks":[{"id":1,"cycles":2}]}`,
		// null.
		`{"tasks":null}`,
		`{"tasks":[null]}`,
		`{"clamp":null,"tasks":[{"id":1,"cycles":2}]}`,
		`{"tasks":[{"id":1,"cycles":2,"deadline":null}]}`,
		`{"cores":null,"tasks":[{"id":1,"cycles":2}]}`,
		// Repeated keys.
		`{"tasks":[{"id":1,"cycles":2,"name":"x"}],"tasks":[{"id":1,"cycles":3}]}`,
		`{"tasks":[{"id":1,"id":2,"cycles":2}]}`,
		`{"clamp":true,"clamp":false,"tasks":[{"id":1,"cycles":2}]}`,
		`{"re":0.5,"re":0.25,"tasks":[{"id":1,"cycles":2}]}`,
		// Numbers.
		`{"tasks":[{"id":1,"cycles":1e400}]}`,
		`{"tasks":[{"id":1,"cycles":1e-400}]}`,
		`{"tasks":[{"id":1.0,"cycles":2}]}`,
		`{"tasks":[{"id":1e0,"cycles":2}]}`,
		`{"tasks":[{"id":01,"cycles":2}]}`,
		`{"tasks":[{"id":9223372036854775807,"cycles":2}]}`,
		`{"tasks":[{"id":9223372036854775808,"cycles":2}]}`,
		`{"tasks":[{"id":-1,"cycles":.5}]}`,
		`{"tasks":[{"id":1,"cycles":2.}]}`,
		`{"tasks":[{"id":1,"cycles":+2}]}`,
		`{"tasks":[{"id":1,"cycles":2E+3,"arrival":1e-3}]}`,
		`{"tasks":[{"id":1,"cycles":0.1000000000000000055511151231257827021181583404541015625}]}`,
		`{"tasks":[{"id":1,"cycles":"2"}]}`,
		`{"cores":4.0,"tasks":[{"id":1,"cycles":2}]}`,
		`{"cores":-3,"re":0,"rt":1e21,"tasks":[{"id":1,"cycles":2}]}`,
		// Strings and literals.
		"{\"tasks\":[{\"id\":1,\"name\":\"\xff\",\"cycles\":2}]}",
		"{\"tasks\":[{\"id\":1,\"name\":\"\xed\xa0\x80\",\"cycles\":2}]}",
		"{\"tasks\":[{\"id\":1,\"name\":\"a\tb\",\"cycles\":2}]}",
		`{"tasks":[{"id":1,"name":"日本 <&> ` + " " + `","cycles":2}]}`,
		`{"tasks":[{"id":1,"name":"","cycles":2}]}`,
		`{"platform":"i7","cores":2,"tasks":[{"id":1,"cycles":2}]}`,
		`{"platform":"nope","tasks":[{"id":1,"cycles":2}]}`,
		`{"tasks":[{"id":1,"cycles":2,"interactive":true,"deadline":3,"arrival":1}]}`,
		`{"tasks":[{"id":1,"cycles":2,"interactive":tru}]}`,
		`{"tasks":[{"id":1,"cycles":2,"interactive":1}]}`,
		`{"clamp":"yes","tasks":[{"id":1,"cycles":2}]}`,
		// Unknown fields and malformed input.
		`{"tasks":[{"id":1,"cycles":2}],"extra":1}`,
		`{"tasks":[{"id":1,"cycles":2,"core":3}]}`,
		`{"tasks":[{"id":1,"cycles":2},]}`,
		`{"tasks":[{"id":1,"cycles":2}],}`,
		`{"tasks":[{"id":1 "cycles":2}]}`,
		`{"tasks":{"id":1}}`,
		`{tasks:[]}`,
		"\xef\xbb\xbf{}",
	}
}

// FuzzDecodeRequest holds the one-pass decoders to the reference
// decoder on arbitrary bytes. The seeds run as a unit test under plain
// `go test`.
func FuzzDecodeRequest(f *testing.F) {
	for _, s := range decodeSeeds(f) {
		f.Add([]byte(s))
	}
	f.Fuzz(checkDecodeParity)
}

// TestDecodeMutations runs the parity check over seeded random edits
// of the fuzz seeds — byte flips, deletions, and insertions of JSON
// punctuation — so plain `go test` covers near-miss inputs too.
func TestDecodeMutations(t *testing.T) {
	const punct = "{}[]\",:0123456789.eE-+ tnfu\\"
	seeds := decodeSeeds(t)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		b := []byte(seeds[rng.Intn(len(seeds))])
		for k := rng.Intn(4); k >= 0 && len(b) > 0; k-- {
			j := rng.Intn(len(b))
			switch rng.Intn(3) {
			case 0:
				b[j] = byte(rng.Intn(256))
			case 1:
				b = append(b[:j], b[j+1:]...)
			default:
				b = append(b[:j], append([]byte{punct[rng.Intn(len(punct))]}, b[j:]...)...)
			}
		}
		checkDecodeParity(t, b)
	}
}

// TestDecodeFastPathCoverage requires the scanner to accept whatever
// json.Marshal writes for a request whose names need no escaping, so
// the reference decoder only ever sees unusual input.
func TestDecodeFastPathCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	names := []string{"", "query", "submit-p3", "日本語", "a bé", "x\u2027y"}
	floats := []float64{0, 1, 2.5, 1e-7, 1e21, 123456.789, math.SmallestNonzeroFloat64, math.MaxFloat64}
	randFloat := func() float64 {
		if rng.Intn(2) == 0 {
			return floats[rng.Intn(len(floats))]
		}
		return rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	}
	for i := 0; i < 500; i++ {
		recs := make([]trace.Record, 1+rng.Intn(20))
		for j := range recs {
			recs[j] = trace.Record{
				ID:          rng.Intn(1<<40) - 1<<39,
				Name:        names[rng.Intn(len(names))],
				Cycles:      randFloat(),
				Arrival:     randFloat(),
				Interactive: rng.Intn(2) == 0,
			}
			if rng.Intn(2) == 0 {
				d := randFloat()
				recs[j].Deadline = &d
			}
		}
		sub, err := json.Marshal(SubmitRequest{Tasks: recs, Clamp: rng.Intn(2) == 0})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := json.Marshal(PlanRequest{
			PlatformSpec: PlatformSpec{Cores: rng.Intn(5), Platform: []string{"", "table2", "i7", "exynos"}[rng.Intn(4)], Re: randFloat(), Rt: randFloat()},
			Tasks:        recs,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := (&taskDecoder{buf: sub}).scanSubmit(); !ok {
			t.Fatalf("scanner declined a marshaled submit: %s", sub)
		}
		if _, ok := (&taskDecoder{buf: plan}).scanPlan(); !ok {
			t.Fatalf("scanner declined a marshaled plan request: %s", plan)
		}
		checkDecodeParity(t, sub)
		checkDecodeParity(t, plan)
	}
}

// TestDecodeDeclines pins the fallback for each input class the
// scanner leaves to the reference decoder.
func TestDecodeDeclines(t *testing.T) {
	for _, body := range []string{
		`{"tasks":[{"id":1,"name":"a\"b","cycles":2}]}`,
		`{"Tasks":[{"id":1,"cycles":2}]}`,
		`{"tasks":[{"id":1,"cycles":2,"deadline":null}]}`,
		`{"tasks":[{"id":1,"id":2,"cycles":2}]}`,
		`{"tasks":[{"id":1,"cycles":2,"core":3}]}`,
		`{"tasks":[{"id":1.0,"cycles":2}]}`,
		`{"tasks":[{"id":1,"cycles":1e400}]}`,
		"{\"tasks\":[{\"id\":1,\"name\":\"\xff\",\"cycles\":2}]}",
		`{"tasks":[{"id":1,"cycles":2}`,
	} {
		if _, ok := (&taskDecoder{buf: []byte(body)}).scanSubmit(); ok {
			t.Errorf("scanner accepted %q", body)
		}
	}
}

// TestDecodeReadError replays a failed body read to the reference
// decoder: the client sees the read error, as before.
func TestDecodeReadError(t *testing.T) {
	body := `{"tasks":[{"id":1,"cycles":2}`
	r := httptest.NewRequest(http.MethodPost, "/", io.MultiReader(strings.NewReader(body), errReader{errors.New("connection reset")}))
	_, _, err := decodeSubmit(r)
	if want := "bad request body: connection reset"; errText(err) != want {
		t.Fatalf("error %q, want %q", errText(err), want)
	}
}

// TestDecodeSubmit64Allocs bounds decoding a judge batch: the fresh
// TaskSet and one string for all its names, on a pooled body buffer.
// The slack over those 2 is for the race detector, under which
// sync.Pool drops a quarter of its Puts.
func TestDecodeSubmit64Allocs(t *testing.T) {
	body := judgeBody(t)
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/sessions/s/tasks", rd)
	n := testing.AllocsPerRun(200, func() {
		rd.Reset(body)
		if tasks, _, err := decodeSubmit(req); err != nil || len(tasks) != 64 {
			t.Fatalf("decode: %d tasks, %v", len(tasks), err)
		}
	})
	const maxAllocs = 4
	if n > maxAllocs {
		t.Errorf("decoding a 64-task judge body: %v allocs/op, want <= %d", n, maxAllocs)
	}
}

// TestDecodePlan1000Allocs bounds decoding plan-mix's largest request
// to the fresh TaskSet and the platform name (the tasks are unnamed).
// The decoder is held, not pooled: one that missed the pool would
// regrow its scratch to a 1000-task body, and the race detector drops
// a quarter of the pool's Puts.
func TestDecodePlan1000Allocs(t *testing.T) {
	body := planBody(t, 1000)
	rd := bytes.NewReader(body)
	d := &taskDecoder{}
	n := testing.AllocsPerRun(50, func() {
		rd.Reset(body)
		if _, tasks, err := d.plan(d.read(rd)); err != nil || len(tasks) != 1000 {
			t.Fatalf("decode: %d tasks, %v", len(tasks), err)
		}
		d.poolable()
	})
	if n != 2 {
		t.Errorf("decoding a 1000-task plan body: %v allocs/op, want 2", n)
	}
}

// BenchmarkDecodePlan1000 decodes plan-mix's largest request, 1000
// unnamed tasks with full-precision cycles, with the one-pass decoder.
func BenchmarkDecodePlan1000(b *testing.B) {
	body := planBody(b, 1000)
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/plan", rd)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		if _, tasks, err := decodePlan(req); err != nil || len(tasks) != 1000 {
			b.Fatalf("decode: %d tasks, %v", len(tasks), err)
		}
	}
}

// BenchmarkDecodeSubmit64 decodes one 64-task judge batch body from a
// request, with the one-pass decoder and, for comparison, with the
// reference decoder alone.
func BenchmarkDecodeSubmit64(b *testing.B) {
	body := judgeBody(b)
	for _, bc := range []struct {
		name   string
		decode func(*http.Request) (model.TaskSet, error)
	}{
		{"onepass", func(r *http.Request) (model.TaskSet, error) {
			tasks, _, err := decodeSubmit(r)
			return tasks, err
		}},
		{"reference", func(r *http.Request) (model.TaskSet, error) {
			var req SubmitRequest
			err := decodeJSON(r.Body, &req)
			return recordTasks(req.Tasks), err
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rd := bytes.NewReader(body)
			req := httptest.NewRequest(http.MethodPost, "/v1/sessions/s/tasks", rd)
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rd.Reset(body)
				if tasks, err := bc.decode(req); err != nil || len(tasks) != 64 {
					b.Fatalf("decode: %d tasks, %v", len(tasks), err)
				}
			}
		})
	}
}
