package batch

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"dvfsched/internal/model"
	"dvfsched/internal/platform"
)

// wireForm is the planJSON document of p, as WriteJSON built it before
// AppendJSON existed.
func wireForm(p *Plan) planJSON {
	doc := planJSON{Re: p.Params.Re, Rt: p.Params.Rt, Cores: make([][]assignmentJSON, len(p.Cores))}
	for i, cp := range p.Cores {
		doc.Cores[i] = make([]assignmentJSON, len(cp.Sequence))
		for j, a := range cp.Sequence {
			doc.Cores[i][j] = assignmentJSON{
				TaskID: a.Task.ID,
				Name:   a.Task.Name,
				Cycles: a.Task.Cycles,
				Rate:   a.Level.Rate,
				Energy: a.Level.Energy,
				Time:   a.Level.Time,
			}
		}
	}
	return doc
}

// appendCorpus is WBG plans over named tasks — names that need HTML,
// U+2028 and invalid-UTF-8 escaping among plain ones — with more cores
// than tasks (empty sequences), plus hand-built plans with extreme
// floats and no cores at all.
func appendCorpus(t *testing.T) []*Plan {
	t.Helper()
	names := []string{"", "query", "a<b>&c", "line\u2028sep\u2029", "bad\xffutf8", "quote\"back\\slash", "tab\tnl\n", "日本"}
	rng := rand.New(rand.NewSource(3))
	var plans []*Plan
	for _, n := range []int{1, 3, 9, 40} {
		tasks := make(model.TaskSet, n)
		for i := range tasks {
			tasks[i] = model.Task{ID: i*7 - 5, Name: names[rng.Intn(len(names))], Cycles: 0.1 + rng.Float64()*100, Deadline: model.NoDeadline}
		}
		plan, err := WBG(model.CostParams{Re: 0.1, Rt: 0.4}, HomogeneousCores(4, platform.TableII()), tasks)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, plan)
	}
	lvl := func(f float64) model.RateLevel { return model.RateLevel{Rate: f, Energy: f, Time: f} }
	plans = append(plans,
		&Plan{Params: model.CostParams{Re: 1e-7, Rt: 1e21}, Cores: []CorePlan{
			{Core: 0, Sequence: []model.Assignment{
				{Task: model.Task{ID: 1, Cycles: 1e-7}, Level: lvl(1e21)},
				{Task: model.Task{ID: 2, Cycles: 1e21}, Level: lvl(1e-7)},
				{Task: model.Task{ID: 3, Cycles: 9.99e-7}, Level: lvl(math.SmallestNonzeroFloat64)},
			}},
			{Core: 1},
			{Core: 2, Sequence: []model.Assignment{{Task: model.Task{ID: 4, Cycles: math.MaxFloat64}, Level: lvl(123456.789)}}},
		}},
		&Plan{Params: model.CostParams{Re: 0.5, Rt: 0.5}},
	)
	return plans
}

// TestAppendJSONMatchesMarshal holds AppendJSON to encoding/json's
// bytes for the wire form, and to appending after existing content.
func TestAppendJSONMatchesMarshal(t *testing.T) {
	for i, p := range appendCorpus(t) {
		want, err := json.Marshal(wireForm(p))
		if err != nil {
			t.Fatal(err)
		}
		if got := p.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Errorf("plan %d:\n got %s\nwant %s", i, got, want)
		}
		if got := p.AppendJSON([]byte("x")); !bytes.Equal(got[1:], want) || got[0] != 'x' {
			t.Errorf("plan %d: AppendJSON clobbered or dropped the prefix", i)
		}
	}
}

// TestWriteJSONUnchanged holds WriteJSON to the indented encoder output
// it produced before.
func TestWriteJSONUnchanged(t *testing.T) {
	oldWrite := func(p *Plan) ([]byte, error) {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		err := enc.Encode(wireForm(p))
		return buf.Bytes(), err
	}
	for i, p := range appendCorpus(t) {
		want, err := oldWrite(p)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := p.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("plan %d:\n got %s\nwant %s", i, got.Bytes(), want)
		}
	}
}
