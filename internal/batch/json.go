package batch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"dvfsched/internal/model"
	"dvfsched/internal/obs"
)

// assignmentJSON is the wire form of one scheduled task.
type assignmentJSON struct {
	TaskID int     `json:"task"`
	Name   string  `json:"name,omitempty"`
	Cycles float64 `json:"cycles"`
	Rate   float64 `json:"rate"`
	Energy float64 `json:"energy"`
	Time   float64 `json:"time"`
}

// planJSON is the self-contained wire form of a plan: enough to
// re-execute it without the original trace.
type planJSON struct {
	Re    float64            `json:"re"`
	Rt    float64            `json:"rt"`
	Cores [][]assignmentJSON `json:"cores"`
}

// WriteJSON serializes the plan, self-contained, as indented JSON: the
// AppendJSON document indented by json.Indent, with a trailing newline.
func (p *Plan) WriteJSON(w io.Writer) error {
	if err := p.Validate(); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, append(p.AppendJSON(nil), '\n'), "", "  "); err != nil {
		return err
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// AppendJSON appends the plan's compact self-contained document to
// dst, byte-identical to json.Marshal of its planJSON form. It does not
// validate the plan.
//
// A plan uses a handful of distinct rate levels, one per rate of its
// cores' tables, so each level's `,"rate":…,"energy":…,"time":…}` tail
// is formatted once per document and copied from its first occurrence
// for every later task at that level.
func (p *Plan) AppendJSON(dst []byte) []byte {
	var tails levelTails
	dst = append(dst, `{"re":`...)
	dst = obs.AppendJSONFloat(dst, p.Params.Re)
	dst = append(dst, `,"rt":`...)
	dst = obs.AppendJSONFloat(dst, p.Params.Rt)
	dst = append(dst, `,"cores":[`...)
	for i, cp := range p.Cores {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for j := range cp.Sequence {
			a := &cp.Sequence[j]
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"task":`...)
			dst = strconv.AppendInt(dst, int64(a.Task.ID), 10)
			if a.Task.Name != "" {
				dst = append(dst, `,"name":`...)
				dst = obs.AppendJSONString(dst, a.Task.Name)
			}
			dst = append(dst, `,"cycles":`...)
			dst = obs.AppendJSONFloat(dst, a.Task.Cycles)
			dst = tails.append(dst, a.Level)
		}
		dst = append(dst, ']')
	}
	return append(dst, "]}"...)
}

// levelTails remembers where in the document each rate level's
// formatted tail first appeared, keyed by the bits of its three floats.
// It holds 16 levels; a document with more formats the rest every time.
type levelTails struct {
	n    int
	tail [16]struct {
		rate, energy, time uint64
		lo, hi             int
	}
}

// append appends level's `,"rate":…,"energy":…,"time":…}` tail to dst,
// copying it from an earlier occurrence in dst when there is one.
func (lt *levelTails) append(dst []byte, level model.RateLevel) []byte {
	rate, energy, time := math.Float64bits(level.Rate), math.Float64bits(level.Energy), math.Float64bits(level.Time)
	for _, t := range lt.tail[:lt.n] {
		if t.rate == rate && t.energy == energy && t.time == time {
			return append(dst, dst[t.lo:t.hi]...)
		}
	}
	lo := len(dst)
	dst = append(dst, `,"rate":`...)
	dst = obs.AppendJSONFloat(dst, level.Rate)
	dst = append(dst, `,"energy":`...)
	dst = obs.AppendJSONFloat(dst, level.Energy)
	dst = append(dst, `,"time":`...)
	dst = obs.AppendJSONFloat(dst, level.Time)
	dst = append(dst, '}')
	if lt.n < len(lt.tail) {
		t := &lt.tail[lt.n]
		t.rate, t.energy, t.time, t.lo, t.hi = rate, energy, time, lo, len(dst)
		lt.n++
	}
	return dst
}

// ReadPlanJSON parses a plan written by WriteJSON and validates it.
func ReadPlanJSON(r io.Reader) (*Plan, error) {
	var doc planJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("batch: decoding plan: %w", err)
	}
	params := model.CostParams{Re: doc.Re, Rt: doc.Rt}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	plan := &Plan{Params: params, Cores: make([]CorePlan, len(doc.Cores))}
	for i, seq := range doc.Cores {
		cp := CorePlan{Core: i, Sequence: make([]model.Assignment, len(seq))}
		for j, a := range seq {
			task := model.Task{ID: a.TaskID, Name: a.Name, Cycles: a.Cycles, Deadline: model.NoDeadline}
			if err := task.Validate(); err != nil {
				return nil, err
			}
			cp.Sequence[j] = model.Assignment{
				Task:  task,
				Level: model.RateLevel{Rate: a.Rate, Energy: a.Energy, Time: a.Time},
			}
		}
		plan.Cores[i] = cp
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return plan, nil
}

// Tasks reconstructs the task set the plan schedules.
func (p *Plan) Tasks() model.TaskSet {
	var out model.TaskSet
	for _, cp := range p.Cores {
		for _, a := range cp.Sequence {
			out = append(out, a.Task)
		}
	}
	return out
}
