package batch

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dvfsched/internal/model"
	"dvfsched/internal/platform"
)

var update = flag.Bool("update", false, "rewrite testdata/"+digestFile)

const digestFile = "plan_digests.txt"

// digestSizes are the workload sizes whose plans are pinned, from a
// single task up to well past the plan plane's largest request.
var digestSizes = []int{1, 2, 5, 17, 64, 200, 999, 3000}

// digestParams rotate across sizes so the envelopes' range boundaries
// move.
var digestParams = []model.CostParams{{Re: 0.1, Rt: 0.4}, {Re: 0.4, Rt: 0.1}, {Re: 0.002, Rt: 1.5}}

// digestTasks draws n tasks with shuffled, gapped IDs. A quarter of the
// cycle counts are small integers, so equal-cycle ties are common and
// the ID tie-break decides their order; some tasks carry names that
// need escaping.
func digestTasks(rng *rand.Rand, n int) model.TaskSet {
	names := []string{"", "", "", "mcf", "a<b>&c"}
	ids := rng.Perm(n)
	tasks := make(model.TaskSet, n)
	for i := range tasks {
		cycles := 0.05 + rng.ExpFloat64()*20
		if rng.Intn(4) == 0 {
			cycles = float64(1 + rng.Intn(8))
		}
		tasks[i] = model.Task{ID: 3*ids[i] - n, Name: names[rng.Intn(len(names))], Cycles: cycles, Deadline: model.NoDeadline}
	}
	return tasks
}

// digestPlanner is one planner configuration whose plans are pinned.
type digestPlanner struct {
	name string
	plan func(params model.CostParams, tasks model.TaskSet) (*Plan, error)
}

func digestPlanners(rng *rand.Rand) []digestPlanner {
	wbg := func(cores []CoreSpec) func(model.CostParams, model.TaskSet) (*Plan, error) {
		return func(params model.CostParams, tasks model.TaskSet) (*Plan, error) {
			return WBG(params, cores, tasks)
		}
	}
	homog := func(rates *model.RateTable, r int) func(model.CostParams, model.TaskSet) (*Plan, error) {
		return func(params model.CostParams, tasks model.TaskSet) (*Plan, error) {
			return Homogeneous(params, rates, r, tasks)
		}
	}
	single := func(rates *model.RateTable) func(model.CostParams, model.TaskSet) (*Plan, error) {
		return func(params model.CostParams, tasks model.TaskSet) (*Plan, error) {
			return SingleCore(params, rates, tasks)
		}
	}
	randomCores := func(r int) []CoreSpec {
		cores := make([]CoreSpec, r)
		for i := range cores {
			cores[i] = CoreSpec{Rates: randomRates(rng, 2+rng.Intn(6))}
		}
		return cores
	}
	mixed := []CoreSpec{
		{Rates: platform.TableII()}, {Rates: platform.IntelI7950()}, {Rates: platform.ExynosT4412()},
		{Rates: platform.TableII()}, {Rates: platform.IntelI7950()}, {Rates: platform.ExynosT4412()},
	}
	var out []digestPlanner
	for _, r := range []int{1, 2, 3, 4, 8, 16} {
		out = append(out, digestPlanner{fmt.Sprintf("wbg/table2/%d", r), wbg(HomogeneousCores(r, platform.TableII()))})
	}
	return append(out,
		digestPlanner{"wbg/i7/4", wbg(HomogeneousCores(4, platform.IntelI7950()))},
		digestPlanner{"wbg/i7/16", wbg(HomogeneousCores(16, platform.IntelI7950()))},
		digestPlanner{"wbg/mixed/6", wbg(mixed)},
		digestPlanner{"wbg/random/3", wbg(randomCores(3))},
		digestPlanner{"wbg/random/7", wbg(randomCores(7))},
		digestPlanner{"homogeneous/table2/1", homog(platform.TableII(), 1)},
		digestPlanner{"homogeneous/table2/3", homog(platform.TableII(), 3)},
		digestPlanner{"homogeneous/table2/8", homog(platform.TableII(), 8)},
		digestPlanner{"homogeneous/i7/16", homog(platform.IntelI7950(), 16)},
		digestPlanner{"singlecore/table2", single(platform.TableII())},
		digestPlanner{"singlecore/i7", single(platform.IntelI7950())},
	)
}

// planDigest hashes the plan's compact document and records the bits of
// its analytic and physical totals.
func planDigest(name string, p *Plan) []string {
	e, t, total := p.Cost()
	j, mk, ta := p.EnergyTime()
	bits := func(fs ...float64) string {
		parts := make([]string, len(fs))
		for i, f := range fs {
			parts[i] = fmt.Sprintf("%016x", math.Float64bits(f))
		}
		return strings.Join(parts, " ")
	}
	return []string{
		fmt.Sprintf("%s json %x", name, sha256.Sum256(p.AppendJSON(nil))),
		fmt.Sprintf("%s cost %s", name, bits(e, t, total)),
		fmt.Sprintf("%s energytime %s", name, bits(j, mk, ta)),
	}
}

// TestPlanDigests pins the batch planners' outputs bit for bit: the
// AppendJSON bytes and the Cost and EnergyTime bits of every plan, for
// WBG on homogeneous Table II (1–16 cores), i7, mixed real tables and
// random heterogeneous tables, for Homogeneous and for SingleCore, on
// seeded workloads of 1 to 3000 tasks with shuffled IDs and cycle ties.
// Regenerate with -update only for an intended change of the plans.
func TestPlanDigests(t *testing.T) {
	var got []string
	for si, n := range digestSizes {
		rng := rand.New(rand.NewSource(int64(100 + si)))
		tasks := digestTasks(rng, n)
		params := digestParams[si%len(digestParams)]
		for _, pl := range digestPlanners(rng) {
			name := fmt.Sprintf("n%d/%s", n, pl.name)
			p, err := pl.plan(params, tasks)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if p.NumTasks() != n {
				t.Fatalf("%s: %d tasks planned, want %d", name, p.NumTasks(), n)
			}
			got = append(got, planDigest(name, p)...)
		}
	}
	text := strings.Join(got, "\n") + "\n"
	path := filepath.Join("testdata", digestFile)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/batch -run TestPlanDigests -update` to create)", err)
	}
	if bytes.Equal([]byte(text), want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	bad := 0
	for i := 0; i < max(len(got), len(wantLines)); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("digest line %d:\n got  %q\n want %q", i+1, g, w)
			if bad++; bad == 10 {
				t.Fatal("too many differing lines")
			}
		}
	}
}
