package sim_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dvfsched/internal/model"
	"dvfsched/internal/obs"
	"dvfsched/internal/online"
	"dvfsched/internal/platform"
	"dvfsched/internal/sched"
	"dvfsched/internal/sim"
	"dvfsched/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/"+digestFile)

const digestFile = "engine_digests.txt"

// digestScenario is one engine configuration whose outputs are pinned.
type digestScenario struct {
	name   string
	cores  int
	exec   platform.ExecutionModel
	tick   float64
	policy func(tb testing.TB) sim.Policy
	tasks  func(tb testing.TB, cores int) model.TaskSet
}

var digestParams = model.CostParams{Re: 0.4, Rt: 0.1}

func digestScenarios() []digestScenario {
	lmc := func(tb testing.TB) sim.Policy {
		l, err := online.NewLMC(digestParams)
		if err != nil {
			tb.Fatal(err)
		}
		return l
	}
	lmcEst := func(tb testing.TB) sim.Policy {
		l, err := online.NewLMCEstimated(digestParams)
		if err != nil {
			tb.Fatal(err)
		}
		return l
	}
	// OnTick retunes every core the governor moves, running or not; on
	// the mixed workload one tick often retunes several running cores.
	ondemand := func(testing.TB) sim.Policy { return &sched.OnDemandRR{Preemptive: true} }
	replan := func(testing.TB) sim.Policy { return &online.Replan{Params: digestParams} }
	var out []digestScenario
	for _, plat := range []struct {
		name  string
		cores int
		exec  platform.ExecutionModel
	}{
		{"ideal16", 16, platform.Ideal{}},
		{"realistic4", 4, platform.DefaultRealistic()},
	} {
		for _, w := range []struct {
			name  string
			tasks func(testing.TB, int) model.TaskSet
		}{
			{"judge", judgeTasks},
			{"mixed", mixedTasks},
		} {
			sfx := "/" + plat.name + "/" + w.name
			out = append(out,
				digestScenario{"lmc" + sfx, plat.cores, plat.exec, 0, lmc, w.tasks},
				digestScenario{"lmc-estimated" + sfx, plat.cores, plat.exec, 0, lmcEst, w.tasks},
				digestScenario{"ondemand-rr" + sfx, plat.cores, plat.exec, 0.05, ondemand, w.tasks},
				digestScenario{"wbg-replan" + sfx, plat.cores, plat.exec, 0, replan, w.tasks},
			)
		}
	}
	return out
}

// judgeTasks is a 1/64-scale Judgegirl trace: ~800 short interactive
// submissions and a dozen long judged ones.
func judgeTasks(tb testing.TB, _ int) model.TaskSet {
	tb.Helper()
	jc := workload.DefaultJudgeConfig()
	const scale = 1.0 / 64
	jc.Interactive = int(float64(jc.Interactive) * scale)
	jc.NonInteractive = int(float64(jc.NonInteractive) * scale)
	jc.Duration *= scale
	tasks, err := jc.Generate(rand.New(rand.NewSource(11)))
	if err != nil {
		tb.Fatal(err)
	}
	return tasks
}

// mixedTasks brings one task per core per second, each about a second
// of work, a quarter of them short interactive ones. Cores are busy
// for most but not all of each tick window, so busy fractions move
// from tick to tick and the governor retunes cores while they run.
func mixedTasks(_ testing.TB, cores int) model.TaskSet {
	rng := rand.New(rand.NewSource(12))
	tasks := make(model.TaskSet, 640)
	at := 0.0
	for i := range tasks {
		at += rng.ExpFloat64() / float64(cores)
		tasks[i] = model.Task{ID: i + 1, Cycles: rng.ExpFloat64()*2 + 0.05, Arrival: at, Deadline: model.NoDeadline}
		if rng.Intn(4) == 0 {
			tasks[i].Interactive = true
			tasks[i].Cycles = 0.01 + rng.Float64()*0.04
		}
	}
	return tasks
}

// digestBatches splits tasks, in arrival order, into 64-task
// submissions.
func digestBatches(tasks model.TaskSet) []model.TaskSet {
	tasks.ByArrival()
	var batches []model.TaskSet
	for lo := 0; lo < len(tasks); lo += 64 {
		batches = append(batches, tasks[lo:min(lo+64, len(tasks))])
	}
	return batches
}

// runDigest submits every batch the way an online session does
// (inject, then advance to the batch's latest arrival), then drains and
// hashes the event trace and the result.
func runDigest(t *testing.T, sc digestScenario) []string {
	t.Helper()
	batches := digestBatches(sc.tasks(t, sc.cores))
	ctx := context.Background()
	rec := &obs.Recorder{}
	s, err := sim.OpenSession(sim.Config{
		Platform:     platform.Homogeneous(sc.cores, platform.TableII(), sc.exec),
		Policy:       sc.policy(t),
		TickInterval: sc.tick,
		Sink:         rec,
	}, digestParams)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := s.Inject(b.Clone()); err != nil {
			t.Fatal(err)
		}
		latest := b[0].Arrival
		for _, task := range b {
			latest = math.Max(latest, task.Arrival)
		}
		if err := s.AdvanceTo(ctx, latest); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	resid := sha256.New()
	for _, r := range res.Residency {
		rates := make([]float64, 0, len(r))
		for rate := range r {
			rates = append(rates, rate)
		}
		sort.Float64s(rates)
		resid.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(rates))))
		for _, rate := range rates {
			resid.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(rate)))
			resid.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(r[rate])))
		}
	}
	return []string{
		fmt.Sprintf("%s trace %x", sc.name, sha256.Sum256(obs.AppendBinary(nil, rec.Events()))),
		fmt.Sprintf("%s cost %016x", sc.name, math.Float64bits(res.TotalCost)),
		fmt.Sprintf("%s switches %d", sc.name, res.Switches),
		fmt.Sprintf("%s preemptions %d", sc.name, res.Preemptions),
		fmt.Sprintf("%s residency %x", sc.name, resid.Sum(nil)),
	}
}

// TestEngineDigests pins the engine's outputs bit for bit across
// policies and execution models: the binary event trace, and the
// drained cost bits, switch and preemption counts and per-core
// residency. The realistic
// platform makes speeds depend on the active-core count, and the
// on-demand policy's governor changes levels of running cores several
// times per tick. Regenerate with -update only for an intended change
// of the engine's behavior.
func TestEngineDigests(t *testing.T) {
	var got []string
	for _, sc := range digestScenarios() {
		got = append(got, runDigest(t, sc)...)
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
		t.Fatalf("%v (run `go test ./internal/sim -run TestEngineDigests -update` to create)", err)
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
