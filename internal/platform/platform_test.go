package platform

import (
	"math"
	"testing"

	"dvfsched/internal/model"
)

func TestTableIIMatchesPaper(t *testing.T) {
	rt := TableII()
	if rt.Len() != 5 {
		t.Fatalf("Len = %d, want 5", rt.Len())
	}
	want := []struct{ p, e, tt float64 }{
		{1.6, 3.375, 0.625},
		{2.0, 4.22, 0.5},
		{2.4, 5.0, 0.42},
		{2.8, 6.0, 0.36},
		{3.0, 7.1, 0.33},
	}
	for i, w := range want {
		l := rt.Level(i)
		if l.Rate != w.p || l.Energy != w.e || l.Time != w.tt {
			t.Errorf("level %d = %+v, want %+v", i, l, w)
		}
	}
}

func TestRateTableByName(t *testing.T) {
	for _, name := range []string{"table2", "i7", "exynos"} {
		rt, err := RateTableByName(name)
		if err != nil || rt.Len() == 0 {
			t.Errorf("%s: %v", name, err)
		}
	}
	_, err := RateTableByName("arm")
	if want := `unknown platform "arm" (want table2, i7, or exynos)`; err == nil || err.Error() != want {
		t.Errorf("unknown name: error %v, want %q", err, want)
	}
}

func TestIntelI7950(t *testing.T) {
	rt := IntelI7950()
	if rt.Len() != 12 {
		t.Fatalf("Len = %d, want 12", rt.Len())
	}
	if rt.Min().Rate != 1.60 || rt.Max().Rate != 3.06 {
		t.Errorf("range %v..%v", rt.Min().Rate, rt.Max().Rate)
	}
	// The fit passes through Table II's endpoints.
	if math.Abs(rt.Min().Energy-3.375) > 1e-9 {
		t.Errorf("E(1.6) = %v, want 3.375", rt.Min().Energy)
	}
	if err := rt.Validate(); err != nil {
		t.Error(err)
	}
}

func TestExynosT4412(t *testing.T) {
	rt := ExynosT4412()
	if rt.Len() != 16 {
		t.Fatalf("Len = %d, want 16", rt.Len())
	}
	if math.Abs(rt.Min().Rate-0.2) > 1e-9 || math.Abs(rt.Max().Rate-1.7) > 1e-9 {
		t.Errorf("range %v..%v", rt.Min().Rate, rt.Max().Rate)
	}
	// Mobile chip draws far less per cycle than the desktop part.
	if rt.Max().Energy >= TableII().Min().Energy {
		t.Errorf("Exynos max E %v not below i7 min E", rt.Max().Energy)
	}
}

func TestIdealModel(t *testing.T) {
	l := model.RateLevel{Rate: 2, Energy: 4, Time: 0.5}
	var m Ideal
	for _, active := range []int{1, 2, 8} {
		if m.TimePerCycle(l, active) != 0.5 || m.EnergyPerCycle(l, active) != 4 {
			t.Error("Ideal must not depend on active cores")
		}
	}
}

func TestRealisticSlowdownMonotone(t *testing.T) {
	r := DefaultRealistic()
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	l := TableII().Max()
	t1 := r.TimePerCycle(l, 1)
	t4 := r.TimePerCycle(l, 4)
	if t1 < l.Time {
		t.Errorf("realistic time %v below nominal %v", t1, l.Time)
	}
	if t4 <= t1 {
		t.Errorf("contention did not slow down: %v vs %v", t4, t1)
	}
	if r.EnergyPerCycle(l, 4) <= r.EnergyPerCycle(l, 1) {
		t.Error("stall energy did not grow with contention")
	}
	if r.EnergyPerCycle(l, 1) < l.Energy {
		t.Error("realistic energy below nominal")
	}
}

func TestRealisticNonIdealScaling(t *testing.T) {
	// Doubling frequency must less-than-halve execution time.
	r := DefaultRealistic()
	lo := model.RateLevel{Rate: 1.5, Energy: 4, Time: 1 / 1.5}
	hi := model.RateLevel{Rate: 3.0, Energy: 8, Time: 1 / 3.0}
	speedup := r.TimePerCycle(lo, 1) / r.TimePerCycle(hi, 1)
	if speedup >= 2 {
		t.Errorf("speedup %v, want < 2 (non-ideal scaling)", speedup)
	}
	if speedup <= 1 {
		t.Errorf("speedup %v, want > 1", speedup)
	}
}

func TestRealisticValidate(t *testing.T) {
	bad := []Realistic{
		{MemFraction: -0.1},
		{MemFraction: 1.0},
		{MemFraction: 0.5, MemTime: -1},
		{MemFraction: 0.5, ContentionPenalty: -1},
		{MemFraction: 0.5, StaticWatts: -1},
	}
	for _, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("expected error for %+v", r)
		}
	}
}

func TestPlatformValidate(t *testing.T) {
	p := Homogeneous(4, TableII(), Ideal{})
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
	if p.NumCores() != 4 {
		t.Errorf("NumCores = %d", p.NumCores())
	}
	if (&Platform{}).Validate() == nil {
		t.Error("empty platform accepted")
	}
	bad := Homogeneous(1, TableII(), Realistic{MemFraction: -1})
	if bad.Validate() == nil {
		t.Error("invalid exec model accepted")
	}
	neg := Homogeneous(1, TableII(), Ideal{})
	neg.SwitchLatency = -1
	if neg.Validate() == nil {
		t.Error("negative switch latency accepted")
	}
}

func TestExecModelDefault(t *testing.T) {
	p := &Platform{Cores: []*model.RateTable{TableII()}}
	if _, ok := p.ExecModel().(Ideal); !ok {
		t.Error("nil Exec did not default to Ideal")
	}
}
