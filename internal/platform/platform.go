// Package platform models the hardware the paper evaluates on: CPUs
// with per-core DVFS (frequency/energy tables), and the execution
// non-idealities — shared-resource contention and non-proportional
// frequency scaling — that the paper identifies as the source of the
// ~8% gap between its analytic model and measurements (Section V-A2).
package platform

import (
	"fmt"

	"dvfsched/internal/model"
)

// TableII returns the five-level rate table of Table II of the paper
// (Intel i7-950 steps used in the batch-mode experiments): rates in
// GHz, E(p) in nJ/cycle, T(p) in ns/cycle.
func TableII() *model.RateTable {
	return model.MustRateTable([]model.RateLevel{
		{Rate: 1.6, Energy: 3.375, Time: 0.625},
		{Rate: 2.0, Energy: 4.22, Time: 0.5},
		{Rate: 2.4, Energy: 5.0, Time: 0.42},
		{Rate: 2.8, Energy: 6.0, Time: 0.36},
		{Rate: 3.0, Energy: 7.1, Time: 0.33},
	})
}

// fittedEnergy interpolates E(p) = a + b*p^2, the classical
// static-plus-quadratic-dynamic per-cycle energy, with a and b fitted
// to Table II's endpoints (E(1.6)=3.375, E(3.0)=7.1).
func fittedEnergy(p float64) float64 {
	const (
		b = (7.1 - 3.375) / (3.0*3.0 - 1.6*1.6)
		a = 3.375 - b*1.6*1.6
	)
	return a + b*p*p
}

// IntelI7950 returns the full 12-step frequency ladder of the Intel
// Core i7-950 the paper's testbed exposes (1.60-3.06 GHz), with
// per-cycle energies from the Table II quadratic fit and T(p) = 1/p.
func IntelI7950() *model.RateTable {
	steps := []float64{1.60, 1.73, 1.86, 2.00, 2.13, 2.26, 2.40, 2.53, 2.66, 2.80, 2.93, 3.06}
	levels := make([]model.RateLevel, len(steps))
	for i, p := range steps {
		levels[i] = model.RateLevel{Rate: p, Energy: fittedEnergy(p), Time: 1 / p}
	}
	return model.MustRateTable(levels)
}

// ExynosT4412 returns a rate table for the ARM Exynos-4412 the paper
// cites (0.2-1.7 GHz in 0.1 GHz steps), with a mobile-class energy
// curve E(p) = 0.15 + 0.35*p^2 nJ/cycle.
func ExynosT4412() *model.RateTable {
	levels := make([]model.RateLevel, 0, 16)
	for i := 2; i <= 17; i++ {
		p := float64(i) / 10
		levels = append(levels, model.RateLevel{Rate: p, Energy: 0.15 + 0.35*p*p, Time: 1 / p})
	}
	return model.MustRateTable(levels)
}

// RateTableByName resolves the rate-table names the CLIs and the
// service accept: table2 (TableII), i7 (IntelI7950) and exynos
// (ExynosT4412). The service returns the error text verbatim in its
// 400 bodies.
func RateTableByName(name string) (*model.RateTable, error) {
	switch name {
	case "table2":
		return TableII(), nil
	case "i7":
		return IntelI7950(), nil
	case "exynos":
		return ExynosT4412(), nil
	default:
		return nil, fmt.Errorf("unknown platform %q (want table2, i7, or exynos)", name)
	}
}

// ExecutionModel maps a nominal rate level to the effective per-cycle
// time and energy a task observes, given how many cores are busy.
// The analytic cost model of the paper corresponds to Ideal; the
// "experiment" side of Fig. 1 corresponds to a Realistic model.
type ExecutionModel interface {
	// TimePerCycle returns the effective ns/cycle at level l while
	// activeCores cores (including this one) are busy.
	TimePerCycle(l model.RateLevel, activeCores int) float64
	// EnergyPerCycle returns the effective nJ/cycle under the same
	// conditions.
	EnergyPerCycle(l model.RateLevel, activeCores int) float64
}

// Ideal executes exactly at the rate table's T and E: the assumptions
// of the analytic model.
type Ideal struct{}

// TimePerCycle returns l.Time unchanged.
func (Ideal) TimePerCycle(l model.RateLevel, _ int) float64 { return l.Time }

// EnergyPerCycle returns l.Energy unchanged.
func (Ideal) EnergyPerCycle(l model.RateLevel, _ int) float64 { return l.Energy }

// Realistic adds the two effects the paper blames for its 8%
// sim-vs-experiment gap:
//
//  1. co-running tasks contend for the last-level cache and memory, so
//     the memory-bound fraction of cycles stretches with the number of
//     active cores;
//  2. doubling the frequency does not halve execution time, because
//     the memory-bound fraction does not scale with core frequency.
//
// A MemFraction of the cycles takes MemTime ns regardless of
// frequency, inflated by ContentionPenalty per additional active core;
// static power (StaticWatts) keeps burning during those stall cycles.
type Realistic struct {
	// MemFraction is the fraction of cycles that are memory-bound
	// (0..1).
	MemFraction float64
	// MemTime is the ns cost of a memory-bound cycle at one active
	// core.
	MemTime float64
	// ContentionPenalty is the fractional slowdown of memory-bound
	// cycles per additional active core.
	ContentionPenalty float64
	// StaticWatts is the static power burned during stall time, in
	// watts (1 W = 1 nJ/ns).
	StaticWatts float64
}

// Validate checks parameter sanity.
func (r Realistic) Validate() error {
	if r.MemFraction < 0 || r.MemFraction >= 1 {
		return fmt.Errorf("platform: MemFraction must be in [0,1), got %v", r.MemFraction)
	}
	if r.MemTime < 0 || r.ContentionPenalty < 0 || r.StaticWatts < 0 {
		return fmt.Errorf("platform: negative Realistic parameter: %+v", r)
	}
	return nil
}

// TimePerCycle implements ExecutionModel.
func (r Realistic) TimePerCycle(l model.RateLevel, activeCores int) float64 {
	extra := 0.0
	if activeCores > 1 {
		extra = r.ContentionPenalty * float64(activeCores-1)
	}
	return (1-r.MemFraction)*l.Time + r.MemFraction*r.MemTime*(1+extra)
}

// EnergyPerCycle implements ExecutionModel: nominal energy plus static
// power during the stall time beyond the nominal cycle time.
func (r Realistic) EnergyPerCycle(l model.RateLevel, activeCores int) float64 {
	stall := r.TimePerCycle(l, activeCores) - l.Time
	if stall < 0 {
		stall = 0
	}
	return l.Energy + r.StaticWatts*stall
}

// DefaultRealistic is the Realistic model calibrated so that executing
// the paper's SPEC batch on four cores costs ~8% more than the
// analytic model predicts, reproducing Fig. 1.
func DefaultRealistic() Realistic {
	return Realistic{
		MemFraction:       0.12,
		MemTime:           0.75,
		ContentionPenalty: 0.22,
		StaticWatts:       1.5,
	}
}

// Platform bundles the per-core rate tables with the execution model
// and DVFS switching overhead.
type Platform struct {
	// Cores holds one rate table per core.
	Cores []*model.RateTable
	// Exec is the execution model; nil means Ideal.
	Exec ExecutionModel
	// SwitchLatency is the time a frequency change stalls the core,
	// in seconds (tens of microseconds on real hardware).
	SwitchLatency float64
	// IdleWatts is per-core idle power. The paper subtracts the idle
	// reading from its measurements, so experiments use 0; set it to
	// study total-system energy.
	IdleWatts float64
}

// Homogeneous builds a platform of n identical cores.
func Homogeneous(n int, rates *model.RateTable, exec ExecutionModel) *Platform {
	cores := make([]*model.RateTable, n)
	for i := range cores {
		cores[i] = rates
	}
	return &Platform{Cores: cores, Exec: exec}
}

// Validate checks the platform definition.
func (p *Platform) Validate() error {
	if len(p.Cores) == 0 {
		return fmt.Errorf("platform: no cores")
	}
	for i, rt := range p.Cores {
		if err := rt.Validate(); err != nil {
			return fmt.Errorf("platform: core %d: %w", i, err)
		}
	}
	if p.SwitchLatency < 0 {
		return fmt.Errorf("platform: negative switch latency")
	}
	if p.IdleWatts < 0 {
		return fmt.Errorf("platform: negative idle power")
	}
	if r, ok := p.Exec.(Realistic); ok {
		if err := r.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// ExecModel returns the execution model, defaulting to Ideal.
func (p *Platform) ExecModel() ExecutionModel {
	if p.Exec == nil {
		return Ideal{}
	}
	return p.Exec
}

// NumCores returns the core count.
func (p *Platform) NumCores() int { return len(p.Cores) }
