// Package workload provides the synthetic access generators used by the
// evaluation: Bernoulli per-cycle access processes, uniform and hot-spot
// module selection, and locality-λ cluster traffic — the parameters the
// dissertation's own evaluation sweeps (access rate r, locality λ,
// hot-spot fraction h).
package workload

import (
	"fmt"

	"cfm/internal/sim"
)

// Access is one generated memory access demand.
type Access struct {
	At     sim.Slot
	Proc   int
	Module int // target module (or block offset, by convention of the consumer)
	Store  bool
}

// Generator produces the next access for a processor, or none this cycle.
type Generator interface {
	// Next reports whether processor p issues at slot t and, if so, the
	// access.
	Next(t sim.Slot, p int) (Access, bool)
}

// Bernoulli generates accesses with per-cycle probability Rate, selecting
// the target with Select and store/load with StoreFraction. It draws on
// every live slot, so it offers no skip-ahead hint: wrapping engines must
// keep its slots live (see Gapped for the event-time alternative).
//
//cfm:rng=slot
type Bernoulli struct {
	Rate          float64
	StoreFraction float64
	Select        func(p int, rng *sim.RNG) int
	rngs          []*sim.RNG
}

// NewBernoulli builds a generator for procs processors.
func NewBernoulli(procs int, rate, storeFraction float64, seed uint64, sel func(p int, rng *sim.RNG) int) *Bernoulli {
	if procs < 1 {
		panic(fmt.Sprintf("workload: %d processors", procs))
	}
	// Negated range checks reject NaN too.
	if !(rate >= 0 && rate <= 1) || !(storeFraction >= 0 && storeFraction <= 1) {
		panic(fmt.Sprintf("workload: rate %v / store fraction %v out of [0,1]", rate, storeFraction))
	}
	if sel == nil {
		panic("workload: nil selector")
	}
	root := sim.NewRNG(seed)
	rngs := make([]*sim.RNG, procs)
	for i := range rngs {
		rngs[i] = root.Split()
	}
	return &Bernoulli{Rate: rate, StoreFraction: storeFraction, Select: sel, rngs: rngs}
}

// Next implements Generator.
func (b *Bernoulli) Next(t sim.Slot, p int) (Access, bool) {
	rng := b.rngs[p]
	if !rng.Bernoulli(b.Rate) {
		return Access{}, false
	}
	return Access{
		At:     t,
		Proc:   p,
		Module: b.Select(p, rng),
		Store:  rng.Bernoulli(b.StoreFraction),
	}, true
}

// Uniform returns a selector distributing accesses uniformly over modules.
func Uniform(modules int) func(int, *sim.RNG) int {
	if modules < 1 {
		panic(fmt.Sprintf("workload: %d modules", modules))
	}
	return func(_ int, rng *sim.RNG) int { return rng.Intn(modules) }
}

// HotSpot returns a selector sending fraction hot of the traffic to
// module hotModule and the rest uniformly — the §2.1 hot-spot pattern
// behind tree saturation.
func HotSpot(modules, hotModule int, hot float64) func(int, *sim.RNG) int {
	if modules < 1 || hotModule < 0 || hotModule >= modules {
		panic(fmt.Sprintf("workload: hot module %d of %d", hotModule, modules))
	}
	if !(hot >= 0 && hot <= 1) {
		panic(fmt.Sprintf("workload: hot fraction %v", hot))
	}
	return func(_ int, rng *sim.RNG) int {
		if rng.Bernoulli(hot) {
			return hotModule
		}
		return rng.Intn(modules)
	}
}

// Locality returns a selector for clustered systems: processor p's local
// module (p / clusterSize) with probability lambda, otherwise uniform
// over the other modules — the §3.4.2 locality model.
func Locality(modules, clusterSize int, lambda float64) func(int, *sim.RNG) int {
	if modules < 2 || clusterSize < 1 {
		panic(fmt.Sprintf("workload: modules %d clusterSize %d", modules, clusterSize))
	}
	if !(lambda >= 0 && lambda <= 1) {
		panic(fmt.Sprintf("workload: λ = %v", lambda))
	}
	return func(p int, rng *sim.RNG) int {
		local := (p / clusterSize) % modules
		if rng.Bernoulli(lambda) {
			return local
		}
		m := rng.Intn(modules - 1)
		if m >= local {
			m++
		}
		return m
	}
}

// Trace records a reproducible access sequence for replay.
type Trace struct {
	Accesses []Access
}

// Record runs a generator for the given horizon and collects everything.
func Record(g Generator, procs int, horizon sim.Slot) *Trace {
	tr := &Trace{}
	for t := sim.Slot(0); t < horizon; t++ {
		for p := 0; p < procs; p++ {
			if a, ok := g.Next(t, p); ok {
				tr.Accesses = append(tr.Accesses, a)
			}
		}
	}
	return tr
}

// Rate returns the observed accesses per processor per cycle.
func (tr *Trace) Rate(procs int, horizon sim.Slot) float64 {
	if horizon <= 0 || procs <= 0 {
		return 0
	}
	return float64(len(tr.Accesses)) / float64(int64(procs)*int64(horizon))
}

// ModuleShare returns the fraction of accesses hitting module m.
func (tr *Trace) ModuleShare(m int) float64 {
	if len(tr.Accesses) == 0 {
		return 0
	}
	hit := 0
	for _, a := range tr.Accesses {
		if a.Module == m {
			hit++
		}
	}
	return float64(hit) / float64(len(tr.Accesses))
}
