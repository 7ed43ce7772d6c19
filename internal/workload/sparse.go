package workload

import (
	"fmt"

	"cfm/internal/sim"
)

// Hinted is a Generator that can bound its own next event: EarliestNext
// returns the earliest slot >= now at which Next may report an access.
// Drivers fold it into their sim.Horizoner answer so the engine can jump
// the quiescent gaps. A Generator that draws randomness per slot (like
// Bernoulli at Rate > 0) cannot implement this usefully — skipping a
// slot would skip its draws.
type Hinted interface {
	Generator
	EarliestNext(now sim.Slot) sim.Slot
}

// Gapped generates accesses separated by random inter-arrival gaps drawn
// at EVENT time: each processor's next issue slot is materialized when
// the previous access issues, so the slots in between involve no RNG
// draws at all and a skip-ahead engine can jump straight across them.
// Gaps are uniform on [MinGap, MaxGap].
//
//cfm:rng=event
type Gapped struct {
	MinGap, MaxGap int
	StoreFraction  float64
	Select         func(p int, rng *sim.RNG) int
	rngs           []*sim.RNG
	nextAt         []sim.Slot
}

// NewGapped builds a gapped generator for procs processors. The first
// access of each processor is scheduled one gap after slot 0.
func NewGapped(procs, minGap, maxGap int, storeFraction float64, seed uint64, sel func(p int, rng *sim.RNG) int) *Gapped {
	if procs < 1 {
		panic(fmt.Sprintf("workload: %d processors", procs))
	}
	if minGap < 1 || maxGap < minGap {
		panic(fmt.Sprintf("workload: gap range [%d,%d] invalid", minGap, maxGap))
	}
	if !(storeFraction >= 0 && storeFraction <= 1) {
		panic(fmt.Sprintf("workload: store fraction %v out of [0,1]", storeFraction))
	}
	if sel == nil {
		panic("workload: nil selector")
	}
	g := &Gapped{
		MinGap: minGap, MaxGap: maxGap, StoreFraction: storeFraction, Select: sel,
		rngs:   make([]*sim.RNG, procs),
		nextAt: make([]sim.Slot, procs),
	}
	root := sim.NewRNG(seed)
	for i := range g.rngs {
		g.rngs[i] = root.Split()
		g.nextAt[i] = sim.Slot(g.gap(i))
	}
	return g
}

func (g *Gapped) gap(p int) int {
	if g.MaxGap == g.MinGap {
		return g.MinGap
	}
	return g.MinGap + g.rngs[p].Intn(g.MaxGap-g.MinGap+1)
}

// Next implements Generator. Slots before a processor's scheduled issue
// draw nothing, so they are skip-safe by construction.
func (g *Gapped) Next(t sim.Slot, p int) (Access, bool) {
	if t < g.nextAt[p] {
		return Access{}, false
	}
	rng := g.rngs[p]
	a := Access{
		At:     t,
		Proc:   p,
		Module: g.Select(p, rng),
		Store:  rng.Bernoulli(g.StoreFraction),
	}
	g.nextAt[p] = t + sim.Slot(g.gap(p))
	return a, true
}

// EarliestNext implements Hinted: the earliest scheduled issue slot.
func (g *Gapped) EarliestNext(now sim.Slot) sim.Slot {
	h := sim.HorizonNone
	for _, v := range g.nextAt {
		if v < h {
			h = v
		}
	}
	if h < now {
		return now
	}
	return h
}

// DutyCycle gates an inner generator with a periodic on/off envelope:
// active during the first Active slots of every Period, silent for the
// rest. The inner generator is never consulted during the off window, so
// no draws happen there and a skip-ahead engine can jump the whole gap —
// even when the inner process (e.g. Bernoulli) draws every active slot.
type DutyCycle struct {
	Period, Active int
	Inner          Generator
}

// NewDutyCycle wraps inner with an envelope of active slots per period.
func NewDutyCycle(inner Generator, period, active int) *DutyCycle {
	if inner == nil {
		panic("workload: nil inner generator")
	}
	if period < 1 || active < 1 || active > period {
		panic(fmt.Sprintf("workload: duty cycle %d/%d invalid", active, period))
	}
	return &DutyCycle{Period: period, Active: active, Inner: inner}
}

// Next implements Generator.
func (d *DutyCycle) Next(t sim.Slot, p int) (Access, bool) {
	if int(t%sim.Slot(d.Period)) >= d.Active {
		return Access{}, false
	}
	return d.Inner.Next(t, p)
}

// EarliestNext implements Hinted: now while inside an active window
// (the inner process may issue — and may need its per-slot draws),
// otherwise the start of the next period. If the inner generator is
// itself Hinted, its own bound applies within active windows.
func (d *DutyCycle) EarliestNext(now sim.Slot) sim.Slot {
	ph := now % sim.Slot(d.Period)
	if int(ph) < d.Active {
		if hi, ok := d.Inner.(Hinted); ok {
			v := hi.EarliestNext(now)
			if end := now - ph + sim.Slot(d.Active); v >= end {
				// The inner process sleeps past this window: next chance
				// is the later of its own bound and the next window start.
				next := now - ph + sim.Slot(d.Period)
				if v > next {
					return v
				}
				return next
			}
			return v
		}
		return now
	}
	return now - ph + sim.Slot(d.Period)
}
