package metrics

import (
	"sync/atomic"

	"cfm/internal/sim"
)

// StatusVar is a set of atomically stamped engine-progress gauges read
// by the /statusz, /healthz and /metrics HTTP handlers. The simulation
// goroutine stamps it (via Attach's ticker, or StampEngine after a run);
// handlers read it concurrently from the listener's goroutines. Fields
// are stamped one atomic at a time, so a concurrent reading may mix two
// adjacent slots — acceptable for observability, which is the only
// consumer.
//
// The values deliberately never enter a Registry during a run: scrape
// handlers append them to the exposition at read time, and Observatory
// stamps them post-run, so registry digests stay identical between
// dense and skip-ahead runs (skip counts differ across provably
// equivalent runs).
type StatusVar struct {
	slot, slotsRun, slotsFired, jumps, workers atomic.Int64
	crossings, epochs                          atomic.Int64
}

// Status is one reading of a StatusVar.
type Status struct {
	Slot             int64   `json:"slot"`
	SlotsRun         int64   `json:"slots_run"`
	SlotsFired       int64   `json:"slots_fired"`
	SlotsSkipped     int64   `json:"slots_skipped"`
	Jumps            int64   `json:"jumps"`
	SkipRatio        float64 `json:"skip_ratio"`
	Workers          int64   `json:"workers"`
	BarrierCrossings int64   `json:"barrier_crossings"`
	Epochs           int64   `json:"epochs"`
}

// Set stamps the engine progress counters.
func (sv *StatusVar) Set(slot, run, fired, jumps int64) {
	sv.slot.Store(slot)
	sv.slotsRun.Store(run)
	sv.slotsFired.Store(fired)
	sv.jumps.Store(jumps)
}

// SetSync stamps the engine's synchronization counters: barrier
// crossings and barrier episodes (both 0 at one worker).
func (sv *StatusVar) SetSync(crossings, epochs int64) {
	sv.crossings.Store(crossings)
	sv.epochs.Store(epochs)
}

// SetWorkers records the engine's worker count (1 for NewClock).
func (sv *StatusVar) SetWorkers(n int) { sv.workers.Store(int64(n)) }

// Status returns the current reading. The skip ratio is the fraction of
// run slots the event-horizon clock jumped over (0 with skip-ahead off).
func (sv *StatusVar) Status() Status {
	run, fired := sv.slotsRun.Load(), sv.slotsFired.Load()
	st := Status{
		Slot:             sv.slot.Load(),
		SlotsRun:         run,
		SlotsFired:       fired,
		SlotsSkipped:     run - fired,
		Jumps:            sv.jumps.Load(),
		Workers:          sv.workers.Load(),
		BarrierCrossings: sv.crossings.Load(),
		Epochs:           sv.epochs.Load(),
	}
	if run > 0 {
		st.SkipRatio = float64(st.SlotsSkipped) / float64(run)
	}
	return st
}

// StampEngine stamps sv from eng's public progress counters. Call from
// the engine's owner goroutine (between or after runs).
func (sv *StatusVar) StampEngine(eng sim.Engine) {
	var jumps, crossings, epochs int64
	workers := 1
	if pc, ok := eng.(*sim.ParallelClock); ok {
		jumps, workers = pc.Jumps(), pc.Workers()
		crossings, epochs = pc.BarrierCrossings(), pc.Epochs()
	}
	sv.Set(int64(eng.Now()), eng.SlotsRun(), eng.SlotsFired(), jumps)
	sv.SetWorkers(workers)
	sv.SetSync(crossings, epochs)
}

// statusTicker mirrors engine progress into a StatusVar on every fired
// slot. Its horizon is HorizonNone: stamping atomics is not
// simulation-observable, so the ticker never forces a slot to fire and
// skip-ahead behaves exactly as without it (the status merely reads the
// last fired slot during a jump).
type statusTicker struct {
	sv  *StatusVar
	eng sim.Engine
}

// Attach registers a stamping ticker on eng just after the sampler's
// priority band, so the stamped values include the slot's settled work.
func (sv *StatusVar) Attach(eng sim.Engine) {
	sv.StampEngine(eng)
	eng.RegisterPrio(&statusTicker{sv: sv, eng: eng}, SamplerPrio+1)
}

// Tick implements sim.Ticker.
func (st *statusTicker) Tick(t sim.Slot, ph sim.Phase) {
	if ph != sim.PhaseUpdate {
		return
	}
	st.sv.StampEngine(st.eng)
}

// PhaseMask implements sim.PhaseMasker.
func (st *statusTicker) PhaseMask() sim.PhaseMask { return sim.MaskOf(sim.PhaseUpdate) }

// Horizon implements sim.Horizoner: never force a slot to fire.
func (st *statusTicker) Horizon(now sim.Slot) sim.Slot { return sim.HorizonNone }
