// Package neg holds instrumented code that satisfies the flight
// emission discipline; every declaration must stay silent.
package neg

import (
	"cfm/internal/flight"
	"cfm/internal/sim"
)

// Guarded wraps every emission in an Enabled() guard and closes the
// spans it opens.
type Guarded struct {
	flt    *flight.Recorder
	staged []flight.Event
}

func (g *Guarded) Tick(t sim.Slot, ph sim.Phase) {
	if g.flt.Enabled() {
		g.flt.Emit(flight.ComposeID(0, t), t, flight.StageIssue, 0, 0)
		g.flt.Append(flight.Event{ID: 1, Slot: t, Stage: flight.StageHop})
	}
	if g.flt.Enabled() && t > 3 {
		g.flt.Emit(flight.ComposeID(0, t-3), t, flight.StageRetire, 0, 3)
	}
}

// drain folds a staged batch inside the guard.
func (g *Guarded) drain() {
	if g.flt.Enabled() {
		g.flt.AppendAll(g.staged)
	}
	g.staged = g.staged[:0]
}

// exempt is a deliberately unguarded cold path, annotated.
func (g *Guarded) exempt(t sim.Slot) {
	g.flt.Emit(9, t, flight.StageReply, 0, 0) //cfm:flight-ok cold drain path, called once per run
}

// consumer only reads the recorder: no emissions, no stage-pairing
// obligation.
func consumer(r *flight.Recorder) int {
	return len(r.Events())
}
