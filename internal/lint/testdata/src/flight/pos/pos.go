// Package pos violates the flight emission discipline in every way the
// pass knows how to catch.
package pos

import (
	"cfm/internal/flight"
	"cfm/internal/sim"
)

// Unguarded is an instrumented ticker whose emissions skip the
// Enabled() guard, and which opens spans without ever retiring them.
type Unguarded struct {
	flt    *flight.Recorder
	staged []flight.Event
}

func (u *Unguarded) Tick(t sim.Slot, ph sim.Phase) {
	u.flt.Emit(flight.ComposeID(0, t), t, flight.StageIssue, 0, 0) // want "flight.Recorder emission outside an Enabled" "never flight.StageRetire"
	if t > 10 {
		u.flt.Append(flight.Event{ // want "flight.Recorder emission outside an Enabled" "flight.Event construction outside an Enabled"
			ID: 1, Slot: t, Stage: flight.StageHop,
		})
	}
}

// wrongGuard checks something other than Enabled — the emission is
// still unguarded.
func (u *Unguarded) wrongGuard(t sim.Slot) {
	if u.flt != nil {
		u.flt.Emit(1, t, flight.StageNetInject, 0, 0) // want "flight.Recorder emission outside an Enabled"
	}
}

// elseBranch puts the emission in the guard's else branch, where the
// recorder is disabled.
func (u *Unguarded) elseBranch(t sim.Slot) {
	if u.flt.Enabled() {
		_ = t
	} else {
		u.flt.Emit(2, t, flight.StageHop, 0, 0) // want "flight.Recorder emission outside an Enabled"
	}
}

// drain folds a staged batch without the guard or an annotation.
func (u *Unguarded) drain() {
	u.flt.AppendAll(u.staged) // want "flight.Recorder emission outside an Enabled"
	u.staged = u.staged[:0]
}
