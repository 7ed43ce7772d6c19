// Package pos holds phase-mask mismatches in both directions:
// understated masks (dispatch on an omitted phase) and overstated masks
// (declare a phase a fully-dispatched ticker never handles).
package pos

import "cfm/internal/sim"

// Understated dispatches on a phase its mask omits: the engines compile
// PhaseConnect out of the schedule, so that branch is dead code.
type Understated struct{ n int }

// PhaseMask declares PhaseIssue only.
func (u *Understated) PhaseMask() sim.PhaseMask { return sim.MaskOf(sim.PhaseIssue) }

// Tick also handles PhaseConnect.
func (u *Understated) Tick(t sim.Slot, ph sim.Phase) {
	switch ph {
	case sim.PhaseIssue:
		u.n++
	case sim.PhaseConnect: // want "dispatches on sim.PhaseConnect"
		u.n--
	}
}

// Overstated declares a phase its pure-switch ticker never handles: the
// engine schedules a guaranteed no-op call there every slot.
type Overstated struct{ n int }

// PhaseMask declares PhaseUpdate, which Tick ignores.
func (o *Overstated) PhaseMask() sim.PhaseMask { // want "never handle sim.PhaseUpdate"
	return sim.MaskOf(sim.PhaseIssue, sim.PhaseUpdate)
}

// Tick dispatches only on PhaseIssue.
func (o *Overstated) Tick(t sim.Slot, ph sim.Phase) {
	switch ph {
	case sim.PhaseIssue:
		o.n++
	}
}

// Guarded declares a phase its guard-return ticker rules out.
type Guarded struct{ n int }

// PhaseMask declares PhaseTransfer, which the guard rules out.
func (g *Guarded) PhaseMask() sim.PhaseMask { // want "never handle sim.PhaseTransfer"
	return sim.MaskOf(sim.PhaseConnect, sim.PhaseTransfer)
}

// Tick guards down to PhaseConnect.
func (g *Guarded) Tick(t sim.Slot, ph sim.Phase) {
	if ph != sim.PhaseConnect {
		return
	}
	g.n++
}
