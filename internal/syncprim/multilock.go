package syncprim

import (
	"fmt"

	"cfm/internal/cache"
	"cfm/internal/memory"
	"cfm/internal/sim"
)

// Pattern is a bit map of lock positions within a lock block's word 0,
// as in Fig. 5.5: bit i set means lock i is requested (or held).
type Pattern uint64

// multiState tracks one processor's multiple-lock protocol position.
type multiState int

const (
	msIdle multiState = iota
	msTrying
	msSpinning
	msReading
	msHolding
	msUnlocking
)

// MultiLocker implements atomic multiple lock/unlock (§5.3.3): a
// processor acquires either ALL the locks in its request pattern or none,
// via the multiple test-and-set operation — an atomic RMW that sets the
// pattern only if no requested bit is already taken. This eliminates the
// latency of acquiring several simple locks one at a time and the
// deadlocks of partial acquisition, and is the substrate for the
// resource-binding programming paradigm of Chapter 6.
// It implements sim.Ticker.
//
//cfm:no-stater in-flight acquisitions hold closures inside cache.Protocol; quiesce before checkpointing
type MultiLocker struct {
	c      *cache.Protocol
	offset int
	state  []multiState
	want   []Pattern // requested pattern per processor (0 = none)
	held   []Pattern // pattern currently held

	// OnAcquire, if set, runs when a processor obtains its pattern.
	OnAcquire func(p int, pat Pattern, t sim.Slot)

	// Acquisitions counts successful multiple-lock grants.
	Acquisitions int64
	// Failures counts multiple test-and-set attempts that found a
	// conflicting bit (the "second lock fails" case of Fig. 5.5).
	Failures int64
}

// NewMultiLocker builds a multiple-lock manager over the block at offset.
func NewMultiLocker(c *cache.Protocol, offset int) *MultiLocker {
	return &MultiLocker{
		c:      c,
		offset: offset,
		state:  make([]multiState, c.Banks()),
		want:   make([]Pattern, c.Banks()),
		held:   make([]Pattern, c.Banks()),
	}
}

// Request registers processor p's desire for every lock in pattern.
func (m *MultiLocker) Request(p int, pattern Pattern) {
	if pattern == 0 {
		panic("syncprim: empty lock pattern")
	}
	if m.state[p] != msIdle {
		panic(fmt.Sprintf("syncprim: P%d requested locks while busy", p))
	}
	m.want[p] = pattern
}

// Holding returns the pattern p currently holds (0 if none).
func (m *MultiLocker) Holding(p int) Pattern {
	if m.state[p] != msHolding {
		return 0
	}
	return m.held[p]
}

// Idle reports whether p has no request pending, holds nothing and has
// no unlock in flight, so Request may be called for it.
func (m *MultiLocker) Idle(p int) bool { return m.state[p] == msIdle && m.want[p] == 0 }

// Release schedules the atomic unlock of every lock p holds.
func (m *MultiLocker) Release(p int) {
	if m.state[p] != msHolding {
		panic(fmt.Sprintf("syncprim: P%d released locks it does not hold", p))
	}
	m.state[p] = msUnlocking
}

// Tick implements sim.Ticker.
func (m *MultiLocker) Tick(t sim.Slot, ph sim.Phase) {
	if ph != sim.PhaseIssue {
		return
	}
	for p := range m.state {
		if m.c.Busy(p) {
			continue
		}
		switch m.state[p] {
		case msIdle:
			if m.want[p] != 0 {
				m.startMTS(t, p)
			}
		case msSpinning:
			m.startSpin(t, p)
		case msUnlocking:
			m.startUnlock(t, p)
		}
	}
}

// PhaseMask implements sim.PhaseMasker.
func (m *MultiLocker) PhaseMask() sim.PhaseMask { return sim.MaskOf(sim.PhaseIssue) }

// startMTS issues the multiple test-and-set: atomically set the pattern
// if no requested bit is taken, per the §5.3.3 definition.
func (m *MultiLocker) startMTS(t sim.Slot, p int) {
	pat := m.want[p]
	m.state[p] = msTrying
	var failed bool
	m.c.RMW(p, m.offset, func(old memory.Block) memory.Block {
		if Pattern(old[0])&pat != 0 {
			failed = true
			return old // conflict: leave the block unchanged
		}
		failed = false
		nw := old.Clone()
		nw[0] = memory.Word(Pattern(old[0]) | pat)
		return nw
	}, func(old memory.Block) {
		if failed {
			m.Failures++
			m.state[p] = msSpinning // busy-wait until the bits clear
			return
		}
		m.state[p] = msHolding
		m.held[p] = pat
		m.want[p] = 0
		m.Acquisitions++
		if m.OnAcquire != nil {
			m.OnAcquire(p, pat, t)
		}
	})
}

// startSpin loads the lock block; when no requested bit is taken the
// processor retries the multiple test-and-set (while (s & p);).
func (m *MultiLocker) startSpin(t sim.Slot, p int) {
	pat := m.want[p]
	m.state[p] = msReading
	m.c.Load(p, m.offset, func(b memory.Block) {
		if Pattern(b[0])&pat == 0 {
			m.state[p] = msIdle // retry next tick
		} else {
			m.state[p] = msSpinning
		}
	})
}

// startUnlock atomically clears the held bits (s = s & ^p).
func (m *MultiLocker) startUnlock(t sim.Slot, p int) {
	pat := m.held[p]
	m.c.RMW(p, m.offset, func(old memory.Block) memory.Block {
		nw := old.Clone()
		nw[0] = memory.Word(Pattern(old[0]) &^ pat)
		return nw
	}, func(memory.Block) {
		m.held[p] = 0
		m.state[p] = msIdle
	})
}
