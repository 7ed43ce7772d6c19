// Package sim provides the cycle-driven simulation kernel used by every
// subsystem of the CFM reproduction.
//
// The Conflict-Free Memory architecture is fully synchronous: processors,
// switches, demultiplexers, and memory banks all advance in lock step with
// the system clock, one "time slot" per CPU cycle (dissertation §3.1.1).
// The kernel therefore models time as a single monotonically increasing
// integer slot counter and advances all registered components once per
// slot, in a fixed phase order that mirrors the hardware's intra-cycle
// structure:
//
//	PhaseIssue    processors decide whether to issue a request this slot
//	PhaseConnect  switches compute their clock-driven connection state
//	PhaseTransfer one word moves between a line buffer and a memory bank
//	PhaseUpdate   ATTs shift, directories settle, statistics accumulate
//
// Components implement Ticker and may narrow the phases they are invoked
// for with PhaseMask; the engine compiles a per-phase schedule of only
// the interested components. Components that
// go fully quiescent can additionally park themselves on the engine's
// idle list (see Idler) and be woken by whichever component next touches
// them, so a drained subsystem costs nothing per slot.
//
// There is one cycle engine, ParallelClock (parallel.go); Clock is its
// one-worker setting, the serial linearization of the lock-step machine.
package sim

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
)

// Slot is a point in simulated time, measured in CPU cycles. A constant
// number of slots (usually the number of memory banks) composes a time
// period, the fourth dimension of the AT-space.
type Slot int64

// Phase identifies a sub-step within one time slot. Phases run in
// ascending order; all components see phase k before any component sees
// phase k+1.
type Phase int

// Intra-slot phases in execution order.
const (
	PhaseIssue Phase = iota
	PhaseConnect
	PhaseTransfer
	PhaseUpdate
	numPhases
)

// String returns the phase name for traces and test failures.
func (p Phase) String() string {
	switch p {
	case PhaseIssue:
		return "issue"
	case PhaseConnect:
		return "connect"
	case PhaseTransfer:
		return "transfer"
	case PhaseUpdate:
		return "update"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// Ticker is a component driven by the system clock. Tick is called once
// per phase per slot (per phase the component has declared interest in;
// see PhaseMasker).
type Ticker interface {
	Tick(t Slot, ph Phase)
}

// TickerFunc adapts a function to the Ticker interface.
type TickerFunc func(t Slot, ph Phase)

// Tick implements Ticker.
func (f TickerFunc) Tick(t Slot, ph Phase) { f(t, ph) }

// FuncTicker is the scripted-driver form of TickerFunc: a plain tick
// function paired with an optional phase mask and an optional horizon
// callback. Test harnesses and workload drivers use it instead of a bare
// TickerFunc when they want to participate in skip-ahead — a TickerFunc
// has no Horizon and therefore pins a skip-ahead engine to dense ticking
// for as long as it is registered.
type FuncTicker struct {
	// OnTick is called like Ticker.Tick. nil is a no-op driver.
	OnTick func(t Slot, ph Phase)
	// Phases narrows the scheduled phases; the zero mask means MaskAll.
	Phases PhaseMask
	// NextEvent reports the earliest slot >= now at which OnTick may do
	// observable work (see Horizoner for the contract). nil keeps the
	// driver dense (horizon = now).
	NextEvent func(now Slot) Slot
	// Save and Load checkpoint the driver's captured state (loop
	// counters, result slices) through the Stater interface; nil hooks
	// snapshot nothing. A driver whose captured state evolves during the
	// run MUST set both, or a restored run diverges silently.
	Save func(enc *StateEncoder)
	Load func(dec *StateDecoder)
}

// Tick implements Ticker.
func (f *FuncTicker) Tick(t Slot, ph Phase) {
	if f.OnTick != nil {
		f.OnTick(t, ph)
	}
}

// PhaseMask implements PhaseMasker.
func (f *FuncTicker) PhaseMask() PhaseMask {
	if f.Phases == 0 {
		return MaskAll
	}
	return f.Phases
}

// Horizon implements Horizoner, clamping the callback's answer to now.
func (f *FuncTicker) Horizon(now Slot) Slot {
	if f.NextEvent == nil {
		return now
	}
	if h := f.NextEvent(now); h > now {
		return h
	}
	return now
}

// PhaseMask is a bitset over the intra-slot phases: bit k set means the
// component does work in Phase(k).
type PhaseMask uint8

// MaskAll covers every phase — the default for components that do not
// declare an interest.
const MaskAll PhaseMask = 1<<numPhases - 1

// MaskOf builds a PhaseMask from a list of phases.
func MaskOf(phases ...Phase) PhaseMask {
	var m PhaseMask
	for _, ph := range phases {
		if ph >= 0 && ph < numPhases {
			m |= 1 << uint(ph)
		}
	}
	return m
}

// Has reports whether the mask includes ph.
func (m PhaseMask) Has(ph Phase) bool { return m&(1<<uint(ph)) != 0 }

// PhaseMasker is the optional Ticker interface by which a component
// narrows the phases it is scheduled in. Tick (and TickShard) MUST be
// no-ops in phases outside the mask: the engine compiles the component
// out of those phases' schedules entirely, so an understated mask does
// not show up as a serial/parallel divergence — it changes the
// simulation at every worker count. The golden-output tests are the
// guard.
//
// The mask is read once, when the engine compiles its schedule (lazily,
// before the first slot after a registration); it must be constant for
// the lifetime of the registration.
type PhaseMasker interface {
	PhaseMask() PhaseMask
}

// maskOf returns the phases a ticker participates in: its PhaseMask, or
// every phase.
func maskOf(t Ticker) PhaseMask {
	if pm, ok := t.(PhaseMasker); ok {
		return pm.PhaseMask() & MaskAll
	}
	return MaskAll
}

// Idler is the parking handle of the active-set scheduler. An engine
// hands one to every registered component that implements Parker; the
// component calls Park when it is provably quiescent — every Tick until
// the next external stimulus would be a no-op — and whichever component
// (or harness code) delivers that stimulus calls Wake. A parked
// component is skipped by the engine at zero per-slot cost.
//
// The rules that keep parking invisible to the simulation:
//
//   - Park only from the component's own Tick/FinishShards (never from
//     TickShard: the same-phase finalizer would be skipped) or from
//     outside Run.
//   - Wake from a program point that executes identically at every
//     worker count and is ordered before the parked component's next
//     scheduled tick: an earlier serial segment or priority band, a
//     different phase, or outside Run. Within one parallel segment the
//     Shardable contract already forbids touching another component.
//   - Waking an already-awake component and parking an already-parked
//     one are harmless, so callers never need to check first.
//
// All methods are nil-safe: a component that was never registered (for
// example a CFMemory driven manually inside a ClusterSystem) has a nil
// handle and simply never parks.
type Idler struct {
	parked atomic.Bool
}

// Park marks the component quiescent; the engine skips it until Wake.
func (id *Idler) Park() {
	if id != nil {
		id.parked.Store(true)
	}
}

// Wake reactivates the component.
func (id *Idler) Wake() {
	if id != nil {
		id.parked.Store(false)
	}
}

// Parked reports whether the component is currently parked.
func (id *Idler) Parked() bool { return id != nil && id.parked.Load() }

// Parker is the optional Ticker interface by which a component receives
// its parking handle. An engine calls BindIdler once, when it compiles
// its schedule; a component registered on a new engine is re-bound. A
// component instance must only ever be registered on one engine.
type Parker interface {
	BindIdler(*Idler)
}

// HorizonNone is the horizon of a component with no scheduled work at
// all: "wake me never". It is the identity of the engine's min-fold, so
// a fleet in which every live component reports HorizonNone lets the
// clock jump to the end of the run budget in one step.
const HorizonNone Slot = 1<<63 - 1

// Horizoner is the optional Ticker interface behind the event-horizon
// clock. Horizon returns the earliest slot >= now at which the component
// may do observable work: change any state another component or the
// harness can read, emit a trace event, move a metric, draw from an RNG,
// or touch another component. The contract:
//
//   - Every slot in [now, Horizon(now)) must be an observable no-op for
//     the component — ticking it there or not ticking it at all yields
//     the same simulation, bit for bit.
//   - A conservative answer is always safe: returning now forces dense
//     ticking; only an OVERSTATED horizon (claiming quiescence across a
//     slot that would have done work) changes the simulation.
//   - Horizon is called between slots (after the slot's PhaseUpdate has
//     fully settled, before the next PhaseIssue) and must not mutate any
//     simulation state.
//   - Components that draw from an RNG every slot (per-cycle Bernoulli
//     processes) must report now while the stream is live: skipping the
//     draw would shift the stream. Components that draw at event time
//     (geometric think times, retry backoffs scheduled on completion)
//     keep identical streams across jumps and may report true horizons.
//
// Registered components that do NOT implement Horizoner pin the engine
// to dense ticking while they are awake (their horizon is taken as now);
// a parked component (see Idler) is infinitely far regardless. The
// engine only consults horizons when skip-ahead is enabled via
// SetSkipAhead, and only ever fire whole slots — every live component,
// every phase — so a jump is observationally identical to ticking
// through the skipped range.
type Horizoner interface {
	Horizon(now Slot) Slot
}

// Timebase is the read-only clock interface components keep a reference
// to when they only need the current slot (the engine satisfies it).
type Timebase interface {
	Now() Slot
}

// Engine is the cycle-engine interface: everything a harness needs to
// register components and advance simulated time. ParallelClock
// implements it, and every worker count produces a bit-for-bit identical
// simulation for components that honor the Shardable contract (see
// parallel.go and the top-level determinism matrix, matrix_test.go).
type Engine interface {
	Register(t Ticker)
	RegisterPrio(t Ticker, prio int)
	Now() Slot
	SlotsRun() int64
	// SetSkipAhead enables the event-horizon clock: between slots the
	// engine folds the registered components' Horizon values and jumps
	// over provably quiescent stretches instead of ticking through them.
	// Off by default; the simulation is bit-identical either way.
	SetSkipAhead(on bool)
	// SlotsFired reports how many slots actually executed their phase
	// plans; SlotsRun - SlotsFired is the number of slots skipped.
	SlotsFired() int64
	// SetEpochBatch bounds epoch batching: EpochAuto (0, default) lets
	// the engine batch a batchable plan automatically, 1 disables
	// batching, k > 1 caps episodes at k slots. Only a worker pool
	// batches; the one-worker engine runs slot by slot whatever k is.
	// Off or on, the simulation is bit-identical; only Stop and
	// skip-ahead granularity change (episode edges instead of slots).
	SetEpochBatch(k int)
	Stop()
	Step()
	Run(n int64) int64
	RunUntil(pred func() bool, budget int64) (int64, bool)
	// Checkpoint writes a versioned binary snapshot of full engine
	// state — clock position, per-component Stater sections, parking
	// flags, attached extras — restorable by Restore at any worker
	// count (snapshots are engine-neutral; see state.go).
	Checkpoint(w io.Writer) error
	// Restore loads a snapshot written by Checkpoint into this engine,
	// whose scenario must have been reconstructed exactly as it was when
	// checkpointed (same components, same registration order, same
	// attached extras). On error the engine is unusable; rebuild it.
	Restore(r io.Reader) error
	// AttachState adds a named harness-owned Stater (an event trace, a
	// metrics registry) to the snapshot alongside the registered
	// components. Attach order is part of the snapshot layout.
	AttachState(name string, s Stater)
}

// Clock is the cycle engine at one worker: the episode loop every worker
// count runs, on the caller's goroutine with no barrier call (its pool is
// one barrier node). It starts no goroutine and never batches, so
// its episodes are single slots and Stop ends a Run at the slot boundary.
type Clock = ParallelClock

type tickerEntry struct {
	prio int // lower runs first within a phase
	seq  int // registration order breaks priority ties
	t    Ticker
	// id is the parking handle bound at first compile (nil for
	// components that do not implement Parker).
	id      *Idler
	idBound bool
}

// planEntry is one (component, phase) pair of a compiled schedule.
type planEntry struct {
	t  Ticker
	id *Idler // nil: component never parks
}

// horizonEntry is one component of the compiled horizon fold. h is nil
// for components that do not implement Horizoner — while awake they pin
// the fold to "now" (dense ticking).
type horizonEntry struct {
	h  Horizoner
	id *Idler
}

// buildHorizons compiles the horizon-fold list from sorted tickers.
func buildHorizons(dst []horizonEntry, tickers []tickerEntry) []horizonEntry {
	dst = dst[:0]
	for i := range tickers {
		e := &tickers[i]
		h, _ := e.t.(Horizoner)
		dst = append(dst, horizonEntry{h: h, id: e.id})
	}
	return dst
}

// foldHorizons computes the global next-event slot at now: the minimum
// of the live components' horizons, each clamped to >= now. A live
// non-Horizoner short-circuits to now (no jump possible); an all-parked
// or all-HorizonNone fleet yields HorizonNone.
func foldHorizons(hplan []horizonEntry, now Slot) Slot {
	min := HorizonNone
	for _, e := range hplan {
		if e.id.Parked() {
			continue
		}
		if e.h == nil {
			return now
		}
		v := e.h.Horizon(now)
		if v <= now {
			return now
		}
		if v < min {
			min = v
		}
	}
	return min
}

// bindIdler hands e.t its parking handle on first compile and returns
// it (nil for non-Parker components).
func bindIdler(e *tickerEntry) *Idler {
	if !e.idBound {
		e.idBound = true
		if p, ok := e.t.(Parker); ok {
			e.id = new(Idler)
			p.BindIdler(e.id)
		}
	}
	return e.id
}

// sortTickers orders entries by (prio, seq). Registration only appends,
// so the engine sorts lazily before the first slot executes instead of
// re-sorting on every RegisterPrio call (which made setting up large
// configurations O(n² log n)).
func sortTickers(entries []tickerEntry) {
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].prio != entries[j].prio {
			return entries[i].prio < entries[j].prio
		}
		return entries[i].seq < entries[j].seq
	})
}

// NewClock returns the one-worker engine at slot 0.
func NewClock() *Clock { return NewParallelClock(1) }
