package sim

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the cycle engine. The CFM is a fully synchronous
// machine: within one time slot every bank, switch column, and cache
// frontend is combinational and mutually independent, so the hardware
// evaluates them simultaneously (dissertation §3.1.1). With one worker
// (Clock, NewClock) the engine linearizes that simultaneity into an
// arbitrary but fixed order; with more it recovers the hardware's
// concurrency while guaranteeing the exact same observable simulation,
// bit for bit.
//
// The guarantee rests on three rules:
//
//  1. Phases are global barriers: every component finishes phase k of a
//     slot before any component starts phase k+1, at every worker count.
//  2. Priority order is honored across shards: tickers are grouped into
//     priority bands (equal RegisterPrio priority), and band k fully
//     precedes band k+1 within each phase. Components that do not opt
//     in to sharding run single-threaded, in registration order.
//  3. Within one priority band, a component opts in by implementing
//     Shardable: it partitions its per-phase work into shards and
//     promises the shards are conflict-free — against each other AND
//     against the shards of any other Shardable in the same band. The
//     engine may then run shards concurrently in any order. Work that
//     is inherently ordered (statistics folding, trace emission,
//     completion callbacks) goes into FinishShards, which the engine
//     runs single-threaded after all of the band's shards.
//
// Under those rules any shard interleaving — including the fully serial
// one — yields the same machine state, so every worker count simulates
// the same machine. The top-level determinism matrix (matrix_test.go)
// proves it for every scenario of its table.
//
// Execution model: every run, at every worker count, executes one SPMD
// episode loop (episodes). Each worker runs it — worker 0 on the
// caller's goroutine, the others from a pool of persistent workers
// parked on the pool gate between runs, so a run costs no goroutine
// creation. One worker is the same loop on a one-node barrier, which it
// never calls: it starts no goroutine and recovers no panic, so a
// component's panic reaches the caller unchanged.
//
// All synchronization is one combining-tree barrier (treebarrier.go):
// each worker spins on flags in its own cache-line-padded tree node,
// arrivals combine up the tree, and release propagates down by one
// remote write per edge, so a crossing costs O(1) remote references per
// worker instead of fanning every worker into one shared counter.
// Waiters spin briefly and then block on a condition variable, so an
// idle engine consumes no CPU.
//
// An episode is a stretch of slots between two settles. In a per-slot
// run an episode is one slot, and the loop crosses the barriers the
// compiler placed only where the schedule needs them: before parallel
// shard work (so it cannot overtake preceding work) and before serial
// work that follows parallel work. A slot that is one sharded segment
// plus its finalizer costs two crossings, not eight. In a batched run —
// the compiled plan is exclusively shard work by components that
// declare global shard closure (EpochSafe) and whose finalizers can
// reconstruct the serial fold order over a slot range (EpochFinisher) —
// an episode is up to K slots: each worker ticks its shard range
// through every phase of every slot with no synchronization at all,
// and FinishEpoch replaces the per-phase finalizers. Only a worker
// pool batches.
//
// Every episode ends the same way: the settle crossing (all work of
// the episode done), worker 0's bookkeeping and decision (decide: the
// RunUntil predicate, Stop, the skip-ahead jump, the budget, the next
// episode's length), and one control-word crossing that publishes it.
// Worker 0 takes the same decision before the first episode, so Stop,
// predicates and jumps resolve at episode edges at every worker count,
// and a Run budget truncates the final episode: engine state between
// runs is always at an episode boundary (which is why Checkpoint —
// legal only between runs — never observes a half-finished episode;
// see state.go).

// Shardable is the optional interface by which a composite Ticker
// declares conflict-free shard affinity. Shards returns the number of
// independent units; TickShard performs unit `shard`'s portion of
// Tick(t, ph). The contract:
//
//   - For every slot and phase, running TickShard for all shards (in
//     any order, possibly concurrently) followed by FinishShards (if
//     implemented) must leave the component — and every component it
//     touches — in exactly the state Tick(t, ph) would.
//   - Distinct shards must not write state read or written by another
//     shard of this component during the same phase, nor state touched
//     by any shard of another Shardable registered in the same
//     priority band.
//
// Components typically implement Tick by delegating to SerialTick so
// the serial and parallel engines execute identical code paths.
type Shardable interface {
	Ticker
	Shards() int
	TickShard(t Slot, ph Phase, shard int)
}

// ShardFinalizer is implemented by Shardables that need a
// single-threaded epilogue per (slot, phase): folding per-shard
// statistics into public counters, flushing staged trace events in
// deterministic order, and running completion callbacks. The engine
// calls it exactly once after every shard of the phase has finished.
type ShardFinalizer interface {
	FinishShards(t Slot, ph Phase)
}

// EpochSafeTicker is the opt-in contract for epoch batching, a strictly
// stronger promise than Shardable's per-phase independence. A component
// whose EpochSafe() reports true guarantees *global shard closure*:
// TickShard(t, ph, s) reads and writes only state owned by shard s —
// across every phase and every slot, not just within one (slot, phase).
// Under that promise the engine may run shard s through ALL phases of
// slots [from, from+k) before shard s' has started slot `from` at all:
// no result of shard s' work in any phase of any episode slot is ever
// visible to shard s before the episode settles. Parking state (Idler)
// must only change at episode edges — in FinishEpoch or between runs —
// never from inside TickShard. Components whose phases communicate
// across shards (a network moving flits between columns, a directory
// invalidating remote frontends) must report false.
type EpochSafeTicker interface {
	Shardable
	EpochSafe() bool
}

// EpochFinisher is the episode counterpart of ShardFinalizer: the
// engine calls FinishEpoch exactly once per component per episode,
// single-threaded, after every shard of every slot in [from, to) has
// ticked. The component must leave itself — and every sink it feeds
// (metrics, traces, flight recorders) — byte-identical to the serial
// engine having called FinishShards for each (slot, phase) of the
// episode in order: slot-major, phase within slot, ascending shard
// within phase. Commutative folds (counters, histogram bins) need no
// care; ordered sinks (event streams) must be merged slot-major from
// the per-shard staging, which is always possible under EpochSafe
// because each shard's staged stream is slot-nondecreasing.
//
// Restriction: two components registered on one engine must not feed
// order-sensitive records into a SHARED sink if both batch, because
// each reconstructs only its own serial order — the engine refuses
// nothing here, but the equivalence suite pins every shipped pairing.
type EpochFinisher interface {
	FinishEpoch(from, to Slot)
}

// PhaseAware is the retired slice-valued form of PhaseMasker. The engine
// no longer reads it: a component that declares only ActivePhases is
// ticked in every phase. The name stays because bench/cfmbench's
// interface-parity test asserts against it; delete it with that test.
type PhaseAware interface {
	ActivePhases() []Phase
}

// SerialTick executes a Shardable exactly as the one-worker engine does:
// every shard in ascending order, then the finalizer. Components delegate
// their Tick to it, so a component ticked directly (by a composite that
// owns it, or by a test) runs the engine's code path.
func SerialTick(s Shardable, t Slot, ph Phase) {
	for i, n := 0, s.Shards(); i < n; i++ {
		s.TickShard(t, ph, i)
	}
	if f, ok := s.(ShardFinalizer); ok {
		f.FinishShards(t, ph)
	}
}

// WorkersAuto, passed to NewParallelClock, selects the worker count
// automatically: the engine inspects the compiled schedule and runs
// serially unless some parallel segment is at least autoSerialShards
// wide — small configurations never pay the coordination tax (the
// recorded baseline showed workers=4 nearly 3x SLOWER than workers=1 on
// the dissertation shapes; see EXPERIMENTS.md). Plans that epoch-batch
// amortize that tax over whole episodes, so for them the bar drops to
// autoEpochSerialShards.
const WorkersAuto = 0

// autoSerialShards is the WorkersAuto threshold: the widest parallel
// segment must have at least this many shards before auto mode turns on
// worker goroutines at all.
const autoSerialShards = 32

// autoEpochSerialShards is the WorkersAuto threshold for batchable
// plans. Epoch batching amortizes the per-slot barrier crossings over
// epochAutoK slots, so the coordination tax that makes narrow plans run
// better serially is an order of magnitude smaller — auto mode turns on
// workers for much narrower shard counts when every scheduled component
// batches.
const autoEpochSerialShards = 8

// EpochAuto, passed to SetEpochBatch, selects the episode length
// automatically (currently epochAutoK when the plan is batchable). It
// is the default: a batchable plan batches unless explicitly disabled
// with SetEpochBatch(1).
const EpochAuto = 0

// epochAutoK is the EpochAuto episode length: long enough that the two
// per-episode crossings vanish against the shard work, short enough
// that Stop and skip-ahead stay responsive.
const epochAutoK = 16

// parUnit is one Shardable inside a merged parallel segment.
type parUnit struct {
	s      Shardable
	fin    ShardFinalizer // nil when the component has no finalizer
	id     *Idler         // nil when the component never parks
	shards int
	offset int // first global shard index of this unit in the segment
}

// epochFin is one component of the compiled episode-finalizer list.
type epochFin struct {
	f  EpochFinisher
	id *Idler
}

// segment is one compiled step of a phase schedule: either a run of
// single-threaded tickers or a merged group of Shardables from one
// priority band.
type segment struct {
	serial []planEntry // non-nil: worker 0 runs these in order
	units  []parUnit   // non-nil: shards distributed across workers
	total  int         // total shards across units
	// cuts[w]:cuts[w+1] is worker w's shard range, cut once per compile
	// for the resolved worker count.
	cuts   []int
	anyFin bool
	// barBefore makes every worker sync before this segment's work —
	// set by the compiler only where ordering demands it.
	barBefore bool
}

// ParallelClock is the cycle engine: it owns simulated time and the
// ordered set of components it drives, and runs them through one episode
// loop — on the caller's goroutine alone with one worker (Clock, from
// NewClock), with a pool of persistent workers and barrier
// synchronization above that. It implements Engine; see the file comment
// for the equivalence guarantee. Construct with NewClock or
// NewParallelClock.
//
// Registration, Run, Step, and Close must all happen on one goroutine;
// Stop alone is safe to call from inside a Tick on any worker.
type ParallelClock struct {
	now     Slot
	tickers []tickerEntry
	// cfgWorkers is the constructor argument (WorkersAuto = resolve per
	// plan); workers is the resolved count for the current plan.
	cfgWorkers int
	workers    int
	// Barrier tunables: cfgArity 0 = pick from worker count; cfgSpins
	// 0 = defaultBarrierSpins (only tests set it).
	cfgArity int
	cfgSpins int
	plan     [numPhases][]segment
	// ctrlBar makes a per-slot episode settle before worker 0's
	// bookkeeping (needed when the slot's last work was parallel).
	ctrlBar bool
	planned bool
	stopped atomic.Bool
	// Epoch batching: epochK is the SetEpochBatch argument (EpochAuto =
	// auto); batchable is the compiled predicate; epochFins the compiled
	// finalizer list; slotCrossings the crossings one per-slot episode
	// costs (for the crossings counter).
	epochK        int
	batchable     bool
	epochFins     []epochFin
	slotCrossings int
	// Per-run state, written by worker 0 before the gate or in decide and
	// published to workers through the gate or the control barrier.
	runN     int64
	runDone  int64
	runPred  func() bool
	batched  bool // this run's episodes fuse slots (see decide)
	epochLen int  // slots in the next episode
	// cont is the worker control word: written by worker 0 between the
	// settle and control barriers, and only there — a worker of the
	// previous run may still be reading it until the next gate — read by
	// everyone after them.
	cont bool
	// Panic collection.
	panicMu  sync.Mutex
	panicVal any
	// Persistent worker pool (nil until the first run; one node and no
	// goroutine at one worker).
	pool   *workerPool
	sense0 uint64 // worker 0's barrier sense, persists across runs
	// skipAhead enables the event-horizon clock; hplan is the compiled
	// horizon-fold list. Only worker 0 reads them (in decide); the other
	// workers pick a jump up by re-reading pc.now after the control word
	// barrier.
	skipAhead bool
	hplan     []horizonEntry
	// extras are the harness-attached Staters snapshotted alongside the
	// registered components (see AttachState).
	extras []extraState
	// Stats. crossings and epochs count this engine's lifetime barrier
	// episodes during parallel runs (the pool gate is not counted); they
	// are observability counters, not simulation state, so — like
	// nothing else would fit the frozen snapshot format — they are NOT
	// checkpointed and restart at zero on a restored engine.
	slotsRun   int64
	slotsFired int64
	jumps      int64
	crossings  int64
	epochs     int64
	// codec is the checkpoint encoder. Checkpoint encodes into its
	// buffer and Restore reads into the same buffer, so once it has grown
	// to the snapshot's size neither allocates in proportion to the
	// snapshot. It is last, after the fields the workers share, so that
	// adding it moved none of them.
	codec StateEncoder
}

// workerPool holds the persistent worker goroutines of one resolved
// (worker count, barrier shape). Workers park on bar between runs; the
// owner releases them by arriving at the same barrier.
type workerPool struct {
	n     int // total workers including the caller (worker 0)
	arity int
	spins int
	bar   treeBarrier
	stop  bool // written by the owner before the release that retires the pool
	wg    sync.WaitGroup
}

// NewParallelClock returns the engine at slot 0. workers > 0 fixes the
// worker count; WorkersAuto (0) sizes it from the compiled schedule
// (serial below the autoSerialShards threshold, else GOMAXPROCS);
// workers < 0 selects GOMAXPROCS unconditionally. workers == 1 runs the
// episode loop on the caller's goroutine alone: the serial engine
// NewClock returns.
func NewParallelClock(workers int) *ParallelClock {
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &ParallelClock{cfgWorkers: workers}
}

// Workers returns the configured worker count (WorkersAuto when the
// engine sizes itself).
func (pc *ParallelClock) Workers() int { return pc.cfgWorkers }

// Now returns the current slot. During a tick it is the slot being
// executed; between Run calls it is the next slot to execute.
func (pc *ParallelClock) Now() Slot { return pc.now }

// SlotsRun reports how many complete slots have been executed, skipped
// quiescent slots included (under skip-ahead, Now advances by exactly
// SlotsRun either way).
func (pc *ParallelClock) SlotsRun() int64 { return pc.slotsRun }

// SlotsFired reports how many slots actually executed their phase plan.
// Without skip-ahead it equals SlotsRun.
func (pc *ParallelClock) SlotsFired() int64 { return pc.slotsFired }

// Jumps reports how many skip-ahead jumps advanced the clock; zero
// without skip-ahead. Like SlotsFired it is engine bookkeeping, not
// simulation state. Read from the owner goroutine, between runs.
func (pc *ParallelClock) Jumps() int64 { return pc.jumps }

// BarrierCrossings reports how many barrier crossings the full worker
// complement has paid during pool runs over this engine's lifetime (a
// one-worker run crosses none; the pool gate is not counted). Read from
// the owner goroutine, between runs. Not checkpointed.
func (pc *ParallelClock) BarrierCrossings() int64 { return pc.crossings }

// Epochs reports how many episodes (batched multi-slot AND per-slot)
// pool runs have executed; a one-worker run counts none. The batching
// win is visible as Epochs << SlotsFired. Read from the owner goroutine,
// between runs. Not checkpointed.
func (pc *ParallelClock) Epochs() int64 { return pc.epochs }

// SetSkipAhead enables or disables the event-horizon clock. Call between
// runs, from the owner goroutine. The per-component horizons are folded
// single-threaded by worker 0 before the first episode and between
// episodes; workers observe a jump as a re-published pc.now through the
// control barrier, so the phase schedule itself is untouched and the
// simulated observables are bit-identical to dense ticking. Under epoch
// batching, horizons are folded at episode edges only.
func (pc *ParallelClock) SetSkipAhead(on bool) { pc.skipAhead = on }

// SetEpochBatch bounds the episode length of epoch batching: EpochAuto
// (0, the default) batches a batchable plan with the automatic length;
// 1 disables batching; k > 1 fixes the cap at k slots. Only a worker
// pool batches: one worker runs slot by slot whatever k is. Call between
// runs, from the owner goroutine. Batching changes nothing observable —
// the simulation stays bit-identical — except that Stop and skip-ahead
// jumps resolve at episode edges rather than every slot, and RunUntil
// always runs slot-at-a-time (its predicate is checked between slots).
func (pc *ParallelClock) SetEpochBatch(k int) {
	if k < 0 {
		k = 1
	}
	pc.epochK = k
}

// SetBarrierArity overrides the combining-tree fan-in (clamped to
// 2..barrierMaxArity; 0 restores the automatic pick from the worker
// count). Call between runs, from the owner goroutine.
func (pc *ParallelClock) SetBarrierArity(arity int) {
	pc.cfgArity = arity
	pc.planned = false
}

// Register adds a component at priority 0.
func (pc *ParallelClock) Register(t Ticker) { pc.RegisterPrio(t, 0) }

// RegisterPrio adds a component with an explicit priority. Within each
// phase, lower priorities tick first; ties run in registration order. The
// CFM hardware has no such ordering (everything is combinational within a
// slot) but a software model needs a deterministic schedule: e.g. switches
// must compute connections before banks sample their inputs.
func (pc *ParallelClock) RegisterPrio(t Ticker, prio int) {
	pc.tickers = append(pc.tickers, tickerEntry{prio: prio, seq: len(pc.tickers), t: t})
	pc.planned = false
}

// Stop requests that Run return at the end of the current slot — or,
// under epoch batching, at the end of the current episode (at most the
// episode cap further slots). Safe to call from inside a Tick or a
// TickShard on any worker.
func (pc *ParallelClock) Stop() { pc.stopped.Store(true) }

// AttachState adds a named harness-owned Stater to the snapshot (see
// Engine.AttachState). Call from the owner goroutine, between runs.
func (pc *ParallelClock) AttachState(name string, s Stater) {
	pc.extras = attachExtra(pc.extras, name, s)
}

// Checkpoint writes a snapshot of full engine state to w. It compiles
// the schedule first (binding parking handles and fixing the canonical
// (prio, seq) component order, which no worker count changes), so it may
// be called before the first slot as well as between runs, and the
// snapshot restores at any worker count. Call from the owner goroutine,
// never from inside a Tick — which, because episodes never span a Run
// budget, is always an episode boundary: a mid-episode cut is
// structurally impossible rather than runtime-rejected.
func (pc *ParallelClock) Checkpoint(w io.Writer) error {
	if !pc.planned {
		pc.compile()
	}
	return writeCheckpoint(w, &pc.codec, pc.now, pc.slotsRun, pc.slotsFired, pc.jumps, pc.tickers, pc.extras)
}

// Restore loads a snapshot written by Checkpoint (at any worker count)
// into this engine. The scenario must have been reconstructed exactly as
// checkpointed. On error the engine and its components are in an
// undefined state — rebuild them. Call from the owner goroutine, between
// runs.
func (pc *ParallelClock) Restore(r io.Reader) error {
	if !pc.planned {
		pc.compile()
	}
	snap, err := readCheckpoint(r, &pc.codec.buf, pc.tickers, pc.extras)
	if err != nil {
		return err
	}
	pc.now = snap.now
	pc.slotsRun = snap.slotsRun
	pc.slotsFired = snap.slotsFired
	pc.jumps = snap.jumps
	pc.stopped.Store(false)
	return nil
}

// compile builds the per-phase schedule: tickers sorted into priority
// bands, consecutive Shardables of one band merged into parallel
// segments, everything else into single-threaded segments; then barrier
// placement, the batchability predicate, and the auto worker count are
// derived from the shape.
func (pc *ParallelClock) compile() {
	sortTickers(pc.tickers)
	for ph := Phase(0); ph < numPhases; ph++ {
		pc.plan[ph] = nil
	}
	// lastBand[ph] is the priority of the last segment appended to
	// phase ph's schedule; parallel merging never crosses bands.
	var lastBand [numPhases]int
	maxShards := 0
	for i := range pc.tickers {
		e := &pc.tickers[i]
		id := bindIdler(e)
		sh, shardable := e.t.(Shardable)
		if shardable && sh.Shards() < 1 {
			shardable = false
		}
		m := maskOf(e.t)
		for ph := Phase(0); ph < numPhases; ph++ {
			if !m.Has(ph) {
				continue
			}
			segs := pc.plan[ph]
			if shardable {
				fin, _ := e.t.(ShardFinalizer)
				u := parUnit{s: sh, fin: fin, id: id, shards: sh.Shards()}
				if n := len(segs); n > 0 && segs[n-1].units != nil && lastBand[ph] == e.prio {
					last := &segs[n-1]
					u.offset = last.total
					last.units = append(last.units, u)
					last.total += u.shards
					last.anyFin = last.anyFin || fin != nil
				} else {
					segs = append(segs, segment{units: []parUnit{u}, total: u.shards, anyFin: fin != nil})
				}
				if t := segs[len(segs)-1].total; t > maxShards {
					maxShards = t
				}
			} else {
				pe := planEntry{t: e.t, id: id}
				if n := len(segs); n > 0 && segs[n-1].serial != nil {
					segs[n-1].serial = append(segs[n-1].serial, pe)
				} else {
					segs = append(segs, segment{serial: []planEntry{pe}})
				}
			}
			pc.plan[ph] = segs
			lastBand[ph] = e.prio
		}
	}
	// Barrier placement. Walking the slot's segments in execution
	// order, a barrier is needed before parallel work whenever ANY work
	// happened since the last sync (it must not overtake), and before
	// serial work only when PARALLEL work happened since the last sync
	// (worker 0's own serial work is already ordered). A segment's
	// finalizer counts as serial work behind the segment's internal
	// post-shard barrier.
	pendingSerial, pendingPar := false, false
	sync := func() { pendingSerial, pendingPar = false, false }
	crossings := 1 // the control-word barrier every classic slot ends with
	for ph := Phase(0); ph < numPhases; ph++ {
		for i := range pc.plan[ph] {
			seg := &pc.plan[ph][i]
			if seg.units != nil {
				seg.barBefore = pendingSerial || pendingPar
				if seg.barBefore {
					crossings++
					sync()
				}
				pendingPar = true
				if seg.anyFin {
					crossings++
					sync() // the internal post-shard barrier
					pendingSerial = true
				}
			} else {
				seg.barBefore = pendingPar
				if seg.barBefore {
					crossings++
					sync()
				}
				pendingSerial = true
			}
		}
	}
	pc.ctrlBar = pendingPar
	if pc.ctrlBar {
		crossings++
	}
	pc.slotCrossings = crossings
	pc.hplan = buildHorizons(pc.hplan, pc.tickers)
	pc.compileEpochs(maxShards)

	pc.workers = pc.cfgWorkers
	if maxShards == 0 {
		pc.workers = 1 // no shard work: a pool would only add barriers
	} else if pc.cfgWorkers == WorkersAuto {
		// A batchable plan pays the barrier tax once per episode rather
		// than once per slot, so it profits from workers at much
		// narrower shard counts.
		threshold := autoSerialShards
		if pc.batchable && pc.epochCap() > 1 {
			threshold = autoEpochSerialShards
		}
		if maxShards >= threshold {
			pc.workers = runtime.GOMAXPROCS(0)
		} else {
			pc.workers = 1
		}
	}
	for ph := Phase(0); ph < numPhases; ph++ {
		for i := range pc.plan[ph] {
			if seg := &pc.plan[ph][i]; seg.units != nil {
				seg.cuts = make([]int, pc.workers+1)
				for w := range seg.cuts {
					seg.cuts[w] = w * seg.total / pc.workers
				}
			}
		}
	}
	pc.planned = true
}

// compileEpochs derives the batchability predicate and the episode
// finalizer list from the compiled plan. A plan batches when every
// scheduled step is shard work (no serial segments in any phase) by
// components declaring global shard closure (EpochSafeTicker reporting
// true) whose finalizers, if any, can reconstruct the serial fold over
// a slot range (EpochFinisher).
func (pc *ParallelClock) compileEpochs(maxShards int) {
	pc.epochFins = pc.epochFins[:0]
	pc.batchable = false
	if maxShards == 0 {
		return // nothing parallel to batch
	}
	for ph := Phase(0); ph < numPhases; ph++ {
		for i := range pc.plan[ph] {
			if pc.plan[ph][i].serial != nil {
				return
			}
		}
	}
	// No serial segments anywhere, so every scheduled ticker is one of
	// the plan's parUnits; vet each once (not once per phase).
	for i := range pc.tickers {
		e := &pc.tickers[i]
		if maskOf(e.t) == 0 {
			continue // never scheduled
		}
		es, ok := e.t.(EpochSafeTicker)
		if !ok || !es.EpochSafe() {
			return
		}
		if fin, hasFin := e.t.(ShardFinalizer); hasFin {
			ef, canEpoch := fin.(EpochFinisher)
			if !canEpoch {
				return
			}
			pc.epochFins = append(pc.epochFins, epochFin{f: ef, id: e.id})
		}
	}
	pc.batchable = true
}

// epochCap resolves the configured episode length bound.
func (pc *ParallelClock) epochCap() int64 {
	switch {
	case pc.epochK == EpochAuto:
		return epochAutoK
	case pc.epochK < 2:
		return 1
	default:
		return int64(pc.epochK)
	}
}

// runShards executes the global shard range [lo, hi) of a merged
// parallel segment, skipping parked units.
func (seg *segment) runShards(t Slot, ph Phase, lo, hi int) {
	for _, u := range seg.units {
		if lo >= u.offset+u.shards || hi <= u.offset {
			continue
		}
		if u.id.Parked() {
			continue
		}
		s, e := lo-u.offset, hi-u.offset
		if s < 0 {
			s = 0
		}
		if e > u.shards {
			e = u.shards
		}
		for i := s; i < e; i++ {
			u.s.TickShard(t, ph, i)
		}
	}
}

// finish runs the live units' finalizers in registration order.
func (seg *segment) finish(t Slot, ph Phase) {
	for _, u := range seg.units {
		if u.fin != nil && !u.id.Parked() {
			u.fin.FinishShards(t, ph)
		}
	}
}

// jump advances the clock over the quiescent stretch ending at the
// global next-event slot, bounded by budget, returning the slots
// skipped. Must run single-threaded between fully settled episodes (in
// decide).
func (pc *ParallelClock) jump(budget int64) int64 {
	h := foldHorizons(pc.hplan, pc.now)
	if h <= pc.now {
		return 0
	}
	n := int64(h - pc.now)
	if h == HorizonNone || n > budget || n < 0 {
		n = budget
	}
	pc.now += Slot(n)
	pc.slotsRun += n
	pc.jumps++
	return n
}

// Step executes exactly one slot: Run(1).
func (pc *ParallelClock) Step() { pc.Run(1) }

// Run executes up to n slots, stopping early if Stop is called. It
// returns the number of slots actually executed (including, under
// skip-ahead, slots jumped over as provably quiescent).
func (pc *ParallelClock) Run(n int64) int64 {
	pc.stopped.Store(false)
	return pc.run(n, nil)
}

// RunUntil executes slots until pred returns true (checked between
// slots, single-threaded) or the budget is exhausted. It returns the
// number of slots executed and whether pred was satisfied. The per-slot
// predicate check forces slot-at-a-time execution: epoch batching is
// bypassed for the duration of the call.
//
// Under skip-ahead, pred sees the state a dense run would: no component
// state changes across a skipped stretch. A pred on Now() alone is the
// one shape that can observe a jump — don't pair it with skip-ahead.
func (pc *ParallelClock) RunUntil(pred func() bool, budget int64) (int64, bool) {
	done := pc.run(budget, pred)
	return done, pred()
}

// run executes one Run or RunUntil: worker 0 takes the first decision
// on the caller, then every worker runs the episode loop. One worker
// runs it directly, so a panic unwinds to the caller untouched; a pool
// run releases the gate and recovers panics (see runPool).
func (pc *ParallelClock) run(n int64, pred func() bool) int64 {
	if !pc.planned {
		pc.compile()
	}
	p := pc.ensurePool()
	pc.runN, pc.runDone, pc.runPred = n, 0, pred
	pc.batched = pc.workers > 1 && pc.batchable && pred == nil && pc.epochCap() > 1
	if pc.decide() {
		if p.n == 1 {
			pc.episodes(0, &p.bar, &pc.sense0)
		} else {
			pc.runPool(p)
		}
	}
	return pc.runDone
}

// decide is worker 0's one decision, taken before the first episode and
// at every settle, while the other workers wait at a barrier. In order:
// the RunUntil predicate (or, in a Run, Stop) ends the run; skip-ahead
// jumps over the quiescent stretch ahead, within the budget; an
// exhausted budget ends the run; otherwise it sizes the next episode
// (one slot, or in a batched run the cap truncated to the budget, so
// episodes never span a Run call) and reports that one runs.
func (pc *ParallelClock) decide() bool {
	if pc.runPred != nil {
		if pc.runPred() {
			return false
		}
	} else if pc.stopped.Load() {
		return false
	}
	if pc.skipAhead && pc.runDone < pc.runN {
		pc.runDone += pc.jump(pc.runN - pc.runDone)
	}
	if pc.runDone >= pc.runN {
		return false
	}
	pc.epochLen = 1
	if pc.batched {
		pc.epochLen = int(min(pc.epochCap(), pc.runN-pc.runDone))
	}
	return true
}

// Close retires the persistent worker pool. It is optional — an
// abandoned clock's workers stay blocked on a condition variable and
// cost no CPU — but lets tests and benchmarks keep the goroutine count
// flat. The clock remains usable; the next run respawns the pool.
func (pc *ParallelClock) Close() {
	p := pc.pool
	if p == nil {
		return
	}
	pc.pool = nil
	p.stop = true
	p.bar.await(0, &pc.sense0) // release the gate so workers observe stop
	p.wg.Wait()
}

// barrierShape resolves the configured tree arity and spin bound for
// the current worker count.
func (pc *ParallelClock) barrierShape() (arity, spins int) {
	arity = pc.cfgArity
	if arity == 0 {
		arity = pickArity(pc.workers)
	}
	spins = pc.cfgSpins
	if spins == 0 {
		spins = defaultBarrierSpins
	}
	return arity, spins
}

// ensurePool returns a worker pool sized and shaped for the current
// plan, retiring a stale one first. At one worker the pool is one
// barrier node and no goroutine.
func (pc *ParallelClock) ensurePool() *workerPool {
	arity, spins := pc.barrierShape()
	if p := pc.pool; p != nil && p.n == pc.workers && p.arity == arity && p.spins == spins {
		return p
	}
	pc.Close()
	p := &workerPool{n: pc.workers, arity: arity, spins: spins}
	p.bar.init(pc.workers, arity, spins)
	pc.sense0 = 0
	pc.pool = p
	p.wg.Add(pc.workers - 1)
	for w := 1; w < pc.workers; w++ {
		go pc.workerLoop(p, w)
	}
	return p
}

// poisonedBarrier is the sentinel panic a worker raises when it
// observes that another worker has already panicked; the original
// panic value is re-raised on the caller's goroutine.
type poisonedBarrier struct{}

// recordPanic keeps the first real panic value; sentinel re-panics from
// poisoned barriers are discarded.
func (pc *ParallelClock) recordPanic(r any) {
	if _, sentinel := r.(poisonedBarrier); sentinel {
		return
	}
	pc.panicMu.Lock()
	if pc.panicVal == nil {
		pc.panicVal = r
	}
	pc.panicMu.Unlock()
}

// episodes is the SPMD episode loop every worker runs, at every worker
// count. An episode covers epochLen slots from pc.now. In a per-slot run
// (epochLen is 1) barriers follow the compiled placement, identically on
// every worker, and worker 0 alone runs serial segments and finalizers.
// In a batched run the plan is all EpochSafe shard work, so each worker
// ticks its shard range through every phase of every slot with no
// synchronization at all: nothing a worker computes is visible to
// another worker's shards until the episode settles. Either way the
// episode ends with the settle crossing (skipped by a per-slot episode
// whose last work was serial), worker 0's bookkeeping and decision, and
// the control-word crossing. A lone worker has nobody to wait for, so
// on a one-node barrier the loop makes no barrier call at all.
func (pc *ParallelClock) episodes(w int, bar *treeBarrier, sense *uint64) {
	pool := len(bar.nodes) > 1
	for {
		from, to := pc.now, pc.now+Slot(pc.epochLen)
		perSlot := !pc.batched
		for t := from; t < to; t++ {
			for ph := Phase(0); ph < numPhases; ph++ {
				for i := range pc.plan[ph] {
					seg := &pc.plan[ph][i]
					if pool && perSlot && seg.barBefore {
						bar.await(w, sense)
					}
					if seg.serial != nil {
						if w == 0 {
							for _, e := range seg.serial {
								if !e.id.Parked() {
									e.t.Tick(t, ph)
								}
							}
						}
						continue
					}
					seg.runShards(t, ph, seg.cuts[w], seg.cuts[w+1])
					if perSlot && seg.anyFin {
						if pool {
							bar.await(w, sense)
						}
						if w == 0 {
							seg.finish(t, ph)
						}
					}
				}
			}
		}
		if pool && (!perSlot || pc.ctrlBar) {
			bar.await(w, sense) // settle: the episode's work is done everywhere
		}
		if w == 0 {
			pc.settle(from, to)
			pc.cont = pc.decide()
		}
		if pool {
			bar.await(w, sense) // control word (and any jump) published
		}
		if !pc.cont {
			return
		}
	}
}

// settle is worker 0's bookkeeping for the settled episode [from, to):
// the episode finalizers of a batched run, then the clock and the
// counters. Crossings and episodes are counted for pool runs only.
func (pc *ParallelClock) settle(from, to Slot) {
	if pc.batched {
		for _, f := range pc.epochFins {
			if !f.id.Parked() {
				f.f.FinishEpoch(from, to)
			}
		}
	}
	n := int64(to - from)
	pc.now = to
	pc.slotsRun += n
	pc.slotsFired += n
	pc.runDone += n
	if pc.workers > 1 {
		pc.epochs++
		if pc.batched {
			pc.crossings += 2
		} else {
			pc.crossings += int64(pc.slotCrossings)
		}
	}
}

// workerLoop is the persistent worker body: park on the pool gate, run
// the episode loop, repeat — until the pool is retired or poisoned.
// p.stop may only be read right after the gate barrier (the owner writes
// it before arriving there): checking it anywhere else races with Close
// — a worker still waking from a run's final barrier could observe the
// flag and exit without its gate arrival, deadlocking the owner's
// gather.
func (pc *ParallelClock) workerLoop(p *workerPool, w int) {
	defer p.wg.Done()
	var sense uint64
	for {
		stop, broken := func() (stop, broken bool) {
			defer func() {
				if r := recover(); r != nil {
					pc.recordPanic(r)
					p.bar.poisonAndWake()
					broken = true
				}
			}()
			p.bar.await(w, &sense) // gate: owner arrives to start a run
			if p.stop {
				return true, false
			}
			pc.episodes(w, &p.bar, &sense)
			return false, false
		}()
		if stop || broken {
			return
		}
	}
}

// runPool runs the episode loop on the persistent pool: the caller
// becomes worker 0, releases the gate, and walks the same loop as the
// workers. On a panic anywhere the barrier is poisoned, every worker
// unwinds, the pool is discarded, and the original panic value is
// re-raised on the caller.
func (pc *ParallelClock) runPool(p *workerPool) {
	pc.panicVal = nil
	func() {
		defer func() {
			if r := recover(); r != nil {
				pc.recordPanic(r)
				p.bar.poisonAndWake()
			}
		}()
		p.bar.await(0, &pc.sense0) // release the gate
		pc.episodes(0, &p.bar, &pc.sense0)
	}()
	if p.bar.poison.Load() {
		p.wg.Wait()
		pc.pool = nil
		panic(fmt.Sprintf("sim: worker panic during parallel run at slot %d: %v", pc.now, pc.panicVal))
	}
}
