package cache

import (
	"fmt"

	"cfm/internal/consistency"
	"cfm/internal/memory"
	"cfm/internal/sim"
)

// Ordering selects the memory-ordering discipline a processor front-end
// enforces over the cache protocol — the §2.2 spectrum made executable.
type Ordering int

// Ordering disciplines.
const (
	// StrictOrder issues one access at a time in program order:
	// sequential consistency (Condition 2.1).
	StrictOrder Ordering = iota
	// BufferedOrder retires stores through a FIFO write buffer that
	// loads may bypass: processor consistency (Condition 2.2) — loads
	// can perform before earlier stores, stores stay in issue order.
	BufferedOrder
	// WeakOrder additionally lets ordinary accesses between
	// synchronization points drain in any order; Sync drains everything
	// first: weak consistency (Condition 2.3).
	WeakOrder
	// ReleaseOrder splits synchronization into acquire and release
	// halves: a release waits for previous ordinary accesses but later
	// ordinary accesses need not wait for it, and an acquire blocks
	// later accesses without waiting for earlier ordinary ones: release
	// consistency (Condition 2.4).
	ReleaseOrder
)

// String names the ordering.
func (o Ordering) String() string {
	switch o {
	case StrictOrder:
		return "strict"
	case BufferedOrder:
		return "buffered"
	case WeakOrder:
		return "weak"
	default:
		return "release"
	}
}

// Frontend is one processor's issue logic: it accepts a program-order
// stream of loads, stores, and synchronization accesses, applies the
// configured ordering discipline over the cache protocol, and records
// every access as a consistency.Op stamped with its performed time — so
// the resulting execution can be checked against the Chapter 2 models.
type Frontend struct {
	//cfm:no-save shared *Protocol wiring; the protocol checkpoints itself
	c    *Protocol
	clk  sim.Timebase
	proc int
	mode Ordering

	nextIndex int
	// program is the queue of not-yet-issued program-order entries.
	program sim.Queue[feOp]
	// storeBuf holds issued-but-unperformed stores (write buffer).
	storeBuf []feOp
	// busy marks an in-flight access that blocks the program.
	busy bool

	// pending is the operation whose completion callback will clear busy
	// and record it; pendingRel is the in-flight release (releases do not
	// set busy, but the protocol's per-processor FIFO admits only one at a
	// time). Keeping them in fields lets the three done callbacks below be
	// allocated once instead of once per issued access.
	pending    feOp
	pendingRel feOp
	doneLoad   func(memory.Block)
	donePlain  func(memory.Block)
	doneRel    func(memory.Block)

	// id is the enclosing FrontendGroup's parking handle (shared by all
	// members; nil while the group is unregistered).
	id *sim.Idler

	// Ops accumulates the execution for consistency checking.
	Ops []consistency.Op
}

// feOp is one program-order operation.
type feOp struct {
	index  int
	kind   consistency.OpKind
	offset int
	word   int
	value  memory.Word
	done   func(memory.Word)
}

// NewFrontend attaches a front-end for processor proc. clk is any
// timebase (serial or parallel engine). A front-end is not a ticker:
// bundle it into a FrontendGroup and register the group on the clock
// BEFORE the protocol.
func NewFrontend(c *Protocol, clk sim.Timebase, proc int, mode Ordering) *Frontend {
	f := &Frontend{c: c, clk: clk, proc: proc, mode: mode}
	f.doneLoad = func(b memory.Block) {
		f.busy = false
		op := f.pending
		f.record(op, f.clk.Now())
		if op.done != nil {
			op.done(b[op.word])
		}
	}
	f.donePlain = func(memory.Block) {
		f.busy = false
		f.record(f.pending, f.clk.Now())
	}
	f.doneRel = func(memory.Block) {
		f.record(f.pendingRel, f.clk.Now())
	}
	c.fes[proc] = f // checkpoint restore rebinds request tags through this
	return f
}

// Load appends a program-order load of one word.
func (f *Frontend) Load(offset, word int, done func(memory.Word)) {
	f.id.Wake()
	f.program.Push(feOp{index: f.next(), kind: consistency.Load,
		offset: offset, word: word, done: done})
}

// Store appends a program-order word store.
func (f *Frontend) Store(offset, word int, v memory.Word) {
	f.id.Wake()
	f.program.Push(feOp{index: f.next(), kind: consistency.Store,
		offset: offset, word: word, value: v})
}

// Sync appends a synchronization access (an atomic RMW on the given
// block); under every discipline it waits for all previous accesses and
// blocks later ones.
func (f *Frontend) Sync(offset int) {
	f.id.Wake()
	f.program.Push(feOp{index: f.next(), kind: consistency.Sync, offset: offset})
}

// Acquire appends an acquire synchronization access (§2.2.4): later
// accesses wait for it, but it need not wait for earlier ordinary
// accesses. Meaningful under ReleaseOrder; other disciplines treat it as
// a full Sync.
func (f *Frontend) Acquire(offset int) {
	f.id.Wake()
	f.program.Push(feOp{index: f.next(), kind: consistency.Acquire, offset: offset})
}

// Release appends a release synchronization access (§2.2.4): it waits
// for earlier ordinary accesses, but later ordinary accesses need not
// wait for it. Meaningful under ReleaseOrder; other disciplines treat it
// as a full Sync.
func (f *Frontend) Release(offset int) {
	f.id.Wake()
	f.program.Push(feOp{index: f.next(), kind: consistency.Release_, offset: offset})
}

func (f *Frontend) next() int {
	i := f.nextIndex
	f.nextIndex++
	return i
}

// Idle reports whether everything issued has performed.
func (f *Frontend) Idle() bool {
	return f.program.Empty() && len(f.storeBuf) == 0 && !f.busy && !f.c.Busy(f.proc)
}

// quiescent reports whether this front-end has nothing left to ISSUE: the
// parking condition. Unlike Idle it ignores the protocol side — a parked
// group needs no ticks while an access completes, because completion
// happens in the protocol's own slot phases, not in front-end ticks.
func (f *Frontend) quiescent() bool {
	return f.program.Empty() && len(f.storeBuf) == 0 && !f.busy
}

// horizon is this member's contribution to the group's sim.Horizoner
// answer. A quiescent front-end has nothing to issue; a busy one cannot
// issue until its in-flight request completes, and that request is
// outstanding inside the protocol, whose own horizon pins every slot at
// which it can complete — so neither needs a wake-up of its own. Only a
// front-end that could issue on the next tick pins the clock.
func (f *Frontend) horizon(now sim.Slot) sim.Slot {
	if f.busy || f.quiescent() {
		return sim.HorizonNone
	}
	return now
}

// tick decides, in each slot's issue phase, what to issue next under
// the ordering discipline.
func (f *Frontend) tick(t sim.Slot) {
	// Drain the write buffer when the program has nothing ready to
	// overtake it (letting stores accumulate is what buys the loads
	// their bypass — and, under WeakOrder, what exposes the reordering).
	if !f.busy && len(f.storeBuf) > 0 && !f.c.Busy(f.proc) && f.program.Empty() {
		f.issueBufferedStore(t)
		return
	}
	if f.busy || f.program.Empty() {
		return
	}
	op := *f.program.Peek()
	switch op.kind {
	case consistency.Load:
		f.issueLoad(t, op)
	case consistency.Store:
		f.issueStore(t, op)
	case consistency.Sync:
		f.issueSync(t, op)
	case consistency.Acquire:
		if f.mode == ReleaseOrder {
			f.issueAcquire(t, op)
		} else {
			f.issueSync(t, op)
		}
	case consistency.Release_:
		if f.mode == ReleaseOrder {
			f.issueRelease(t, op)
		} else {
			f.issueSync(t, op)
		}
	}
}

// issueAcquire performs the acquire half: it gates LATER accesses (it is
// at the program head, so nothing later has issued) but does NOT drain
// the write buffer — earlier ordinary stores may still perform after it
// (Condition 2.4 allows it).
func (f *Frontend) issueAcquire(t sim.Slot, op feOp) {
	f.program.Pop()
	f.busy = true
	f.pending = op
	f.c.push(f.proc, request{isStore: true, borrow: true, offset: op.offset,
		modify: identityBlock, done: f.donePlain, cb: cbFEPlain, mod: modIdentity})
}

// issueRelease performs the release half: it waits for every earlier
// ordinary access (drains the buffer first), but the program continues
// past it without waiting — later accesses are issued as soon as the
// release is IN FLIGHT, modelling the §2.2.4 "ordinary accesses following
// a release do not have to wait for the release to complete".
func (f *Frontend) issueRelease(t sim.Slot, op feOp) {
	if len(f.storeBuf) > 0 || f.busy || f.c.Busy(f.proc) {
		if !f.busy && len(f.storeBuf) > 0 && !f.c.Busy(f.proc) {
			f.issueBufferedStore(t)
		}
		return
	}
	f.program.Pop()
	// The release itself enters the protocol, but the front-end does NOT
	// mark itself busy: the next program entries may overtake it. The
	// cache protocol serializes per-processor requests FIFO, so loads
	// after the release still queue behind it at the protocol level; the
	// overtaking that matters for Condition 2.4 — buffered stores issued
	// later performing before the release would — is exercised by the
	// write buffer, which keeps absorbing stores while the release runs.
	f.pendingRel = op
	f.c.push(f.proc, request{isStore: true, borrow: true, offset: op.offset,
		modify: identityBlock, done: f.doneRel, cb: cbFERel, mod: modIdentity})
}

func (f *Frontend) record(op feOp, performedAt sim.Slot) {
	f.Ops = append(f.Ops, consistency.Op{
		Proc: f.proc, Index: op.index, Kind: op.kind, Addr: op.offset,
		PerformedAt:         int64(performedAt),
		GloballyPerformedAt: int64(performedAt),
	})
}

func (f *Frontend) issueLoad(t sim.Slot, op feOp) {
	// Store forwarding: a buffered store to the same word satisfies the
	// load without a memory access (and without ordering it after the
	// store's eventual performance — the PC/WC relaxation).
	if f.mode != StrictOrder {
		for i := len(f.storeBuf) - 1; i >= 0; i-- {
			sb := &f.storeBuf[i]
			if sb.offset == op.offset && sb.word == op.word {
				f.program.Pop()
				f.record(op, t)
				if op.done != nil {
					op.done(sb.value)
				}
				return
			}
		}
	}
	if f.mode == StrictOrder && len(f.storeBuf) > 0 {
		// SC: the load must wait for earlier stores; leave it queued.
		return
	}
	f.program.Pop()
	f.busy = true
	f.pending = op
	f.c.push(f.proc, request{borrow: true, offset: op.offset, done: f.doneLoad, cb: cbFELoad})
}

func (f *Frontend) issueStore(t sim.Slot, op feOp) {
	f.program.Pop()
	switch f.mode {
	case StrictOrder:
		f.busy = true
		f.pending = op
		f.c.push(f.proc, request{isStore: true, borrow: true, offset: op.offset,
			word: op.word, value: op.value, done: f.donePlain, cb: cbFEPlain})
	default:
		// Enter the write buffer; performance happens at drain.
		f.storeBuf = append(f.storeBuf, op)
	}
}

// issueBufferedStore drains one store from the buffer: FIFO under
// BufferedOrder (stores observed in issue order, Condition 2.2), oldest-
// last under WeakOrder and ReleaseOrder to make the reordering freedom
// visible.
func (f *Frontend) issueBufferedStore(t sim.Slot) {
	var idx int
	switch f.mode {
	case WeakOrder, ReleaseOrder:
		idx = len(f.storeBuf) - 1 // drain LIFO: deliberate reorder
	default:
		idx = 0
	}
	op := f.storeBuf[idx]
	f.storeBuf = append(f.storeBuf[:idx], f.storeBuf[idx+1:]...)
	f.busy = true
	f.pending = op
	f.c.push(f.proc, request{isStore: true, borrow: true, offset: op.offset,
		word: op.word, value: op.value, done: f.donePlain, cb: cbFEPlain})
}

func (f *Frontend) issueSync(t sim.Slot, op feOp) {
	// A synchronization access waits for every previous access: the
	// write buffer must be empty and nothing in flight.
	if len(f.storeBuf) > 0 || f.busy || f.c.Busy(f.proc) {
		if !f.busy && len(f.storeBuf) > 0 && !f.c.Busy(f.proc) {
			f.issueBufferedStore(t)
		}
		return
	}
	f.program.Pop()
	f.busy = true
	f.pending = op
	f.c.push(f.proc, request{isStore: true, borrow: true, offset: op.offset,
		modify: identityBlock, done: f.donePlain, cb: cbFEPlain, mod: modIdentity})
}

// identityBlock is the no-op RMW body used by synchronization accesses:
// allocated once so sync issue stays allocation-free. Returning the input
// unchanged is borrow-safe by construction.
func identityBlock(b memory.Block) memory.Block { return b }

// FrontendGroup bundles the per-processor front-ends of one machine into
// a single sim.Shardable, one shard per processor. Each front-end's
// issue logic touches only its own program/buffer state and its own
// processor's request queue inside the cache protocol (Protocol.Load/
// Store/RMW append to reqs[proc]; Busy reads per-processor state), so
// distinct front-ends are conflict-free and the parallel engine may tick
// them concurrently. Register the group on the clock BEFORE the
// protocol; it is the only way to tick front-ends.
type FrontendGroup struct {
	fes []*Frontend
	id  *sim.Idler
}

// NewFrontendGroup bundles front-ends; shard i ticks fes[i].
func NewFrontendGroup(fes ...*Frontend) *FrontendGroup {
	return &FrontendGroup{fes: fes}
}

// Frontend returns member i.
func (g *FrontendGroup) Frontend(i int) *Frontend { return g.fes[i] }

// Tick implements sim.Ticker by delegating to the shard path.
func (g *FrontendGroup) Tick(t sim.Slot, ph sim.Phase) { sim.SerialTick(g, t, ph) }

// PhaseMask implements sim.PhaseMasker: front-ends only issue.
func (g *FrontendGroup) PhaseMask() sim.PhaseMask { return sim.MaskOf(sim.PhaseIssue) }

// BindIdler implements sim.Parker. Every member shares the group's
// handle, so appending work to any front-end wakes the whole group.
func (g *FrontendGroup) BindIdler(id *sim.Idler) {
	g.id = id
	for _, f := range g.fes {
		f.id = id
	}
}

// Horizon implements sim.Horizoner: the earliest member issue
// opportunity. Members whose progress is gated on the protocol
// (busy front-ends) contribute nothing — the protocol's horizon
// covers them, and the member re-pins the clock the moment its
// completion callback clears busy.
func (g *FrontendGroup) Horizon(now sim.Slot) sim.Slot {
	h := sim.HorizonNone
	for _, f := range g.fes {
		if v := f.horizon(now); v < h {
			h = v
			if h <= now {
				break
			}
		}
	}
	if h < now {
		return now
	}
	return h
}

// Shards implements sim.Shardable: one shard per front-end.
func (g *FrontendGroup) Shards() int { return len(g.fes) }

// TickShard implements sim.Shardable.
func (g *FrontendGroup) TickShard(t sim.Slot, ph sim.Phase, s int) {
	if ph == sim.PhaseIssue {
		g.fes[s].tick(t)
	}
}

// FinishShards implements sim.ShardFinisher: once every member has
// nothing left to issue, the group parks. This is the serial epilogue of
// the group's tick (parking from TickShard would race); completion
// callbacks run in the PROTOCOL's phases, so a parked group never stalls
// in-flight accesses, and any new program entry wakes it via the shared
// idler handle.
func (g *FrontendGroup) FinishShards(t sim.Slot, ph sim.Phase) {
	for _, f := range g.fes {
		if !f.quiescent() {
			return
		}
	}
	g.id.Park()
}

// Execution assembles the recorded operations (from any number of
// front-ends) into a checkable execution.
func Execution(fes ...*Frontend) *consistency.Execution {
	e := &consistency.Execution{}
	for _, f := range fes {
		e.Ops = append(e.Ops, f.Ops...)
	}
	return e
}

// mustOrdering validates an ordering value (used by tests and the CLI).
func mustOrdering(o Ordering) {
	if o < StrictOrder || o > ReleaseOrder {
		panic(fmt.Sprintf("cache: unknown ordering %d", o))
	}
}
