// Package att implements the address tracking mechanism of Chapter 4,
// which restores data consistency to the Conflict-Free Memory's
// uncoordinated block accesses and supports atomic operations.
//
// Each memory bank has an Address Tracking Table (ATT): an associative
// queue of m−1 entries that shifts one position per time slot. A
// write-class operation inserts its address offset at the head of the ATT
// of the FIRST bank it accesses (and conceptually a blank everywhere
// else), so the entry at age j in bank B's ATT records the write that
// started at B exactly j slots ago — which, because every operation
// advances one bank per slot, is precisely the operation currently
// updating bank B+j.
//
// Before updating each bank, a write compares its offset with a subset of
// that bank's ATT:
//
//   - Plain-write mode (latest issued wins, §4.1.2): the first n entries
//     before the write has updated bank 0, the first n−1 after, where n is
//     the number of banks already updated. A hit means a same-block write
//     issued later (or simultaneously, losing the bank-0 tie-break)
//     exists, so the current write aborts — its data would be overwritten
//     anyway. Exactly one competing write completes.
//
//   - Swap mode (earliest issued wins, §4.2.1): the complementary subset
//     (entries older than n, including the simultaneous entry only until
//     bank 0 is passed), so a write detects competitors issued EARLIER.
//     A plain write that detects a swap's write restarts; a swap that
//     detects any write restarts its whole read-modify-write cycle.
//
// A read compares its offset against ALL entries of every bank it visits
// and restarts from the current bank on any hit, which guarantees the
// block it returns is a single consistent version (§4.1.2, Fig. 4.5).
package att

import (
	"fmt"

	"cfm/internal/flight"
	"cfm/internal/memory"
	"cfm/internal/metrics"
	"cfm/internal/sim"
)

// Priority selects which of two competing same-address writes survives.
type Priority int

// Priority modes.
const (
	// LatestWins is the plain data-consistency mode of §4.1.2: the last
	// issued write completes; earlier ones abort.
	LatestWins Priority = iota
	// EarliestWins is the atomic-operation mode of §4.2.1: the first
	// issued operation completes; later ones restart or abort.
	EarliestWins
)

// OpKind identifies a tracked memory operation.
type OpKind int

// Operation kinds.
const (
	OpWrite OpKind = iota
	OpRead
	OpSwap
)

// String names the kind.
func (k OpKind) String() string {
	switch k {
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	default:
		return "swap"
	}
}

// Outcome reports how a tracked operation ended.
type Outcome int

// Operation outcomes.
const (
	// Completed: the operation performed its full block access.
	Completed Outcome = iota
	// Aborted: a write detected a competing write with priority and gave
	// up (its block would have been overwritten anyway).
	Aborted
)

// Result is delivered to an operation's completion callback.
type Result struct {
	Outcome  Outcome
	Block    memory.Block // data read (reads and swaps); nil for writes
	Restarts int          // how many times the operation restarted
	At       sim.Slot     // slot at which the operation finished
}

// entry is one ATT row. Blank rows are simply absent (the queue stores
// only the inserted offsets with their ages).
type entry struct {
	valid  bool
	offset int
	swap   bool // inserted by the write phase of a swap
}

// phase of an in-flight operation.
type opPhase int

const (
	phaseWrite opPhase = iota // write or swap write phase
	phaseRead                 // read or swap read phase
)

// op is one in-flight tracked operation.
type op struct {
	kind    OpKind
	proc    int
	offset  int
	started sim.Slot // issue slot of the CURRENT attempt (for writes: this phase)
	issued  sim.Slot // original issue slot (priority is judged by phase start)

	phase    opPhase
	n        int  // banks processed in the current phase/attempt
	passed0  bool // has updated bank 0 in the current write attempt
	buf      memory.Block
	writeBuf memory.Block
	modify   func(memory.Block) memory.Block
	restarts int
	done     func(Result)
}

// Tracked is a conflict-free memory with address tracking: m banks
// (bank cycle 1, one processor per AT-space division, as in the Chapter 4
// exposition), each with an (m−1)-entry ATT. It implements sim.Ticker.
type Tracked struct {
	m   int
	pri Priority
	ar  *memory.BankArena // SoA bank state
	att [][]entry         // att[bank][i]: entry of age i+1 at compare time
	// pending insertions made during this slot's transfers, applied at
	// the ATT shift in PhaseUpdate.
	pending []entry
	ops     []*op // one per processor, nil when idle
	trace   *sim.Trace

	// Checkpoint rebinder (see SetModifyRebinder): the modify body of a
	// restored in-flight swap is rebuilt through it.
	modifyRebind func(proc, offset int) func(memory.Block) memory.Block

	// Statistics.
	CompletedWrites int64
	AbortedWrites   int64
	CompletedReads  int64
	CompletedSwaps  int64
	Restarts        int64

	// Registry handles (nil when unobserved) plus the counter values at
	// the last flush; flushMetrics adds the deltas once per slot from
	// Tick's PhaseUpdate (a serial context — deterministic on both
	// engines).
	mWrites, mAborts, mReads, mSwaps, mRestarts int64
	cWrites, cAborts, cReads, cSwaps, cRestarts *metrics.Counter

	// Flight recorder (nil when unobserved). Tracked is a serial ticker,
	// so it emits directly; an operation's span ID is ComposeID of its
	// processor and its original issue slot, both persisted in op.
	flt *flight.Recorder
}

// NewTracked builds a tracked memory with m banks. trace may be nil.
func NewTracked(m int, pri Priority, trace *sim.Trace) *Tracked {
	if m < 2 {
		panic(fmt.Sprintf("att: need >=2 banks, got %d", m))
	}
	return &Tracked{
		m:       m,
		pri:     pri,
		ar:      memory.NewBankArena(m, 1),
		att:     make([][]entry, m),
		pending: make([]entry, m),
		ops:     make([]*op, m),
		trace:   trace,
	}
}

// Instrument attaches registry counters for the tracked memory's
// statistics plus shared access/conflict counters on all its banks.
// Call before running; a nil registry leaves the memory unobserved.
func (tr *Tracked) Instrument(r *metrics.Registry) {
	if r == nil {
		return
	}
	tr.cWrites = r.Counter("att_completed_writes_total")
	tr.cAborts = r.Counter("att_aborted_writes_total")
	tr.cReads = r.Counter("att_completed_reads_total")
	tr.cSwaps = r.Counter("att_completed_swaps_total")
	tr.cRestarts = r.Counter("att_restarts_total")
	acc := r.Counter("att_bank_accesses_total")
	conf := r.Counter("att_bank_conflicts_total")
	for i := 0; i < tr.m; i++ {
		tr.ar.Observe(i, acc, conf)
	}
}

// RecordFlight attaches a flight recorder: each tracked operation spans
// from its issue to its finish, with an ATT-retry event per restart and
// an ATT-defer event when a plain write defers to a swap. Call before
// running; nil detaches.
func (tr *Tracked) RecordFlight(r *flight.Recorder) { tr.flt = r }

// flushMetrics pushes the statistics accumulated since the last flush
// into the registry, once per slot from Tick's PhaseUpdate.
func (tr *Tracked) flushMetrics() {
	if tr.cWrites == nil {
		return
	}
	tr.cWrites.Add(tr.CompletedWrites - tr.mWrites)
	tr.cAborts.Add(tr.AbortedWrites - tr.mAborts)
	tr.cReads.Add(tr.CompletedReads - tr.mReads)
	tr.cSwaps.Add(tr.CompletedSwaps - tr.mSwaps)
	tr.cRestarts.Add(tr.Restarts - tr.mRestarts)
	tr.mWrites, tr.mAborts, tr.mReads = tr.CompletedWrites, tr.AbortedWrites, tr.CompletedReads
	tr.mSwaps, tr.mRestarts = tr.CompletedSwaps, tr.Restarts
}

// Banks returns m.
func (tr *Tracked) Banks() int { return tr.m }

// Priority returns the configured priority mode.
func (tr *Tracked) Priority() Priority { return tr.pri }

// Busy reports whether processor p has an operation in flight.
func (tr *Tracked) Busy(p int) bool { return tr.ops[p] != nil }

// PeekBlock reads a block without simulated timing.
func (tr *Tracked) PeekBlock(offset int) memory.Block {
	b := make(memory.Block, tr.m)
	for i := range b {
		b[i] = tr.ar.Peek(i, offset)
	}
	return b
}

// PokeBlock writes a block without simulated timing.
func (tr *Tracked) PokeBlock(offset int, blk memory.Block) {
	if len(blk) != tr.m {
		panic(fmt.Sprintf("att: block of %d words, want %d", len(blk), tr.m))
	}
	for i := range blk {
		tr.ar.Poke(i, offset, blk[i])
	}
}

// StartWrite begins a plain block write by processor p at slot t.
func (tr *Tracked) StartWrite(t sim.Slot, p, offset int, data memory.Block, done func(Result)) {
	if len(data) != tr.m {
		panic(fmt.Sprintf("att: write block of %d words, want %d", len(data), tr.m))
	}
	tr.begin(p, &op{kind: OpWrite, proc: p, offset: offset, started: t, issued: t,
		phase: phaseWrite, writeBuf: data.Clone(), done: done})
}

// StartRead begins a block read by processor p at slot t.
func (tr *Tracked) StartRead(t sim.Slot, p, offset int, done func(Result)) {
	tr.begin(p, &op{kind: OpRead, proc: p, offset: offset, started: t, issued: t,
		phase: phaseRead, buf: make(memory.Block, tr.m), done: done})
}

// StartSwap begins an atomic read-modify-write by processor p at slot t:
// the block is read, modify maps the old block to the new one, and the
// result is written back, atomically with respect to all other tracked
// operations. Swap, test-and-set, and fetch-and-add are special cases of
// modify. Requires EarliestWins mode.
func (tr *Tracked) StartSwap(t sim.Slot, p, offset int, modify func(memory.Block) memory.Block, done func(Result)) {
	if tr.pri != EarliestWins {
		panic("att: atomic operations require EarliestWins priority (§4.2.1)")
	}
	tr.begin(p, &op{kind: OpSwap, proc: p, offset: offset, started: t, issued: t,
		phase: phaseRead, buf: make(memory.Block, tr.m), modify: modify, done: done})
}

func (tr *Tracked) begin(p int, o *op) {
	if tr.ops[p] != nil {
		panic(fmt.Sprintf("att: processor %d already has a %v in flight", p, tr.ops[p].kind))
	}
	tr.ops[p] = o
	if tr.flt.Enabled() {
		tr.flt.Emit(flight.ComposeID(p, o.issued), o.issued, flight.StageIssue, int32(p), int64(o.offset))
	}
	if tr.trace.Enabled() {
		tr.trace.Add(o.started, fmt.Sprintf("P%d", p), "issue %v offset %d", o.kind, o.offset)
	}
}

// bankAt returns the bank processor p is connected to at slot t (c = 1).
func (tr *Tracked) bankAt(t sim.Slot, p int) int {
	v := int((t + sim.Slot(p)) % sim.Slot(tr.m))
	if v < 0 {
		v += tr.m
	}
	return v
}

// Tick implements sim.Ticker: operations visit their banks during
// PhaseTransfer; the ATTs shift during PhaseUpdate.
func (tr *Tracked) Tick(t sim.Slot, ph sim.Phase) {
	switch ph {
	case sim.PhaseTransfer:
		for p, o := range tr.ops {
			if o == nil {
				continue
			}
			tr.visit(t, o, tr.bankAt(t, p))
		}
	case sim.PhaseUpdate:
		tr.shift()
		tr.flushMetrics()
	}
}

// PhaseMask implements sim.PhaseMasker: nothing happens in PhaseIssue or
// PhaseConnect.
func (tr *Tracked) PhaseMask() sim.PhaseMask {
	return sim.MaskOf(sim.PhaseTransfer, sim.PhaseUpdate)
}

// Horizon implements sim.Horizoner. An in-flight operation visits a bank
// every slot, and while any valid ATT or pending entry exists the
// PhaseUpdate shift still changes tracked state, so both pin the clock
// to now. With no operations and all-blank tables the shift rotates
// blanks into blanks — an observable no-op — and the memory declares no
// events of its own (metric flushes are delta-based, so they emit
// nothing while quiescent).
func (tr *Tracked) Horizon(now sim.Slot) sim.Slot {
	for _, o := range tr.ops {
		if o != nil {
			return now
		}
	}
	for b := range tr.att {
		if tr.pending[b].valid {
			return now
		}
		for _, e := range tr.att[b] {
			if e.valid {
				return now
			}
		}
	}
	return sim.HorizonNone
}

// shift advances every ATT by one slot, materializing this slot's
// insertions (blank where no write started).
func (tr *Tracked) shift() {
	for b := range tr.att {
		q := tr.att[b]
		q = append(q, entry{})
		copy(q[1:], q[:len(q)-1])
		q[0] = tr.pending[b]
		if len(q) > tr.m-1 {
			q = q[:tr.m-1]
		}
		tr.att[b] = q
		tr.pending[b] = entry{}
	}
}

// findConflict scans the comparing subset [lo, hi) of bank b's ATT for a
// same-offset valid entry and returns it.
func (tr *Tracked) findConflict(b, offset, lo, hi int) (entry, bool) {
	q := tr.att[b]
	if hi > len(q) {
		hi = len(q)
	}
	if lo < 0 {
		lo = 0
	}
	for i := lo; i < hi; i++ {
		if q[i].valid && q[i].offset == offset {
			return q[i], true
		}
	}
	return entry{}, false
}

// visit performs operation o's action at bank b during slot t.
func (tr *Tracked) visit(t sim.Slot, o *op, b int) {
	switch o.phase {
	case phaseRead:
		tr.visitRead(t, o, b)
	case phaseWrite:
		tr.visitWrite(t, o, b)
	}
}

// visitRead handles reads and the read phase of swaps: compare against
// ALL entries; restart from the current bank on any same-offset write.
func (tr *Tracked) visitRead(t sim.Slot, o *op, b int) {
	if _, hit := tr.findConflict(b, o.offset, 0, tr.m-1); hit {
		o.restarts++
		tr.Restarts++
		o.n = 0
		o.started = t
		for i := range o.buf {
			o.buf[i] = 0
		}
		if tr.flt.Enabled() {
			tr.flt.Emit(flight.ComposeID(o.proc, o.issued), t, flight.StageATTRetry, int32(b), int64(o.restarts))
		}
		if tr.trace.Enabled() {
			tr.trace.Add(t, fmt.Sprintf("P%d", o.proc), "%v restart at bank %d", o.kind, b)
		}
		// Fall through: the current bank becomes the first bank of the
		// restarted cycle and is read this very slot.
	}
	w, ok := tr.ar.Read(t, b, o.offset)
	if !ok {
		panic(fmt.Sprintf("att: bank %d busy at slot %d", b, t))
	}
	o.buf[b] = w
	o.n++
	if o.n < tr.m {
		return
	}
	// Read cycle complete.
	if o.kind == OpRead {
		tr.finish(t, o, Result{Outcome: Completed, Block: o.buf.Clone(), Restarts: o.restarts, At: t})
		return
	}
	// Swap: move to the write phase with the modified block. The write
	// phase starts at the next slot, at the next bank in sequence.
	o.writeBuf = o.modify(o.buf.Clone())
	if len(o.writeBuf) != tr.m {
		panic(fmt.Sprintf("att: swap modify returned %d words, want %d", len(o.writeBuf), tr.m))
	}
	o.phase = phaseWrite
	o.n = 0
	o.passed0 = false
	o.started = t + 1
	if tr.trace.Enabled() {
		tr.trace.Add(t, fmt.Sprintf("P%d", o.proc), "swap enters write phase")
	}
}

// comparingSet returns the ATT index range [lo, hi) a write with n banks
// already updated must check, per the priority mode. Index i holds the
// entry of age i+1.
func (tr *Tracked) comparingSet(o *op) (lo, hi int) {
	switch tr.pri {
	case LatestWins:
		// Ages 1..n (simultaneous competitor at age n), dropping the
		// simultaneous entry once bank 0 is passed: first n or n−1.
		hi = o.n
		if o.passed0 {
			hi = o.n - 1
		}
		return 0, hi
	default: // EarliestWins
		// Ages n..m−1 (strictly earlier issues are ages > n; the
		// simultaneous age-n entry counts until bank 0 is passed).
		lo = o.n - 1
		if o.passed0 {
			lo = o.n
		}
		return lo, tr.m - 1
	}
}

// visitWrite handles plain writes and the write phase of swaps. The
// comparison precedes the ATT insertion so that an attempt that restarts
// (and will retry from scratch next slot) leaves no entry behind — a
// blocked write repeatedly announcing itself could otherwise livelock
// against the very swap it is deferring to.
func (tr *Tracked) visitWrite(t sim.Slot, o *op, b int) {
	lo, hi := tr.comparingSet(o)
	if hit, found := tr.findConflict(b, o.offset, lo, hi); found {
		tr.resolveWriteConflict(t, o, b, hit)
		return
	}
	if o.n == 0 {
		// First bank of this attempt: insert the offset at the ATT head.
		tr.pending[b] = entry{valid: true, offset: o.offset, swap: o.kind == OpSwap}
		if tr.trace.Enabled() {
			tr.trace.Add(t, fmt.Sprintf("ATT%d", b), "insert offset %d (%v)", o.offset, o.kind)
		}
	}
	if ok := tr.ar.Write(t, b, o.offset, o.writeBuf[b]); !ok {
		panic(fmt.Sprintf("att: bank %d busy at slot %d", b, t))
	}
	o.n++
	if b == 0 {
		o.passed0 = true
	}
	if o.n < tr.m {
		return
	}
	switch o.kind {
	case OpWrite:
		tr.CompletedWrites++
		tr.finish(t, o, Result{Outcome: Completed, Restarts: o.restarts, At: t})
	case OpSwap:
		tr.CompletedSwaps++
		tr.finish(t, o, Result{Outcome: Completed, Block: o.buf.Clone(), Restarts: o.restarts, At: t})
	}
}

// resolveWriteConflict applies the interaction rules of §4.1.2 and
// Fig. 4.6 when write-class operation o detects a competing entry at
// bank b.
func (tr *Tracked) resolveWriteConflict(t sim.Slot, o *op, b int, hit entry) {
	switch {
	case o.kind == OpSwap:
		// The write of a swap detects another write (simple or swap):
		// the entire swap restarts (Fig. 4.6a/b/e).
		tr.restartSwap(t, o, b)
	case hit.swap:
		// A simple write detects the write of a swap: restart rather
		// than abort (Fig. 4.6d). The retry begins at next slot's bank,
		// deferring until the swap's entry ages out of the ATT.
		o.restarts++
		tr.Restarts++
		o.n = 0
		o.passed0 = false
		o.started = t + 1
		if tr.flt.Enabled() {
			tr.flt.Emit(flight.ComposeID(o.proc, o.issued), t, flight.StageATTDefer, int32(b), int64(o.restarts))
		}
		if tr.trace.Enabled() {
			tr.trace.Add(t, fmt.Sprintf("P%d", o.proc), "write restart at bank %d", b)
		}
	default:
		// Write-write: the lower-priority write aborts (§4.1.2, Fig. 4.6f).
		tr.AbortedWrites++
		if tr.trace.Enabled() {
			tr.trace.Add(t, fmt.Sprintf("P%d", o.proc), "write abort at bank %d", b)
		}
		tr.finish(t, o, Result{Outcome: Aborted, Restarts: o.restarts, At: t})
	}
}

// restartSwap sends a swap back to the beginning of its read phase; the
// fresh read cycle starts at next slot's bank.
func (tr *Tracked) restartSwap(t sim.Slot, o *op, b int) {
	o.restarts++
	tr.Restarts++
	o.phase = phaseRead
	o.n = 0
	o.passed0 = false
	o.started = t + 1
	for i := range o.buf {
		o.buf[i] = 0
	}
	if tr.flt.Enabled() {
		tr.flt.Emit(flight.ComposeID(o.proc, o.issued), t, flight.StageATTRetry, int32(b), int64(o.restarts))
	}
	if tr.trace.Enabled() {
		tr.trace.Add(t, fmt.Sprintf("P%d", o.proc), "swap restart at bank %d", b)
	}
}

// finish completes an operation and frees its processor.
func (tr *Tracked) finish(t sim.Slot, o *op, r Result) {
	if o.kind == OpRead && r.Outcome == Completed {
		tr.CompletedReads++
	}
	tr.ops[o.proc] = nil
	if tr.flt.Enabled() {
		tr.flt.Emit(flight.ComposeID(o.proc, o.issued), t, flight.StageRetire, int32(o.proc), int64(t-o.issued))
	}
	if tr.trace.Enabled() {
		tr.trace.Add(t, fmt.Sprintf("P%d", o.proc), "%v %s", o.kind,
			map[Outcome]string{Completed: "complete", Aborted: "aborted"}[r.Outcome])
	}
	if o.done != nil {
		o.done(r)
	}
}
