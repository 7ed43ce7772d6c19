package core

import (
	"fmt"
	"strconv"

	"cfm/internal/flight"
	"cfm/internal/memory"
	"cfm/internal/metrics"
	"cfm/internal/sim"
)

// AccessKind distinguishes the two CFM block operations.
type AccessKind int

// Block access kinds.
const (
	ReadBlock AccessKind = iota
	WriteBlock
)

// String names the kind for traces.
func (k AccessKind) String() string {
	if k == ReadBlock {
		return "read"
	}
	return "write"
}

// access is one in-flight block access.
type access struct {
	kind   AccessKind
	proc   int
	offset int
	start  sim.Slot
	buf    memory.Block
	done   func(memory.Block)
}

// CFMemory simulates the conflict-free memory of Fig. 3.2/3.5: b = c·n
// banks behind a synchronous interconnection, with every block access
// visiting all banks in AT-space order. It enforces — by panicking, since
// a violation would be an architecture bug, not a workload condition —
// the central invariant that no bank is ever addressed while busy.
//
// CFMemory deliberately performs no same-block coordination: concurrent
// writes to one block interleave exactly as Fig. 4.1 warns. The att
// package layers the address-tracking consistency mechanism on top.
type CFMemory struct {
	cfg Config
	at  *ATSpace
	// ar owns the banks' state as struct-of-arrays (busy-until slots,
	// statistics, paged word storage).
	ar *memory.BankArena
	// cur holds each processor's in-flight accesses: at most one still in
	// its address phase plus one draining its final data words (c > 1
	// lets the next access begin while the previous one's last words are
	// in flight, §3.1.3).
	cur   [][]*access
	free  []sim.Slot // per-processor slot at which the address path frees
	trace *sim.Trace
	// procNames and bankNames are the trace's Who strings ("P3",
	// "Bank12"), built once so recording an event formats only its text.
	procNames []string
	bankNames []string
	// text is the scratch buffer for trace texts built in serial context
	// (issue and bank-visit events); completion texts, built in shard
	// context, use their stage's own buffer.
	//cfm:no-save formatting scratch, empty between events
	text []byte
	// pool recycles access records per processor so the steady state
	// allocates nothing; shard p only ever touches pool[p].
	//cfm:rebuilt
	pool [][]*access
	// id is the engine's parking handle (nil when driven manually, e.g.
	// inside a ClusterSystem): the memory parks once every processor's
	// in-flight list drains and is woken by the next begin.
	id *sim.Idler
	// stage holds each processor shard's deferred side effects (staged
	// bank visits, trace events, completion counts, done callbacks);
	// FinishShards (per slot) or FinishEpoch (per batched episode) folds
	// them in ascending processor order, reproducing the serial engine's
	// observable order exactly. Bank visits in particular are REPLAYED at
	// fold time: TickShard only records which bank an access addresses,
	// so shards never touch the shared arena and the memory has global
	// shard closure (EpochSafe) even though accesses started at different
	// slots hit the same bank on different slots.
	//cfm:no-save fold scratch, drained by FinishShards/FinishEpoch before any checkpoint boundary
	stage []procStage
	// folding guards against StartRead/StartWrite from inside a fold of
	// a multi-slot episode: an access begun there would have missed its
	// bank visits for the already-ticked remainder of the episode. A
	// one-slot fold sits where the slot's last FinishShards would, so it
	// lets a done callback begin the next access.
	//cfm:no-save reentrancy guard, always false outside a FinishEpoch fold
	folding bool
	// doneRebind, when set, reconstructs the completion callback of an
	// in-flight access while restoring a checkpoint (callbacks are code,
	// not data, so the snapshot records only their presence). SaveState
	// fails loudly when an access has a callback and no rebinder is set.
	doneRebind func(proc int, kind AccessKind, offset int, start sim.Slot) func(memory.Block)

	// Completed counts finished block accesses.
	Completed int64

	// Registry handle (nil when unobserved); added to in FinishShards,
	// so totals are deterministic at any worker count.
	mCompleted *metrics.Counter

	// Flight recorder (nil when unobserved). Issue events are emitted
	// directly (begin is a serial-context operation); bank-service and
	// retire events happen in shard context, so they are staged per
	// processor and folded in FinishShards like the trace events.
	flt *flight.Recorder
}

// bankVisit is one staged word transfer: the shard records which bank
// its access addresses at which slot; the serial fold performs the
// actual bank mutation (and emits the visit trace event) in ascending
// processor order. The AT-space theorem makes the deferral sound: at
// any slot distinct processors address distinct banks, so replaying a
// slot's visits in any processor order leaves the banks in the same
// state.
type bankVisit struct {
	a    *access
	slot sim.Slot
	bank int32
}

// doneEntry is a completed access whose callback fires at slot `at`
// during the fold (after that slot's bank visits have been replayed, so
// the assembled block is complete even when c = 1).
type doneEntry struct {
	a  *access
	at sim.Slot
}

// procStage buffers one processor shard's deferred side effects. The
// per-sink streams are slot-nondecreasing (a shard runs slots in
// order), which is what lets FinishEpoch merge them slot-major with the
// cursor fields.
type procStage struct {
	visits    []bankVisit    // staged in PhaseTransfer
	tFlights  []flight.Event // StageBankService, staged in PhaseTransfer
	events    []sim.Event    // completion trace events, staged in PhaseUpdate
	uFlights  []flight.Event // StageRetire, staged in PhaseUpdate
	completed int64
	done      []doneEntry
	text      []byte // completion-text scratch, like CFMemory.text

	// FinishEpoch's slot-major merge cursors (preallocated; the fold
	// must stay alloc-free).
	cVisit, cTF, cEv, cUF, cDone int
}

// NewCFMemory builds the memory for a configuration. trace may be nil.
func NewCFMemory(cfg Config, trace *sim.Trace) *CFMemory {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &CFMemory{
		cfg:   cfg,
		at:    NewATSpace(cfg),
		ar:    memory.NewBankArena(cfg.Banks(), cfg.BankCycle),
		cur:   make([][]*access, cfg.Processors),
		free:  make([]sim.Slot, cfg.Processors),
		trace: trace,
		pool:  make([][]*access, cfg.Processors),
		stage: make([]procStage, cfg.Processors),
	}
	m.procNames = numberedNames("P", cfg.Processors)
	m.bankNames = numberedNames("Bank", cfg.Banks())
	if trace.Enabled() {
		m.text = make([]byte, 0, traceTextCap)
		for p := range m.stage {
			m.stage[p].text = make([]byte, 0, traceTextCap)
		}
	}
	return m
}

// traceTextCap bounds the trace-text scratch buffers: the longest text,
// a bank visit with two 20-character integers, fits without growing.
const traceTextCap = 64

// numberedNames returns prefix0 … prefix(n-1).
func numberedNames(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = prefix + strconv.Itoa(i)
	}
	return out
}

// accessText formats "<verb> <kind> offset <offset>" into buf — the text
// of an access's issue and complete events.
func accessText(buf []byte, verb string, kind AccessKind, offset int) []byte {
	buf = append(append(append(buf[:0], verb...), ' '), kind.String()...)
	buf = append(buf, " offset "...)
	return strconv.AppendInt(buf, int64(offset), 10)
}

// visitText formats "<kind> word (P<proc>, offset <offset>)" into buf —
// the text of a bank-visit event.
func visitText(buf []byte, kind AccessKind, proc, offset int) []byte {
	buf = append(append(buf[:0], kind.String()...), " word (P"...)
	buf = strconv.AppendInt(buf, int64(proc), 10)
	buf = append(buf, ", offset "...)
	return append(strconv.AppendInt(buf, int64(offset), 10), ')')
}

// Instrument attaches registry metrics: a completed-access counter plus
// shared bank access/conflict counters across all banks (conflicts stay
// zero while the conflict-free invariant holds — the metric is a
// cross-check, not an expectation). Bank counters are atomic, so shard-
// context bank visits remain deterministic in total.
func (m *CFMemory) Instrument(r *metrics.Registry) {
	if r == nil {
		return
	}
	m.mCompleted = r.Counter("cfm_completed_total")
	acc := r.Counter("cfm_bank_accesses_total")
	conf := r.Counter("cfm_bank_conflicts_total")
	for i := 0; i < m.ar.Banks(); i++ {
		m.ar.Observe(i, acc, conf)
	}
}

// RecordFlight attaches a flight recorder: each block access spans from
// its issue to its retire, with one bank-service event at its first
// bank visit (the access then proceeds conflict-free through all b
// banks — that fixed sweep IS the service). Call before running; nil
// detaches.
func (m *CFMemory) RecordFlight(r *flight.Recorder) { m.flt = r }

// Config returns the configuration.
func (m *CFMemory) Config() Config { return m.cfg }

// ATSpace returns the partitioning in force.
func (m *CFMemory) ATSpace() *ATSpace { return m.at }

// PeekBlock reads a block without simulated timing (for assertions).
func (m *CFMemory) PeekBlock(offset int) memory.Block {
	b := make(memory.Block, m.ar.Banks())
	for i := range b {
		b[i] = m.ar.Peek(i, offset)
	}
	return b
}

// PokeBlock writes a block without simulated timing.
func (m *CFMemory) PokeBlock(offset int, blk memory.Block) {
	if len(blk) != m.ar.Banks() {
		panic(fmt.Sprintf("core: block of %d words, want %d", len(blk), m.ar.Banks()))
	}
	for i := range blk {
		m.ar.Poke(i, offset, blk[i])
	}
}

// CanStart reports whether processor p may begin a new block access at
// slot t: its address path must be free (one slot per bank for the
// previous access), even though the final data words of the previous
// access may still be in flight.
func (m *CFMemory) CanStart(t sim.Slot, p int) bool {
	return t >= m.free[p]
}

// StartRead begins a block read by processor p at slot t. done receives
// the assembled block at the completion slot. It returns the completion
// slot. Call only when CanStart.
func (m *CFMemory) StartRead(t sim.Slot, p, offset int, done func(memory.Block)) sim.Slot {
	a := m.alloc(p)
	a.kind, a.offset, a.done = ReadBlock, offset, done
	m.begin(t, p, a)
	return m.at.CompletionSlot(t)
}

// StartWrite begins a block write of data by processor p at slot t. done,
// if non-nil, runs at the completion slot. It returns the completion slot.
func (m *CFMemory) StartWrite(t sim.Slot, p, offset int, data memory.Block, done func(memory.Block)) sim.Slot {
	if len(data) != m.cfg.Banks() {
		panic(fmt.Sprintf("core: write block of %d words, want %d", len(data), m.cfg.Banks()))
	}
	a := m.alloc(p)
	a.kind, a.offset, a.done = WriteBlock, offset, done
	copy(a.buf, data)
	m.begin(t, p, a)
	return m.at.CompletionSlot(t)
}

// alloc takes an access record off processor p's free list, ensuring its
// buffer has block size (reads overwrite every word, writes copy over it,
// so stale contents never leak).
func (m *CFMemory) alloc(p int) *access {
	var a *access
	if n := len(m.pool[p]); n > 0 {
		a = m.pool[p][n-1]
		m.pool[p] = m.pool[p][:n-1]
	} else {
		a = &access{proc: p}
	}
	if len(a.buf) != m.cfg.Banks() {
		a.buf = make(memory.Block, m.cfg.Banks())
	}
	return a
}

// recycle returns a completed access to its processor's free list. The
// buffer is kept only when no callback saw it: done callbacks may retain
// the block they were handed, so those buffers are surrendered to the GC.
func (m *CFMemory) recycle(a *access) {
	if a.done != nil {
		a.buf = nil
		a.done = nil
	}
	m.pool[a.proc] = append(m.pool[a.proc], a)
}

// begin admits a new access. It records the issue trace event directly,
// so StartRead/StartWrite are serial-context operations: a Shardable
// driver may call them concurrently for distinct processors only while
// tracing is disabled (nil or Disabled trace); with tracing on, issue
// from single-threaded code so event order stays deterministic.
func (m *CFMemory) begin(t sim.Slot, p int, a *access) {
	if m.folding {
		panic(fmt.Sprintf("core: processor %d started an access at slot %d during an epoch fold; "+
			"issue from a ticker (which puts the plan on one worker) or SetEpochBatch(1)", p, t))
	}
	if !m.CanStart(t, p) {
		panic(fmt.Sprintf("core: processor %d started an access at slot %d while busy", p, t))
	}
	a.start = t
	m.cur[p] = append(m.cur[p], a)
	m.free[p] = t + sim.Slot(m.cfg.Banks())
	m.id.Wake()
	if m.trace.Enabled() {
		m.text = accessText(m.text, "issue", a.kind, a.offset)
		m.trace.AddEvent(sim.Event{Slot: t, Who: m.procNames[p], What: string(m.text)})
	}
	if m.flt.Enabled() {
		m.flt.Emit(flight.ComposeID(p, t), t, flight.StageIssue, int32(p), int64(a.offset))
	}
}

// BindIdler implements sim.Parker.
func (m *CFMemory) BindIdler(id *sim.Idler) { m.id = id }

// Tick implements sim.Ticker by delegating to the shard path, so the
// serial and parallel engines execute identical code. Bank visits
// happen in PhaseTransfer; completions fire in PhaseUpdate of the
// completion slot.
func (m *CFMemory) Tick(t sim.Slot, ph sim.Phase) { sim.SerialTick(m, t, ph) }

// PhaseMask implements sim.PhaseMasker: the memory is idle during
// PhaseIssue and PhaseConnect.
func (m *CFMemory) PhaseMask() sim.PhaseMask {
	return sim.MaskOf(sim.PhaseTransfer, sim.PhaseUpdate)
}

// Horizon implements sim.Horizoner. An access in its address phase
// visits a bank every slot (observable work), so it pins the horizon to
// now; one draining its final data words (c > 1) does nothing until its
// completion slot, when PhaseUpdate completes it. With no accesses in
// flight the memory has no events of its own — drivers above it are
// separate tickers with their own horizons.
func (m *CFMemory) Horizon(now sim.Slot) sim.Slot {
	h := sim.HorizonNone
	for p := range m.cur {
		for _, a := range m.cur[p] {
			if now <= a.start+sim.Slot(m.cfg.Banks()-1) {
				return now
			}
			if v := m.at.CompletionSlot(a.start); v < h {
				h = v
			}
		}
	}
	if h < now {
		return now
	}
	return h
}

// Shards implements sim.Shardable: one shard per processor. The AT-space
// theorem (§3.1.2) is what makes this sound — at any slot, distinct
// processors' in-flight accesses address distinct banks, so processor
// shards never touch the same bank concurrently.
func (m *CFMemory) Shards() int { return m.cfg.Processors }

// TickShard implements sim.Shardable: processor p's bank visits
// (PhaseTransfer) and completion detection (PhaseUpdate). Shards touch
// only shard-owned state: bank visits are STAGED here (which bank, which
// slot) and replayed against the shared arena by the serial fold, so
// side effects that must appear in global processor order — bank
// mutations, trace events, Completed, done callbacks — all fold in
// FinishShards/FinishEpoch.
func (m *CFMemory) TickShard(t sim.Slot, ph sim.Phase, p int) {
	switch ph {
	case sim.PhaseTransfer:
		st := &m.stage[p]
		for _, a := range m.cur[p] {
			k := int(t - a.start)
			if k < 0 || k >= m.cfg.Banks() {
				continue // waiting out the final pipeline stages (c > 1)
			}
			bank := m.at.VisitBank(a.start, p, k)
			if k == 0 && m.flt.Enabled() {
				st.tFlights = append(st.tFlights, flight.Event{
					ID: flight.ComposeID(p, a.start), Slot: t,
					Stage: flight.StageBankService, Actor: int32(bank),
					Arg: int64(m.cfg.Banks())})
			}
			st.visits = append(st.visits, bankVisit{a: a, slot: t, bank: int32(bank)})
		}
	case sim.PhaseUpdate:
		q := m.cur[p]
		keep := q[:0]
		st := &m.stage[p]
		for _, a := range q {
			if t < m.at.CompletionSlot(a.start) {
				keep = append(keep, a)
				continue
			}
			st.completed++
			if m.trace.Enabled() {
				st.text = accessText(st.text, "complete", a.kind, a.offset)
				st.events = append(st.events, sim.Event{Slot: t, Who: m.procNames[p], What: string(st.text)})
			}
			if m.flt.Enabled() {
				st.uFlights = append(st.uFlights, flight.Event{
					ID: flight.ComposeID(p, a.start), Slot: t,
					Stage: flight.StageRetire, Actor: int32(p),
					Arg: int64(t - a.start)})
			}
			if a.done != nil {
				st.done = append(st.done, doneEntry{a: a, at: t})
			} else {
				m.recycle(a) // shard context: a.proc == p, so pool[p] only
			}
		}
		m.cur[p] = keep
	}
}

// FinishShards implements sim.ShardFinalizer: fold each processor's
// staged effects in ascending order. PhaseTransfer replays the staged
// bank visits (the dense arena sweep — the only place banks mutate);
// PhaseUpdate drains each processor's trace events, then its completion
// count, then its done callbacks — matching the serial engine's
// historical event order byte for byte.
func (m *CFMemory) FinishShards(t sim.Slot, ph sim.Phase) {
	switch ph {
	case sim.PhaseTransfer:
		for p := range m.stage {
			st := &m.stage[p]
			for i := range st.visits {
				m.replay(&st.visits[i])
			}
			st.visits = st.visits[:0]
			m.flt.AppendAll(st.tFlights) //cfm:flight-ok fold drain; st.tFlights stays empty while recording is off
			st.tFlights = st.tFlights[:0]
		}
	case sim.PhaseUpdate:
		// Completed folds in processor order, ahead of each processor's
		// done callbacks, as the serial order has it; the registry
		// counter (an atomic) takes the summed delta once.
		var completed int64
		for p := range m.stage {
			st := &m.stage[p]
			for _, e := range st.events {
				m.trace.AddEvent(e)
			}
			st.events = st.events[:0]
			m.flt.AppendAll(st.uFlights) //cfm:flight-ok fold drain; st.uFlights stays empty while recording is off
			st.uFlights = st.uFlights[:0]
			m.Completed += st.completed
			completed += st.completed
			st.completed = 0
			for _, d := range st.done {
				d.a.done(d.a.buf)
				m.recycle(d.a)
			}
			st.done = st.done[:0]
		}
		m.mCompleted.Add(completed)
		// Park once fully drained. A done callback above may have begun a
		// new access (and woken us), which this check then sees in cur.
		drained := true
		for p := range m.cur {
			if len(m.cur[p]) > 0 {
				drained = false
				break
			}
		}
		if drained {
			m.id.Park()
		}
	}
}

// EpochSafe implements sim.EpochSafeTicker. TickShard only reads
// shard-owned access lists and the immutable AT-space, and stages every
// bank visit instead of performing it, so a processor shard touches no
// shared state in any phase of any slot — the bank mutations, which DO
// cross shards across slots (accesses started at different slots visit
// the same bank on different slots), all happen in the serial fold.
func (m *CFMemory) EpochSafe() bool { return true }

// FinishEpoch implements sim.EpochFinisher: one fold for the whole
// episode [from, to), leaving the banks and every sink byte-identical
// to per-slot FinishShards calls. Each processor's staged streams are
// slot-nondecreasing, so a slot-major merge with per-shard cursors
// reproduces the serial (slot, phase, processor, emission) order
// exactly: for each slot, first the Transfer fold (bank-visit replay in
// ascending processor order — the arena mutation order the serial
// engine would have produced), then the Update fold (trace events,
// flight retires, done callbacks). Completion counters are commutative
// and fold once at the end, like Partial's.
func (m *CFMemory) FinishEpoch(from, to sim.Slot) {
	m.folding = to-from > 1
	for p := range m.stage {
		st := &m.stage[p]
		st.cVisit, st.cTF, st.cEv, st.cUF, st.cDone = 0, 0, 0, 0, 0
	}
	for t := from; t < to; t++ {
		for p := range m.stage {
			st := &m.stage[p]
			for st.cVisit < len(st.visits) && st.visits[st.cVisit].slot <= t {
				m.replay(&st.visits[st.cVisit])
				st.cVisit++
			}
			c := st.cTF
			for st.cTF < len(st.tFlights) && st.tFlights[st.cTF].Slot <= t {
				st.cTF++
			}
			m.flt.AppendAll(st.tFlights[c:st.cTF]) //cfm:flight-ok fold drain; st.tFlights stays empty while recording is off
		}
		for p := range m.stage {
			st := &m.stage[p]
			for st.cEv < len(st.events) && st.events[st.cEv].Slot <= t {
				m.trace.AddEvent(st.events[st.cEv])
				st.cEv++
			}
			c := st.cUF
			for st.cUF < len(st.uFlights) && st.uFlights[st.cUF].Slot <= t {
				st.cUF++
			}
			m.flt.AppendAll(st.uFlights[c:st.cUF]) //cfm:flight-ok fold drain; st.uFlights stays empty while recording is off
			for st.cDone < len(st.done) && st.done[st.cDone].at <= t {
				d := st.done[st.cDone]
				d.a.done(d.a.buf)
				m.recycle(d.a)
				st.cDone++
			}
		}
	}
	var completed int64
	for p := range m.stage {
		st := &m.stage[p]
		completed += st.completed
		st.completed = 0
		st.visits = st.visits[:0]
		st.tFlights = st.tFlights[:0]
		st.events = st.events[:0]
		st.uFlights = st.uFlights[:0]
		st.done = st.done[:0]
	}
	m.Completed += completed
	m.mCompleted.Add(completed)
	m.folding = false
	// Park once fully drained — an episode edge, as the epoch contract
	// requires.
	drained := true
	for p := range m.cur {
		if len(m.cur[p]) > 0 {
			drained = false
			break
		}
	}
	if drained {
		m.id.Park()
	}
}

// replay performs one staged word transfer against the arena and emits
// its trace event — always from a serial fold, never a shard.
func (m *CFMemory) replay(v *bankVisit) {
	a, t, bank := v.a, v.slot, int(v.bank)
	switch a.kind {
	case ReadBlock:
		w, ok := m.ar.Read(t, bank, a.offset)
		if !ok {
			panic(fmt.Sprintf("core: CFM invariant violated: bank %d busy at slot %d (read by P%d)", bank, t, a.proc))
		}
		a.buf[bank] = w
	case WriteBlock:
		if ok := m.ar.Write(t, bank, a.offset, a.buf[bank]); !ok {
			panic(fmt.Sprintf("core: CFM invariant violated: bank %d busy at slot %d (write by P%d)", bank, t, a.proc))
		}
	}
	if m.trace.Enabled() {
		m.text = visitText(m.text, a.kind, a.proc, a.offset)
		m.trace.AddEvent(sim.Event{Slot: t, Who: m.bankNames[bank], What: string(m.text)})
	}
}

// Busy reports whether processor p has any access in flight (including
// one still draining its final data words).
func (m *CFMemory) Busy(p int) bool { return len(m.cur[p]) > 0 }
