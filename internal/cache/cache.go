// Package cache implements the CFM cache coherence protocol of Chapter 5:
// an invalidation-based write-back protocol that combines the low storage
// overhead of snoopy protocols with the scalability of directory-based
// ones.
//
// The key architectural trick is processor–memory coupling (Fig. 5.1):
// each processor shares its cache directory with one memory bank, and
// since every CFM block access visits every bank, every primitive
// operation can inspect and update every processor's directory along the
// way — a broadcast without a bus, with invalidations completed
// synchronously in a pipelined fashion and no acknowledgement messages
// (unlike DASH-style point-to-point directories).
//
// Three primitive operations implement the protocol (§5.2.3):
//
//	read            retrieve a block; trigger a remote write-back if a
//	                dirty copy exists, and retry until clean
//	read-invalidate retrieve the block AND obtain exclusive ownership by
//	                invalidating every remote copy
//	write-back      flush the local dirty copy to memory
//
// Concurrent primitives on one block are serialized by autonomous access
// control (§5.2.4): each processor's ongoing operation is visible through
// its coupled bank, and Table 5.2 gives the retry matrix — write-back
// never waits, read-invalidate defers to write-backs and older
// read-invalidates, read defers to both.
package cache

import (
	"fmt"

	"cfm/internal/flight"
	"cfm/internal/memory"
	"cfm/internal/metrics"
	"cfm/internal/sim"
)

// LineState is the state of one cache line (Fig. 5.2).
type LineState int

// Cache line states. Valid blocks may be shared by many caches; a dirty
// block is exclusively owned by exactly one cache.
const (
	Invalid LineState = iota
	Valid
	Dirty
)

// String names the state.
func (s LineState) String() string {
	switch s {
	case Invalid:
		return "invalid"
	case Valid:
		return "valid"
	default:
		return "dirty"
	}
}

// opKind is a primitive operation.
type opKind int

const (
	opRead opKind = iota
	opReadInv
	opWriteBack
)

func (k opKind) String() string {
	switch k {
	case opRead:
		return "read"
	case opReadInv:
		return "read-invalidate"
	default:
		return "write-back"
	}
}

// Config parameterizes the protocol engine.
type Config struct {
	Processors int // n (= banks; the Chapter 5 exposition uses c = 1)
	Lines      int // direct-mapped cache lines per processor
	RetryDelay int // slots an aborted primitive waits before retrying (>= 1)
}

// Validate reports a descriptive error for an unusable configuration.
func (c Config) Validate() error {
	switch {
	case c.Processors < 2:
		return fmt.Errorf("cache: need >=2 processors, got %d", c.Processors)
	case c.Lines < 1:
		return fmt.Errorf("cache: need >=1 cache line, got %d", c.Lines)
	case c.RetryDelay < 1:
		return fmt.Errorf("cache: retry delay %d < 1", c.RetryDelay)
	}
	return nil
}

// line is one direct-mapped cache line.
type line struct {
	state LineState
	tag   int // block offset currently cached
	data  memory.Block
}

// primitive is one in-flight protocol operation. It carries the request
// that launched it (hasReq) rather than a completion closure: complete
// dispatches on the request directly, which keeps the primitive plain
// data — the property that lets a checkpoint serialize in-flight
// operations and a restore resume them.
type primitive struct {
	kind   opKind
	proc   int
	offset int
	start  sim.Slot // start of the current pass
	issued sim.Slot // first issue (priority for read-invalidate arbitration)
	k      int      // banks visited in the current pass
	wait   sim.Slot // do not run before this slot (retry back-off)
	hasReq bool     // a processor request completes when this primitive does
	req    request
}

// request is a queued processor-level memory request.
type request struct {
	isStore  bool
	prefetch bool // software prefetch: a read with no consumer
	// borrow marks an internal (same-package) request whose done and
	// modify callbacks promise not to retain the block they receive (and
	// done additionally not to mutate it): the protocol
	// may then pass its own line/scratch storage instead of a clone. The
	// public Load/Store/RMW never set it — their callbacks may keep the
	// block (integration tests do), so they always get a private copy.
	borrow bool
	offset int
	word   int
	value  memory.Word
	modify func(memory.Block) memory.Block // non-nil for RMW
	done   func(memory.Block)
	// cb and mod record the provenance of done and modify. Callbacks are
	// code, not data: a checkpoint serializes these tags instead of the
	// functions, and a restore rebinds the well-known ones (a front-end's
	// fixed completion methods, the identity RMW body). Requests carrying
	// caller-supplied callbacks (cbExternal/modExternal) cannot be
	// serialized — Checkpoint fails loudly rather than dropping them.
	cb  uint8
	mod uint8
}

// Provenance tags for request.done.
const (
	cbNone     uint8 = iota // done == nil
	cbFELoad                // Frontend.doneLoad
	cbFEPlain               // Frontend.donePlain
	cbFERel                 // Frontend.doneRel
	cbExternal              // caller-supplied: not serializable
)

// Provenance tags for request.modify.
const (
	modNone     uint8 = iota // modify == nil
	modIdentity              // identityBlock
	modExternal              // caller-supplied: not serializable
)

// Protocol is the cache coherence engine. It implements sim.Ticker.
type Protocol struct {
	cfg   Config
	mem   map[int]memory.Block // backing store, one block per offset
	dirs  [][]line             // dirs[p][lineIdx]
	ops   []*primitive         // in-flight primitive per processor
	susp  []*primitive         // primitive suspended by a priority write-back
	reqs  []sim.Queue[request] // per-processor FIFO of processor requests
	wbReq [][]int              // pending remotely-triggered write-backs (offsets)
	// rmwLocked[p] = offset whose remotely-triggered write-back is
	// disabled because p is in the modify phase of an atomic operation
	// (−1 when none): §5.3.1's premature-write-back guard.
	rmwLocked []int
	trace     *sim.Trace
	// pool recycles primitive records (the protocol is a serial ticker, so
	// one free list suffices); scratch is the block handed to borrow-mode
	// store callbacks, valid only during the callback.
	//cfm:rebuilt
	pool []*primitive
	//cfm:no-save borrow-mode callback scratch, dead outside the store callback
	scratch memory.Block
	// id is the engine's parking handle (nil when unregistered): the
	// protocol parks when Idle() and is woken by the next queued request.
	id *sim.Idler
	// fes records the front-end attached to each processor (nil without
	// one). NewFrontend registers itself here so a restore can rebind a
	// queued request's done tag back to that front-end's fixed callback.
	fes []*Frontend

	// Statistics.
	Hits          int64
	Misses        int64
	Invalidations int64
	WriteBacks    int64
	Retries       int64
	TriggeredWBs  int64
	Prefetches    int64

	// Registry handles (nil when unobserved) plus the counter values at
	// the last flush: rather than editing every counter site, flushMetrics
	// adds the deltas once per slot from Tick's PhaseUpdate — a serial
	// context, so registry totals are deterministic at every worker count.
	mHits, mMisses, mInvalidations, mWriteBacks *metrics.Counter
	mRetries, mTriggeredWBs, mPrefetches        *metrics.Counter
	lastHits, lastMisses, lastInvs, lastWBs     int64
	lastRetries, lastTrigWBs, lastPrefetches    int64

	// Flight recorder (nil when unobserved). The protocol is a serial
	// ticker, so it emits directly; a primitive's span ID is ComposeID of
	// its processor and its first-issue slot, both of which the primitive
	// record already persists.
	flt *flight.Recorder
}

// New builds a protocol engine; it panics on invalid configuration.
func New(cfg Config, trace *sim.Trace) *Protocol {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := &Protocol{
		cfg:       cfg,
		mem:       make(map[int]memory.Block),
		dirs:      make([][]line, cfg.Processors),
		ops:       make([]*primitive, cfg.Processors),
		susp:      make([]*primitive, cfg.Processors),
		reqs:      make([]sim.Queue[request], cfg.Processors),
		wbReq:     make([][]int, cfg.Processors),
		rmwLocked: make([]int, cfg.Processors),
		trace:     trace,
		fes:       make([]*Frontend, cfg.Processors),
	}
	for i := range p.dirs {
		p.dirs[i] = make([]line, cfg.Lines)
		p.rmwLocked[i] = -1
	}
	return p
}

// Instrument attaches registry counters for the protocol's statistics.
// Call before running; a nil registry leaves the protocol unobserved.
func (c *Protocol) Instrument(r *metrics.Registry) {
	if r == nil {
		return
	}
	c.mHits = r.Counter("cache_hits_total")
	c.mMisses = r.Counter("cache_misses_total")
	c.mInvalidations = r.Counter("cache_invalidations_total")
	c.mWriteBacks = r.Counter("cache_writebacks_total")
	c.mRetries = r.Counter("cache_retries_total")
	c.mTriggeredWBs = r.Counter("cache_triggered_writebacks_total")
	c.mPrefetches = r.Counter("cache_prefetches_total")
}

// RecordFlight attaches a flight recorder: each primitive operation spans
// from its cache-miss launch to its retire, with a bank-enqueue event per
// aborted pass; hits are single self-contained events. Call before
// running; nil detaches.
func (c *Protocol) RecordFlight(r *flight.Recorder) { c.flt = r }

// flushMetrics pushes the statistics accumulated since the last flush
// into the registry. Called once per slot from Tick's PhaseUpdate.
func (c *Protocol) flushMetrics() {
	if c.mHits == nil {
		return
	}
	c.mHits.Add(c.Hits - c.lastHits)
	c.mMisses.Add(c.Misses - c.lastMisses)
	c.mInvalidations.Add(c.Invalidations - c.lastInvs)
	c.mWriteBacks.Add(c.WriteBacks - c.lastWBs)
	c.mRetries.Add(c.Retries - c.lastRetries)
	c.mTriggeredWBs.Add(c.TriggeredWBs - c.lastTrigWBs)
	c.mPrefetches.Add(c.Prefetches - c.lastPrefetches)
	c.lastHits, c.lastMisses, c.lastInvs, c.lastWBs = c.Hits, c.Misses, c.Invalidations, c.WriteBacks
	c.lastRetries, c.lastTrigWBs, c.lastPrefetches = c.Retries, c.TriggeredWBs, c.Prefetches
}

// Banks returns the bank count (= processors).
func (c *Protocol) Banks() int { return c.cfg.Processors }

// lineOf returns the direct-mapped line index for a block offset.
func (c *Protocol) lineOf(offset int) int { return offset % c.cfg.Lines }

// blockSize is the modelled words per block (one per bank).
func (c *Protocol) blockSize() int { return c.cfg.Processors }

// memBlock returns (allocating if needed) the backing block at offset.
func (c *Protocol) memBlock(offset int) memory.Block {
	b, ok := c.mem[offset]
	if !ok {
		b = make(memory.Block, c.blockSize())
		c.mem[offset] = b
	}
	return b
}

// PokeMemory installs a block in backing memory without timing.
func (c *Protocol) PokeMemory(offset int, b memory.Block) {
	if len(b) != c.blockSize() {
		panic(fmt.Sprintf("cache: block of %d words, want %d", len(b), c.blockSize()))
	}
	c.mem[offset] = b.Clone()
}

// PeekMemory reads backing memory without timing.
func (c *Protocol) PeekMemory(offset int) memory.Block { return c.memBlock(offset).Clone() }

// State returns processor p's cache line state for a block offset
// (Invalid if the line holds a different tag).
func (c *Protocol) State(p, offset int) LineState {
	ln := &c.dirs[p][c.lineOf(offset)]
	if ln.state == Invalid || ln.tag != offset {
		return Invalid
	}
	return ln.state
}

// CachedData returns a copy of p's cached block for offset, or nil.
func (c *Protocol) CachedData(p, offset int) memory.Block {
	ln := &c.dirs[p][c.lineOf(offset)]
	if ln.state == Invalid || ln.tag != offset {
		return nil
	}
	return ln.data.Clone()
}

// Busy reports whether processor p has a primitive in flight or requests
// queued.
func (c *Protocol) Busy(p int) bool {
	return c.ops[p] != nil || c.susp[p] != nil || !c.reqs[p].Empty() || len(c.wbReq[p]) > 0
}

// Idle reports whether the whole system has quiesced.
func (c *Protocol) Idle() bool {
	for p := range c.ops {
		if c.Busy(p) {
			return false
		}
	}
	return true
}

// push queues a request for processor p, waking a parked protocol. Safe
// to call from concurrent front-end shards for distinct p: each shard
// touches only its own queue, and Wake is an idempotent atomic store.
func (c *Protocol) push(p int, r request) {
	c.id.Wake()
	c.reqs[p].Push(r)
}

// BindIdler implements sim.Parker.
func (c *Protocol) BindIdler(id *sim.Idler) { c.id = id }

// Load queues a processor-level block load; done receives the block.
func (c *Protocol) Load(p, offset int, done func(memory.Block)) {
	c.push(p, request{offset: offset, done: done, cb: tagFor(done)})
}

// tagFor classifies a caller-supplied done callback.
func tagFor(done func(memory.Block)) uint8 {
	if done == nil {
		return cbNone
	}
	return cbExternal
}

// Store queues a processor-level word store into a block.
func (c *Protocol) Store(p, offset, word int, v memory.Word, done func(memory.Block)) {
	if word < 0 || word >= c.blockSize() {
		panic(fmt.Sprintf("cache: word %d out of block range [0,%d)", word, c.blockSize()))
	}
	c.push(p, request{isStore: true, offset: offset, word: word, value: v, done: done, cb: tagFor(done)})
}

// RMW queues an atomic read-modify-write (§5.3.1): exclusive ownership is
// obtained with read-invalidate, modify maps the old block to the new
// one (applied to the locally owned copy with remotely-triggered
// write-back disabled), and done receives the OLD block value. The block
// remains dirty in p's cache afterwards; coherence actions write it back
// on demand.
func (c *Protocol) RMW(p, offset int, modify func(memory.Block) memory.Block, done func(memory.Block)) {
	r := request{isStore: true, offset: offset, modify: modify, done: done, cb: tagFor(done)}
	if modify != nil {
		r.mod = modExternal
	}
	c.push(p, r)
}

// allocPrimitive takes a primitive off the free list (or allocates one);
// releasePrimitive returns a completed primitive to it. The protocol is a
// serial ticker, so a single list needs no synchronization.
func (c *Protocol) allocPrimitive() *primitive {
	if n := len(c.pool); n > 0 {
		op := c.pool[n-1]
		c.pool = c.pool[:n-1]
		return op
	}
	return new(primitive)
}

func (c *Protocol) releasePrimitive(op *primitive) {
	op.hasReq = false
	op.req = request{} // drop the callback references
	c.pool = append(c.pool, op)
}
