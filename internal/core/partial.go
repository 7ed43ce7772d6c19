package core

import (
	"fmt"

	"cfm/internal/flight"
	"cfm/internal/metrics"
	"cfm/internal/sim"
)

// PartialConfig parameterizes a partially conflict-free system (§3.2.2,
// §3.4.2): n processors, m conflict-free memory modules of blockWords
// banks each (c·n banks total), locality λ, and an open-loop access rate
// r per processor per cycle — the system behind Figs. 3.14 and 3.15.
type PartialConfig struct {
	Processors int     // n
	Modules    int     // m
	BlockWords int     // banks (and words) per module = block size
	BankCycle  int     // c
	Locality   float64 // λ: fraction of accesses to the local cluster
	AccessRate float64 // r
	RetryMean  int     // average cycles before retrying a conflicting access
	Seed       uint64

	// Homes optionally assigns each processor the home module of the job
	// placed on it (−1 = idle processor, issues no accesses); when nil,
	// every processor's home is its own cluster's module. This is the
	// hook for the §7.2 processor-allocation study (see alloc.go): a
	// placement that puts a job outside its home cluster turns its
	// λ-fraction of "local" accesses into remote, conflict-prone ones.
	Homes []int
}

// Validate reports a descriptive error for an unusable configuration.
func (c PartialConfig) Validate() error {
	switch {
	case c.Processors < 1:
		return fmt.Errorf("core: need >=1 processor, got %d", c.Processors)
	case c.Modules < 1:
		return fmt.Errorf("core: need >=1 module, got %d", c.Modules)
	case c.BlockWords < 1:
		return fmt.Errorf("core: block of %d words invalid", c.BlockWords)
	case c.BankCycle < 1:
		return fmt.Errorf("core: bank cycle %d < 1", c.BankCycle)
	// Range checks are negated so NaN, which fails every comparison,
	// is rejected too.
	case !(c.Locality >= 0 && c.Locality <= 1):
		return fmt.Errorf("core: locality %v out of [0,1]", c.Locality)
	case !(c.AccessRate >= 0 && c.AccessRate <= 1):
		return fmt.Errorf("core: access rate %v out of [0,1]", c.AccessRate)
	case c.RetryMean < 1:
		return fmt.Errorf("core: retry mean %d < 1", c.RetryMean)
	case c.Processors%c.Modules != 0:
		return fmt.Errorf("core: %d processors not divisible into %d clusters", c.Processors, c.Modules)
	case c.BlockWords%c.BankCycle != 0:
		return fmt.Errorf("core: module of %d banks not divisible by cycle %d", c.BlockWords, c.BankCycle)
	case c.BlockWords/c.BankCycle != c.Processors/c.Modules:
		return fmt.Errorf("core: module supports %d conflict-free processors but clusters have %d",
			c.BlockWords/c.BankCycle, c.Processors/c.Modules)
	}
	if c.Homes != nil {
		if len(c.Homes) != c.Processors {
			return fmt.Errorf("core: %d homes for %d processors", len(c.Homes), c.Processors)
		}
		for p, h := range c.Homes {
			if h < -1 || h >= c.Modules {
				return fmt.Errorf("core: processor %d home module %d out of range", p, h)
			}
		}
	}
	return nil
}

// Home returns processor p's home module: the placed job's affinity when
// Homes is set (−1 for an idle processor), else p's own cluster.
func (c PartialConfig) Home(p int) int {
	if c.Homes != nil {
		return c.Homes[p]
	}
	return c.Cluster(p)
}

// BlockTime returns β = blockWords + c − 1.
func (c PartialConfig) BlockTime() int { return c.BlockWords + c.BankCycle - 1 }

// ClusterSize returns n/m, the processors per conflict-free cluster.
func (c PartialConfig) ClusterSize() int { return c.Processors / c.Modules }

// Cluster returns the conflict-free cluster (and local module) of a
// processor: clusters group n/m consecutive processors, one from each
// contention set.
func (c PartialConfig) Cluster(p int) int { return p / c.ClusterSize() }

// ContentionSet returns the AT-space division processor p uses at every
// module. Within a cluster all processors have distinct sets, so local
// accesses never conflict.
func (c PartialConfig) ContentionSet(p int) int { return p % c.ClusterSize() }

// Partial simulates the partially conflict-free system: each module has
// one "port" per contention set; a block access holds its (module, set)
// port for β slots; two accesses conflict only when they need the same
// port at overlapping times — processors in different contention sets are
// conflict-free by construction, as are all accesses within a cluster.
// It implements sim.Ticker with the same open-loop arrival process as the
// conventional baseline, so efficiencies are directly comparable.
//
// Think times and retry delays are materialized when the triggering event
// fires, never per slot, so skip-ahead jumps leave the streams intact.
//
// Every per-processor array is stored set-major: processor i lives at
// index idx(i) = (i mod cs)·m + i/cs, so contention set s is the one
// contiguous range [s·m, (s+1)·m), in ascending processor order. The
// ports are stored the same way, (module, set) at set·m + module. A
// shard's whole state is thus its own slice of each array, and two
// shards can share a cache line only where their ranges meet.
//
//cfm:rng=event
//cfm:soa
type Partial struct {
	cfg PartialConfig
	// rngs holds one independent stream per processor (split from the
	// config seed in processor order), so a processor's stochastic
	// behaviour never depends on the order in which other processors
	// draw — the property that lets contention-set shards run
	// concurrently. The streams are stored inline (sim.RNG is a single
	// word) so the sweep reads them off one flat array instead of chasing
	// per-processor heap pointers.
	rngs []sim.RNG

	// ports[portIndex(module, set)] is the port's busy-until slot.
	ports []sim.Slot

	state       []procState
	wakeAt      []sim.Slot
	doneAt      []sim.Slot
	issuedAt    []sim.Slot
	nextArrival []sim.Slot
	backlog     []sim.Queue[sim.Slot] //cfm:soa-ok FIFO headers are flat; buffers are checkpointed state
	// targetMod is int32 (and procState uint8): narrowing the swept
	// arrays shrinks the per-slot cache footprint — snapshots encode
	// through enc.Int either way, so the width is invisible to them.
	targetMod []int32

	// nextEvent[j] caches the earliest slot at which the processor stored
	// at j has any work: its next open-loop arrival, retry wake, or
	// completion — exactly the per-processor minimum Horizon folds. The
	// shard sweep consults this ONE dense array and skips a processor
	// entirely while t < nextEvent[j]; the skipped iterations are no-ops
	// (no state change, no RNG draw), so a quiescent processor costs one
	// step of the due-list scan instead of a walk over every
	// per-processor array. Derived state: rebuilt after LoadState, never
	// serialized.
	//cfm:rebuilt
	nextEvent []sim.Slot
	// setNext[s] bounds contention set s's due list: either the exact
	// minimum of the set's nextEvent range, or setStale once the set has
	// ticked since that minimum was taken. While t < setNext[s] no
	// processor of the set is due, so TickShard returns at once and the
	// set stages nothing; Horizon re-takes the minimum of the stale sets
	// only, and the folds skip every set that is not stale. A set that is
	// due every slot stays stale and is scanned as before. Derived state:
	// rebuilt after LoadState, never serialized.
	//cfm:rebuilt
	setNext []sim.Slot
	// due is TickShard's scratch list of the set's due processors, as
	// offsets within the set, in the set's own range [s·m, (s+1)·m) so
	// shards never share it. It is written only through p.due[base+k]:
	// the shard-purity lint cannot prove a write through a local
	// sub-slice of it shard-owned.
	//cfm:no-save sweep scratch, rebuilt from nextEvent at the top of every TickShard
	due []int32
	// home[j] is the home module of the processor stored at j,
	// materialized from the configuration so the issue path reads a flat
	// array instead of re-deriving Cluster(i) (an integer division) per
	// event. cs and bt likewise pin ClusterSize and BlockTime, both
	// derived by division in the config accessors, as plain loads for the
	// per-event paths.
	home []int32
	cs   int
	bt   sim.Slot

	// stage buffers per-shard measurement deltas, folded by FinishShards
	// (per slot) or FinishEpoch (per batched episode).
	//cfm:no-save fold scratch, drained by FinishShards/FinishEpoch before any checkpoint boundary
	stage []partialStage //cfm:soa-ok fold scratch, one element per shard, not swept per processor
	// epochCursors is FinishEpoch's slot-major merge scratch, one cursor
	// per shard (preallocated; the fold must stay alloc-free).
	//cfm:no-save merge scratch, re-zeroed at the top of every FinishEpoch fold
	epochCursors []int

	// Measurements.
	Completed    int64
	Retries      int64
	TotalLatency int64
	LocalAcc     int64
	RemoteAcc    int64

	// Registry handles (nil when unobserved). All adds happen in
	// FinishShards from staged deltas, so snapshots are deterministic at
	// any worker count; latencies for the histogram are staged per shard
	// only when instrumented, keeping the uninstrumented hot path free of
	// extra work (the <2% engine-bench budget).
	mCompleted *metrics.Counter
	mRetries   *metrics.Counter
	mLatency   *metrics.Counter
	mLocal     *metrics.Counter
	mRemote    *metrics.Counter
	mLatHist   *metrics.Histogram

	// Flight recorder (nil when unobserved). All stages happen in shard
	// context, so events are staged per contention set and folded in
	// FinishShards in ascending shard order.
	flt *flight.Recorder
}

// partialStage buffers one contention-set shard's measurement deltas.
type partialStage struct {
	completed    int64
	retries      int64
	totalLatency int64
	localAcc     int64
	remoteAcc    int64
	lats         []int64 // per-access latencies, staged only when instrumented
	flights      []flight.Event
}

// procState is uint8 so a 4096-processor state array occupies 4KB, not
// 32: the sweep touches it every event, and the narrow form keeps it
// resident next to the other hot arrays.
type procState uint8

const (
	procIdle procState = iota
	procWaiting
	procInFlight
)

// setStale marks a setNext entry whose minimum is out of date. No slot is
// below it, so a stale set is always scanned.
const setStale sim.Slot = -1

// NewPartial builds the simulator; it panics on invalid configuration.
func NewPartial(cfg PartialConfig) *Partial {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.Processors
	p := &Partial{
		cfg:          cfg,
		rngs:         make([]sim.RNG, n),
		ports:        make([]sim.Slot, cfg.Modules*cfg.ClusterSize()),
		state:        make([]procState, n),
		wakeAt:       make([]sim.Slot, n),
		doneAt:       make([]sim.Slot, n),
		issuedAt:     make([]sim.Slot, n),
		nextArrival:  make([]sim.Slot, n),
		backlog:      make([]sim.Queue[sim.Slot], n),
		targetMod:    make([]int32, n),
		nextEvent:    make([]sim.Slot, n),
		setNext:      make([]sim.Slot, cfg.ClusterSize()),
		due:          make([]int32, n),
		home:         make([]int32, n),
		cs:           cfg.ClusterSize(),
		bt:           sim.Slot(cfg.BlockTime()),
		stage:        make([]partialStage, cfg.ClusterSize()),
		epochCursors: make([]int, cfg.ClusterSize()),
	}
	seeder := sim.NewRNG(cfg.Seed)
	for i := 0; i < n; i++ {
		j := p.idx(i)
		p.rngs[j] = *seeder.Split()
		p.home[j] = int32(cfg.Home(i))
		if cfg.Home(i) < 0 {
			p.nextArrival[j] = 1 << 60 // idle processor: no traffic
			p.nextEvent[j] = p.nextArrival[j]
			continue
		}
		p.nextArrival[j] = sim.Slot(p.thinkTime(j))
		p.nextEvent[j] = p.nextArrival[j]
	}
	p.refreshSets()
	return p
}

// refreshSets sets every contention set's bound to the exact minimum of
// its nextEvent range.
func (p *Partial) refreshSets() {
	for s := range p.setNext {
		p.setNext[s] = p.setMin(s)
	}
}

// setMin returns the earliest nextEvent of contention set s.
func (p *Partial) setMin(s int) sim.Slot {
	m := p.cfg.Modules
	h := sim.HorizonNone
	for _, v := range p.nextEvent[s*m : (s+1)*m] {
		h = min(h, v)
	}
	return h
}

// idx returns processor i's index in the set-major per-processor arrays.
func (p *Partial) idx(i int) int { return i%p.cs*p.cfg.Modules + i/p.cs }

// procOf returns the processor id stored at index j of contention set
// set — the inverse of idx, for span IDs and actors.
func (p *Partial) procOf(j, set int) int { return (j-set*p.cfg.Modules)*p.cs + set }

// portIndex returns the index of (module, set)'s port.
func (p *Partial) portIndex(mod, set int) int { return set*p.cfg.Modules + mod }

// Instrument attaches registry metrics: completion/retry/latency and
// local-vs-remote counters plus an access-latency histogram (bin width
// β, so the first bin is the conflict-free service time). Call before
// running; a nil registry leaves the simulator unobserved.
func (p *Partial) Instrument(r *metrics.Registry) {
	if r == nil {
		return
	}
	p.mCompleted = r.Counter("partial_completed_total")
	p.mRetries = r.Counter("partial_retries_total")
	p.mLatency = r.Counter("partial_latency_cycles_total")
	p.mLocal = r.Counter("partial_local_accesses_total")
	p.mRemote = r.Counter("partial_remote_accesses_total")
	p.mLatHist = r.Histogram("partial_access_latency", int64(p.cfg.BlockTime()))
}

// RecordFlight attaches a flight recorder: each access spans from its
// issue to its retire, with a bank-enqueue event per port conflict and
// a bank-service event when a (module, set) port is acquired. Call
// before running; nil detaches.
func (p *Partial) RecordFlight(r *flight.Recorder) { p.flt = r }

// thinkTime, retryDelay and pickModule draw from the stream of the
// processor stored at index j.
func (p *Partial) thinkTime(j int) int {
	if p.cfg.AccessRate <= 0 {
		return 1 << 30
	}
	return p.rngs[j].Geometric(p.cfg.AccessRate)
}

func (p *Partial) retryDelay(j int) int {
	g := p.cfg.RetryMean
	if g == 1 {
		return 1
	}
	return 1 + p.rngs[j].Intn(2*g-1)
}

// pickModule applies the locality model: probability λ of the HOME
// module (the placed job's data), otherwise uniform over the m−1 other
// modules. LocalAcc counts home-module accesses whether or not the home
// coincides with the processor's own cluster; the counts are staged in
// the processor's contention-set shard.
func (p *Partial) pickModule(j int, st *partialStage) int {
	local := int(p.home[j])
	if p.cfg.Modules == 1 || p.rngs[j].Bernoulli(p.cfg.Locality) {
		st.localAcc++
		return local
	}
	st.remoteAcc++
	mod := p.rngs[j].Intn(p.cfg.Modules - 1)
	if mod >= local {
		mod++
	}
	return mod
}

// Tick implements sim.Ticker by delegating to the shard path, so the
// serial and parallel engines run one sweep.
func (p *Partial) Tick(t sim.Slot, ph sim.Phase) { sim.SerialTick(p, t, ph) }

// PhaseMask implements sim.PhaseMasker: all the work is in PhaseIssue, so
// the engines skip the other three phases entirely.
func (p *Partial) PhaseMask() sim.PhaseMask { return sim.MaskOf(sim.PhaseIssue) }

// Horizon implements sim.Horizoner. A settled TickShard leaves every
// processor idle with an empty backlog, waiting with a wake slot, or in
// flight with a completion slot, so the next observable work is the
// earliest of those events or the next open-loop arrival. Think times
// and retry delays are drawn at event time from per-processor streams —
// no event, no draw — so a jump leaves every stream bit-identical.
//
// The fold re-takes the minimum of the sets that ticked since the last
// call (setStale) and reads the others' bounds as they are; that refresh
// touches derived state only. It relies on the Horizoner contract that
// every FinishShards of the settled slot has run, since a refreshed set
// is skipped by the folds.
func (p *Partial) Horizon(now sim.Slot) sim.Slot {
	h := sim.HorizonNone
	for s, v := range p.setNext {
		if v == setStale {
			v = p.setMin(s)
			p.setNext[s] = v
		}
		h = min(h, v)
	}
	return max(h, now)
}

// Shards implements sim.Shardable: one shard per contention set. Two
// processors interact only through the busy-until state of (module, set)
// ports, and a processor in set s only ever touches set-s ports — so
// partitioning by ContentionSet puts every pair of potentially
// conflicting processors in the same shard.
func (p *Partial) Shards() int { return p.cfg.ClusterSize() }

// TickShard implements sim.Shardable: advance every processor of
// contention set s — its own contiguous range of every array — in
// ascending processor order. That within-set order is the only ordering
// the serial/parallel equivalence needs: sets share no port and no
// stage buffer, and FinishShards folds the stages in set order.
//
// A set whose bound is ahead of t has no due processor and returns at
// once. A set that ticks marks its bound stale, writing the mark only if
// it is not there yet, so a set that is due every slot writes setNext
// once and never again.
func (p *Partial) TickShard(t sim.Slot, ph sim.Phase, s int) {
	if t < p.setNext[s] {
		return
	}
	if p.setNext[s] != setStale {
		p.setNext[s] = setStale
	}
	st := &p.stage[s]
	base := s * p.cfg.Modules
	// First compact the due processors (t >= nextEvent) into the set's
	// range of the due scratch without a branch: the index is always
	// written, and k advances by the sign bit of nextEvent−t−1. A
	// quiescent processor thus costs a store and an add, and no
	// mispredicted jump. Ticking the list afterwards is the same as
	// testing in the sweep, since tickProc(j) changes no other
	// processor's nextEvent.
	k := 0
	for c, ne := range p.nextEvent[base : base+p.cfg.Modules] {
		p.due[base+k] = int32(c)
		k += int(uint64(ne-t-1) >> 63)
	}
	for _, c := range p.due[base : base+k] {
		p.tickProc(t, base+int(c), s, st)
	}
}

// tickProc advances the processor stored at index j (in contention set
// set) at slot t, staging measurement deltas into the set's stage buffer
// st. The caller guarantees t >= nextEvent[j].
func (p *Partial) tickProc(t sim.Slot, j, set int, st *partialStage) {
	for t >= p.nextArrival[j] {
		p.backlog[j].Push(p.nextArrival[j])
		p.nextArrival[j] += sim.Slot(p.thinkTime(j))
	}
	switch p.state[j] {
	case procInFlight:
		if t >= p.doneAt[j] {
			st.completed++
			st.totalLatency += int64(p.doneAt[j] - p.issuedAt[j])
			if p.mLatHist != nil {
				st.lats = append(st.lats, int64(p.doneAt[j]-p.issuedAt[j]))
			}
			if p.flt.Enabled() {
				proc := p.procOf(j, set)
				st.flights = append(st.flights, flight.Event{
					ID: flight.ComposeID(proc, p.issuedAt[j]), Slot: t,
					Stage: flight.StageRetire, Actor: int32(proc),
					Arg: int64(p.doneAt[j] - p.issuedAt[j])})
			}
			p.state[j] = procIdle
		}
	case procWaiting:
		if t >= p.wakeAt[j] {
			p.attempt(t, j, set, st)
		}
	}
	if p.state[j] == procIdle && !p.backlog[j].Empty() {
		p.backlog[j].Pop()
		p.targetMod[j] = int32(p.pickModule(j, st))
		p.issuedAt[j] = t
		if p.flt.Enabled() {
			proc := p.procOf(j, set)
			st.flights = append(st.flights, flight.Event{
				ID: flight.ComposeID(proc, t), Slot: t,
				Stage: flight.StageIssue, Actor: int32(proc),
				Arg: int64(p.targetMod[j])})
		}
		p.attempt(t, j, set, st)
	}
	p.nextEvent[j] = p.eventSlot(j)
}

// eventSlot computes the earliest upcoming event of the processor stored
// at j. A settled processor is idle with an empty backlog (anything
// queued would have issued this slot), waiting with a wake slot, or in
// flight with a completion slot, so the earliest of those and the next
// open-loop arrival bounds its quiescence.
func (p *Partial) eventSlot(j int) sim.Slot {
	ne := p.nextArrival[j]
	switch p.state[j] {
	case procWaiting:
		if p.wakeAt[j] < ne {
			ne = p.wakeAt[j]
		}
	case procInFlight:
		if p.doneAt[j] < ne {
			ne = p.doneAt[j]
		}
	}
	return ne
}

// FinishShards implements sim.ShardFinalizer: fold the per-shard
// measurement deltas into the public counters in shard order. Only a
// stale set can have staged anything since the last Horizon.
func (p *Partial) FinishShards(t sim.Slot, ph sim.Phase) {
	p.foldCounters()
	for s := range p.stage {
		if p.setNext[s] != setStale {
			continue
		}
		st := &p.stage[s]
		for _, ev := range st.flights {
			p.flt.Append(ev) //cfm:flight-ok fold drain; st.flights stays empty while recording is off
		}
		st.flights = st.flights[:0]
	}
}

// foldCounters folds and clears the staged counters and latencies of
// every set that ticked since the last Horizon (the others staged
// nothing). The deltas are summed first so each total and registry
// counter (an atomic) takes one add per fold, not one per shard.
func (p *Partial) foldCounters() {
	var completed, retries, latency, local, remote int64
	for s := range p.stage {
		if p.setNext[s] != setStale {
			continue
		}
		st := &p.stage[s]
		completed += st.completed
		retries += st.retries
		latency += st.totalLatency
		local += st.localAcc
		remote += st.remoteAcc
		for _, l := range st.lats {
			p.mLatHist.Observe(l)
		}
		// Field-wise reset keeps the lats capacity for the next fold.
		st.completed, st.retries, st.totalLatency = 0, 0, 0
		st.localAcc, st.remoteAcc = 0, 0
		st.lats = st.lats[:0]
	}
	p.Completed += completed
	p.Retries += retries
	p.TotalLatency += latency
	p.LocalAcc += local
	p.RemoteAcc += remote
	p.mCompleted.Add(completed)
	p.mRetries.Add(retries)
	p.mLatency.Add(latency)
	p.mLocal.Add(local)
	p.mRemote.Add(remote)
}

// EpochSafe implements sim.EpochSafeTicker: Partial has global shard
// closure, not just per-phase independence. A contention-set shard s
// touches only shard-owned state — its range [s·m, (s+1)·m) of every
// per-processor array (RNG streams included), the same range of ports
// (portIndex(·, s)), and stage[s] — in every phase of every slot, and
// Partial never parks, so the parallel engine may run shard s through a
// whole multi-slot episode before shard s′ has started it.
func (p *Partial) EpochSafe() bool { return true }

// FinishEpoch implements sim.EpochFinisher: one fold for the whole
// episode [from, to), leaving every sink byte-identical to per-slot
// FinishShards calls. Counters and the latency histogram are
// commutative, so a single fold in shard order suffices; the flight
// stream is order-sensitive, so the per-shard staged streams — each
// slot-nondecreasing, because a shard runs the episode's slots in
// order — are merged slot-major with per-shard cursors, reproducing
// the serial (slot, shard, emission) order exactly.
func (p *Partial) FinishEpoch(from, to sim.Slot) {
	p.foldCounters()
	if p.flt.Enabled() {
		for s := range p.epochCursors {
			p.epochCursors[s] = 0
		}
		for t := from; t < to; t++ {
			for s := range p.stage {
				evs := p.stage[s].flights
				c := p.epochCursors[s]
				for c < len(evs) && evs[c].Slot <= t {
					p.flt.Append(evs[c])
					c++
				}
				p.epochCursors[s] = c
			}
		}
	}
	for s := range p.stage {
		p.stage[s].flights = p.stage[s].flights[:0]
	}
}

// attempt tries to acquire the (target module, set) port for the
// processor stored at j: a busy port schedules a retry, a free one is
// held for β slots.
func (p *Partial) attempt(t sim.Slot, j, set int, st *partialStage) {
	port := p.portIndex(int(p.targetMod[j]), set)
	if t < p.ports[port] {
		st.retries++
		p.state[j] = procWaiting
		p.wakeAt[j] = t + sim.Slot(p.retryDelay(j))
		if p.flt.Enabled() {
			st.flights = append(st.flights, flight.Event{
				ID: flight.ComposeID(p.procOf(j, set), p.issuedAt[j]), Slot: t,
				Stage: flight.StageBankEnqueue, Actor: int32(p.targetMod[j]),
				Arg: int64(p.wakeAt[j] - t)})
		}
		return
	}
	p.ports[port] = t + p.bt
	p.state[j] = procInFlight
	p.doneAt[j] = t + p.bt
	if p.flt.Enabled() {
		st.flights = append(st.flights, flight.Event{
			ID: flight.ComposeID(p.procOf(j, set), p.issuedAt[j]), Slot: t,
			Stage: flight.StageBankService, Actor: int32(p.targetMod[j]),
			Arg: int64(p.bt)})
	}
}

// Efficiency returns β divided by the mean observed access time.
func (p *Partial) Efficiency() float64 {
	if p.Completed == 0 {
		return 1
	}
	return float64(p.cfg.BlockTime()) / (float64(p.TotalLatency) / float64(p.Completed))
}

// MeanLatency returns the mean access time in cycles.
func (p *Partial) MeanLatency() float64 {
	if p.Completed == 0 {
		return 0
	}
	return float64(p.TotalLatency) / float64(p.Completed)
}
