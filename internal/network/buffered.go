package network

import (
	"fmt"
	"math/bits"
	"slices"

	"cfm/internal/flight"
	"cfm/internal/metrics"
	"cfm/internal/sim"
)

// Packet is one memory access request traversing a buffered MIN.
type Packet struct {
	// ID is the packet's flight-recorder identity, composed at injection
	// from the source terminal and birth slot. It rides the packet (and
	// the checkpoint format) because hops happen columns away from the
	// injection site.
	ID   uint64
	Dest int
	Born sim.Slot
	Hot  bool // part of the hot-spot traffic, for separate accounting
}

// BufferedConfig parameterizes the buffered packet-switched MIN used to
// reproduce the tree-saturation effect of Fig. 2.1.
type BufferedConfig struct {
	Terminals   int     // N processors and N memory modules
	QueueCap    int     // per-switch-output queue capacity
	ServiceTime int     // module service time per request, CPU cycles
	Rate        float64 // per-processor injection rate, requests/cycle
	HotFraction float64 // fraction of requests directed at HotModule
	HotModule   int
	Seed        uint64
}

// Validate reports a descriptive error for an unusable configuration.
func (c BufferedConfig) Validate() error {
	if _, err := Log2(c.Terminals); err != nil {
		return err
	}
	switch {
	case c.QueueCap < 1:
		return fmt.Errorf("network: queue capacity %d < 1", c.QueueCap)
	case c.ServiceTime < 1:
		return fmt.Errorf("network: service time %d < 1", c.ServiceTime)
	// Range checks are negated so NaN, which fails every comparison,
	// is rejected too.
	case !(c.Rate >= 0 && c.Rate <= 1):
		return fmt.Errorf("network: rate %v out of [0,1]", c.Rate)
	case !(c.HotFraction >= 0 && c.HotFraction <= 1):
		return fmt.Errorf("network: hot fraction %v out of [0,1]", c.HotFraction)
	case c.HotModule < 0 || c.HotModule >= c.Terminals:
		return fmt.Errorf("network: hot module %d out of range", c.HotModule)
	}
	return nil
}

// BufferedOmega simulates a packet-switched omega network with finite
// per-output queues at every switch, the architecture in which a hot spot
// causes tree saturation (§2.1, Fig. 2.1): the queues feeding the hot
// memory module fill, back-pressure blocks the switches behind them, and
// eventually traffic to *other* modules stalls in the saturated tree.
// It implements sim.Ticker.
//
// At Rate > 0 every terminal draws an injection Bernoulli every live
// slot, so Horizon pins now: a skipped slot would skip draws and shift
// the streams.
//
//cfm:rng=slot
//cfm:soa
type BufferedOmega struct {
	cfg BufferedConfig
	o   *Omega
	// rngs holds one independent injection stream per processor (split
	// from the config seed), so terminal shards draw independently. The
	// streams are stored inline (sim.RNG is a single word), so the
	// injection sweep reads one flat array instead of chasing pointers.
	rngs []sim.RNG

	inject []sim.Queue[Packet] //cfm:soa-ok FIFO headers are flat; buffers are checkpointed state
	// q holds every switch-output queue in one column-major slab:
	// q[j*Terminals+i] is output position i of column j. The flat layout
	// keeps the column sweep on consecutive queue headers instead of
	// hopping between per-column allocations; the checkpoint still emits
	// the nested column/position counts, so snapshot bytes are unchanged.
	q []sim.Queue[Packet] //cfm:soa-ok FIFO headers are flat; buffers are checkpointed state
	// rr is the per-switch round-robin arbiter state, flattened the same
	// way: rr[j*SwitchesPerColumn+sw].
	rr   []int
	busy []sim.Slot // per-module busy-until

	// Occupancy counts form the column sweep's active set: a column whose
	// upstream (the previous column, or the source queues for column 0)
	// holds no packets cannot move anything and is skipped. The counts are
	// mutated only in serial context — tryMove during the sweep, and the
	// FinishShards fold, which turns the per-shard injected/delivered
	// deltas into source/last-column adjustments.
	injectCount int
	colCount    []int
	// occ refines the active set to switches: occ[j*occWords+w] bit b is
	// set when the queue feeding input position w*64+b of column j is
	// non-empty, so the sweep visits only switches with a packet waiting.
	// full[j] counts column j's queues at capacity (the saturation
	// tree's footprint). Both are derived from the queues, kept up to
	// date by tryMove and the fold, and recounted by LoadState.
	//cfm:rebuilt recounted from the restored queues
	occ      []uint64
	occWords int
	//cfm:rebuilt recounted from the restored queues
	full []int

	// stage buffers per-terminal measurement deltas, folded by
	// FinishShards.
	//cfm:no-save fold scratch, drained by FinishShards before any checkpoint boundary
	stage []bufferedStage //cfm:soa-ok fold scratch, one element per terminal shard

	// Measurements, split by traffic class.
	Injected        int64
	DeliveredBg     int64
	DeliveredHot    int64
	LatencyBgTotal  int64
	LatencyHotTotal int64

	// Registry handles (nil when unobserved). Counters are added to and
	// gauges set from FinishShards — the single-threaded column sweep —
	// so snapshots are deterministic at any worker count. The per-stage
	// occupancy gauges drive the network-occupancy observatory view.
	mInjected   *metrics.Counter
	mDelivBg    *metrics.Counter
	mDelivHot   *metrics.Counter
	mLatBg      *metrics.Counter
	mLatHot     *metrics.Counter
	mBlocked    *metrics.Counter
	mQueued     *metrics.Gauge
	mBacklog    *metrics.Gauge
	mStageQueue []*metrics.Gauge //cfm:soa-ok cold observation handles, set once per settle
	mStageFull  []*metrics.Gauge //cfm:soa-ok cold observation handles, set once per settle

	// Flight recorder (nil when unobserved). Inject and retire events
	// happen in terminal shards and are staged; hop events are emitted
	// directly from the column sweep, which runs in FinishShards.
	flt *flight.Recorder
}

// bufferedStage buffers one terminal shard's measurement deltas.
type bufferedStage struct {
	injected        int64
	deliveredBg     int64
	deliveredHot    int64
	latencyBgTotal  int64
	latencyHotTotal int64
	// unfull counts pops from a full last-column queue; the fold takes
	// them off full, which shards must not touch.
	unfull  int
	flights []flight.Event
}

// NewBufferedOmega builds the simulator. It panics on invalid
// configuration.
func NewBufferedOmega(cfg BufferedConfig) *BufferedOmega {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	o := MustOmega(cfg.Terminals)
	occWords := (cfg.Terminals + 63) / 64
	b := &BufferedOmega{
		cfg:      cfg,
		o:        o,
		rngs:     make([]sim.RNG, cfg.Terminals),
		inject:   make([]sim.Queue[Packet], cfg.Terminals),
		q:        make([]sim.Queue[Packet], o.Columns()*cfg.Terminals),
		rr:       make([]int, o.Columns()*o.SwitchesPerColumn()),
		busy:     make([]sim.Slot, cfg.Terminals),
		colCount: make([]int, o.Columns()),
		occ:      make([]uint64, o.Columns()*occWords),
		occWords: occWords,
		full:     make([]int, o.Columns()),
		stage:    make([]bufferedStage, cfg.Terminals),
	}
	seeder := sim.NewRNG(cfg.Seed)
	for p := range b.rngs {
		b.rngs[p] = *seeder.Split()
	}
	return b
}

// colQ returns the switch-output queue at position i of column j.
func (b *BufferedOmega) colQ(j, i int) *sim.Queue[Packet] {
	return &b.q[j*b.cfg.Terminals+i]
}

// occupy marks input position pos of column j as fed by a non-empty
// queue; vacate clears it.
func (b *BufferedOmega) occupy(j, pos int) { b.occ[j*b.occWords+pos>>6] |= 1 << (pos & 63) }
func (b *BufferedOmega) vacate(j, pos int) { b.occ[j*b.occWords+pos>>6] &^= 1 << (pos & 63) }

// recount rebuilds the derived occupancy state — the switch bitmaps and
// the full-queue counts — from the queues themselves.
func (b *BufferedOmega) recount() {
	k := b.o.Columns()
	clear(b.occ)
	clear(b.full)
	for p := range b.inject {
		if !b.inject[p].Empty() {
			b.occupy(0, shuffle(p, k))
		}
	}
	for j := 0; j < k; j++ {
		for i := 0; i < b.cfg.Terminals; i++ {
			q := b.colQ(j, i)
			if q.Len() >= b.cfg.QueueCap {
				b.full[j]++
			}
			if j+1 < k && !q.Empty() {
				b.occupy(j+1, shuffle(i, k))
			}
		}
	}
}

// Instrument attaches registry metrics: injection/delivery/latency
// counters split by traffic class, a blocked-move counter (back-pressure
// events), and occupancy gauges overall and per network stage. Call
// before running; a nil registry leaves the network unobserved.
func (b *BufferedOmega) Instrument(r *metrics.Registry) {
	if r == nil {
		return
	}
	b.mInjected = r.Counter("net_injected_total")
	b.mDelivBg = r.Counter("net_delivered_bg_total")
	b.mDelivHot = r.Counter("net_delivered_hot_total")
	b.mLatBg = r.Counter("net_latency_bg_cycles_total")
	b.mLatHot = r.Counter("net_latency_hot_cycles_total")
	b.mBlocked = r.Counter("net_blocked_moves_total")
	b.mQueued = r.Gauge("net_queued_packets")
	b.mBacklog = r.Gauge("net_source_backlog")
	cols := b.o.Columns()
	b.mStageQueue = make([]*metrics.Gauge, cols)
	b.mStageFull = make([]*metrics.Gauge, cols)
	for j := 0; j < cols; j++ {
		b.mStageQueue[j] = r.Gauge(fmt.Sprintf(`net_stage_queued{stage="%d"}`, j))
		b.mStageFull[j] = r.Gauge(fmt.Sprintf(`net_stage_full_queues{stage="%d"}`, j))
	}
}

// RecordFlight attaches a flight recorder: each packet spans from its
// net-inject to its retire at the destination module, with one hop
// event per column it clears. Call before running; nil detaches.
func (b *BufferedOmega) RecordFlight(r *flight.Recorder) { b.flt = r }

// Tick implements sim.Ticker by delegating to the shard path, so the
// serial and parallel engines execute identical code. Injection happens
// in PhaseIssue; movement (sinks first, then columns back to front, so
// freed space propagates upstream within the slot like combinational
// back-pressure) happens in PhaseTransfer.
func (b *BufferedOmega) Tick(t sim.Slot, ph sim.Phase) { sim.SerialTick(b, t, ph) }

// PhaseMask implements sim.PhaseMasker: the network is idle during
// PhaseConnect and PhaseUpdate.
func (b *BufferedOmega) PhaseMask() sim.PhaseMask {
	return sim.MaskOf(sim.PhaseIssue, sim.PhaseTransfer)
}

// Horizon implements sim.Horizoner. At Rate > 0 every terminal draws an
// injection Bernoulli every slot, so skipping would desynchronize the
// streams: the horizon is pinned to now. At Rate 0 (replay/drain runs)
// Bernoulli(0) consumes no state, so the network is quiescent exactly
// when no packet sits in a source queue or switch column.
func (b *BufferedOmega) Horizon(now sim.Slot) sim.Slot {
	if b.cfg.Rate > 0 {
		return now
	}
	if b.injectCount > 0 {
		return now
	}
	for _, n := range b.colCount {
		if n > 0 {
			return now
		}
	}
	return sim.HorizonNone
}

// Shards implements sim.Shardable: one shard per terminal. Injection
// touches only source queue p and its private stream; sink draining
// touches only module m's busy state and last-column queue. The
// store-and-forward column sweep, which couples every queue through
// back-pressure, stays single-threaded in FinishShards.
func (b *BufferedOmega) Shards() int { return b.cfg.Terminals }

// TickShard implements sim.Shardable.
func (b *BufferedOmega) TickShard(t sim.Slot, ph sim.Phase, s int) {
	switch ph {
	case sim.PhaseIssue:
		b.injectNew(t, s)
	case sim.PhaseTransfer:
		b.drainSink(t, s)
	}
}

// FinishShards implements sim.ShardFinalizer: fold the per-terminal
// measurement deltas and, in PhaseTransfer, run the sequential column
// sweep that the drained sinks just made room for.
func (b *BufferedOmega) FinishShards(t sim.Slot, ph sim.Phase) {
	last := b.o.Columns() - 1
	// The deltas are summed first so each total and registry counter
	// (an atomic) takes one add per fold, not one per terminal.
	var injected, delivBg, delivHot, latBg, latHot int64
	unfull := 0
	for s := range b.stage {
		st := &b.stage[s]
		if st.injected > 0 {
			// Source queue s feeds column 0's input shuffle(s).
			b.occupy(0, shuffle(s, last+1))
		}
		unfull += st.unfull
		injected += st.injected
		delivBg += st.deliveredBg
		delivHot += st.deliveredHot
		latBg += st.latencyBgTotal
		latHot += st.latencyHotTotal
		b.flt.AppendAll(st.flights) //cfm:flight-ok fold drain; st.flights stays empty while recording is off
		// Field-wise reset keeps the flights capacity for the next slot.
		st.injected, st.deliveredBg, st.deliveredHot = 0, 0, 0
		st.latencyBgTotal, st.latencyHotTotal, st.unfull = 0, 0, 0
		st.flights = st.flights[:0]
	}
	b.Injected += injected
	b.DeliveredBg += delivBg
	b.DeliveredHot += delivHot
	b.LatencyBgTotal += latBg
	b.LatencyHotTotal += latHot
	b.injectCount += int(injected)
	b.colCount[last] -= int(delivBg + delivHot)
	b.full[last] -= unfull
	b.mInjected.Add(injected)
	b.mDelivBg.Add(delivBg)
	b.mDelivHot.Add(delivHot)
	b.mLatBg.Add(latBg)
	b.mLatHot.Add(latHot)
	if ph == sim.PhaseTransfer {
		for j := last; j >= 0; j-- {
			// Active set: a column with an empty upstream has no candidate
			// moves — nothing to arbitrate, block, or count.
			upstream := b.injectCount
			if j > 0 {
				upstream = b.colCount[j-1]
			}
			if upstream == 0 {
				continue
			}
			b.advanceColumn(t, j)
		}
		if b.mQueued != nil {
			b.mQueued.Set(int64(b.QueuedPackets()))
			b.mBacklog.Set(int64(b.SourceBacklog()))
			for j := range b.mStageQueue {
				b.mStageQueue[j].Set(int64(b.colCount[j]))
				b.mStageFull[j].Set(int64(b.full[j]))
			}
		}
	}
}

// injectNew generates terminal p's new request for this slot, if any.
func (b *BufferedOmega) injectNew(t sim.Slot, p int) {
	rng := &b.rngs[p]
	if !rng.Bernoulli(b.cfg.Rate) {
		return
	}
	pk := Packet{ID: flight.ComposeID(p, t), Born: t}
	if rng.Bernoulli(b.cfg.HotFraction) {
		pk.Dest = b.cfg.HotModule
		pk.Hot = true
	} else {
		pk.Dest = rng.Intn(b.cfg.Terminals)
	}
	b.inject[p].Push(pk)
	b.stage[p].injected++
	if b.flt.Enabled() {
		b.stage[p].flights = append(b.stage[p].flights, flight.Event{
			ID: pk.ID, Slot: t, Stage: flight.StageNetInject,
			Actor: int32(p), Arg: int64(pk.Dest)})
	}
}

// drainSink lets memory module m, if idle, consume the packet at the
// head of its last-column queue.
func (b *BufferedOmega) drainSink(t sim.Slot, m int) {
	sink := b.colQ(b.o.Columns()-1, m)
	if t < b.busy[m] || sink.Empty() {
		return
	}
	st := &b.stage[m]
	if sink.Len() >= b.cfg.QueueCap {
		st.unfull++
	}
	pk := sink.Pop()
	b.busy[m] = t + sim.Slot(b.cfg.ServiceTime)
	lat := int64(t + sim.Slot(b.cfg.ServiceTime) - pk.Born)
	if pk.Hot {
		st.deliveredHot++
		st.latencyHotTotal += lat
	} else {
		st.deliveredBg++
		st.latencyBgTotal += lat
	}
	if b.flt.Enabled() {
		st.flights = append(st.flights,
			flight.Event{ID: pk.ID, Slot: t, Stage: flight.StageBankService,
				Actor: int32(m), Arg: int64(b.cfg.ServiceTime)},
			flight.Event{ID: pk.ID, Slot: t, Stage: flight.StageRetire,
				Actor: int32(m), Arg: lat})
	}
}

// upstream returns the queue feeding input line pos of column j.
func (b *BufferedOmega) upstream(j, pos int) *sim.Queue[Packet] {
	src := unshuffle(pos, b.o.Columns())
	if j == 0 {
		return &b.inject[src]
	}
	return b.colQ(j-1, src)
}

// advanceColumn moves up to one packet through each switch output of
// column j, honouring queue capacities and a per-switch round-robin
// arbiter when both inputs contend for the same output. Only switches
// with an occupied input are visited, in ascending order, so arbitration
// matches a sweep over every switch. It runs inside FinishShards'
// sequential sweep, so the hop events tryMove emits land in the recorder
// in deterministic order.
func (b *BufferedOmega) advanceColumn(t sim.Slot, j int) {
	k := b.o.Columns()
	type cand struct {
		pos, out int
	}
	row := b.occ[j*b.occWords : (j+1)*b.occWords]
	for w := range row {
		// A snapshot of the word: moves at switch sw clear only sw's own
		// bits of this column (and set bits of column j+1), so the
		// snapshot stays exact for the switches still ahead.
		word := row[w]
		for word != 0 {
			sw := (w<<6 + bits.TrailingZeros64(word)) >> 1
			word &^= 3 << (sw << 1 & 63)
			var cands [2]cand
			nc := 0
			for in := 0; in < 2; in++ {
				pos := sw<<1 | in
				if row[pos>>6]&(1<<(pos&63)) != 0 {
					dest := b.upstream(j, pos).Peek().Dest
					cands[nc] = cand{pos: pos, out: sw<<1 | (dest>>(k-1-j))&1}
					nc++
				}
			}
			if nc == 1 || cands[0].out != cands[1].out {
				for _, c := range cands[:nc] {
					b.tryMove(t, j, c.pos, c.out)
				}
				continue
			}
			// Contention for one output: alternate which input wins.
			arb := j*b.o.SwitchesPerColumn() + sw
			first := b.rr[arb] & 1
			b.rr[arb]++
			if b.tryMove(t, j, cands[first].pos, cands[first].out) {
				continue
			}
			b.tryMove(t, j, cands[1-first].pos, cands[1-first].out)
		}
	}
}

// tryMove pushes the head packet at input pos of column j into q[j][out]
// if there is room, consuming it from its source queue and updating the
// occupancy counts, bitmaps and full counts. It reports whether the move
// happened.
func (b *BufferedOmega) tryMove(t sim.Slot, j, pos, out int) bool {
	dst := b.colQ(j, out)
	if dst.Len() >= b.cfg.QueueCap {
		b.mBlocked.Inc() // runs inside FinishShards' sweep: deterministic
		return false
	}
	src := b.upstream(j, pos)
	if j > 0 && src.Len() >= b.cfg.QueueCap {
		b.full[j-1]--
	}
	pk := src.Pop()
	if src.Empty() {
		b.vacate(j, pos)
	}
	dst.Push(pk)
	if dst.Len() >= b.cfg.QueueCap {
		b.full[j]++
	}
	if j == 0 {
		b.injectCount--
	} else {
		b.colCount[j-1]--
	}
	b.colCount[j]++
	if k := b.o.Columns(); j+1 < k {
		b.occupy(j+1, shuffle(out, k))
	}
	if b.flt.Enabled() {
		b.flt.Emit(pk.ID, t, flight.StageHop, int32(j), int64(out))
	}
	return true
}

// FullQueues returns, per column, how many switch-output queues are at
// capacity — the footprint of the saturation tree.
func (b *BufferedOmega) FullQueues() []int { return slices.Clone(b.full) }

// QueuedPackets returns the total number of packets buffered inside the
// network (excluding source queues).
func (b *BufferedOmega) QueuedPackets() int {
	total := 0
	for _, n := range b.colCount {
		total += n
	}
	return total
}

// SourceBacklog returns the total number of packets still waiting at the
// processors' injection queues.
func (b *BufferedOmega) SourceBacklog() int { return b.injectCount }

// MeanLatencyBg returns the mean delivered latency of background
// (non-hot-spot) packets, the quantity tree saturation destroys.
func (b *BufferedOmega) MeanLatencyBg() float64 {
	if b.DeliveredBg == 0 {
		return 0
	}
	return float64(b.LatencyBgTotal) / float64(b.DeliveredBg)
}

// MeanLatencyHot returns the mean delivered latency of hot-spot packets.
func (b *BufferedOmega) MeanLatencyHot() float64 {
	if b.DeliveredHot == 0 {
		return 0
	}
	return float64(b.LatencyHotTotal) / float64(b.DeliveredHot)
}
