//cfm:wallclock-ok benchmark harness: host time is the measured quantity and never reaches simulation state

package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"cfm/internal/att"
	"cfm/internal/cache"
	"cfm/internal/core"
	"cfm/internal/flight"
	"cfm/internal/memory"
	"cfm/internal/metrics"
	"cfm/internal/network"
	"cfm/internal/sim"
	"cfm/internal/workload"
)

// engineSpec is one stationary engine workload. Set-up builds the fleet,
// runs warm slots and takes one checkpoint; every timed iteration restores
// that checkpoint and runs slots more, so each iteration does the same
// work whatever the iteration count.
type engineSpec struct {
	name      string
	slots     int64
	warm      int64
	newEngine func() sim.Engine
	build     func(eng sim.Engine, seed uint64, tr *tracer) *rig
	// ckptTimed times Restore → Run → Checkpoint as one iteration (the
	// bisect/resume unit of work); otherwise the restore is untimed and
	// there is no checkpoint.
	ckptTimed bool
	// serialRef checks every iteration against the same checkpoint run on
	// the serial Clock.
	serialRef bool
}

var engineSpecs = []engineSpec{
	// The Fig 3.14/3.15 machine (8-processor clusters, β = 17) scaled 32×,
	// at a rate inside the paper's range: the Partial dense sweep does
	// almost all the work, and there is no barrier.
	{name: "fleet_serial", slots: 1000, warm: 2000, newEngine: serialEngine, build: fleet(4096, 512, 0.04)},
	// The same fleet on two workers with automatic epoch batching: the
	// barrier, the epoch fold and the strided TickShard path under load.
	{name: "fleet_par2", slots: 1000, warm: 2000, build: fleet(4096, 512, 0.04), serialRef: true,
		newEngine: func() sim.Engine { return sim.NewParallelClock(2) }},
	// A small, nearly idle fleet with skip-ahead on: the horizon fold and
	// the clock jump do the work, the sweep little.
	{name: "sparse_skip", slots: 100_000, warm: 20_000, newEngine: skipEngine, build: fleet(64, 8, 0.001)},
	// Every recording path switched on, plus the bank arena, the omega
	// column sweep, the cache protocol and ATT.
	{name: "observed_mix", slots: 2000, warm: 1000, newEngine: serialEngine, build: buildMix, ckptTimed: true},
}

func serialEngine() sim.Engine { return sim.NewClock() }

func skipEngine() sim.Engine {
	c := sim.NewClock()
	c.SetSkipAhead(true)
	return c
}

func partialConfig(n, m int, rate float64, seed uint64) core.PartialConfig {
	return core.PartialConfig{Processors: n, Modules: m, BlockWords: 16, BankCycle: 2,
		Locality: 0.9, AccessRate: rate, RetryMean: 4, Seed: seed}
}

func fleet(n, m int, rate float64) func(sim.Engine, uint64, *tracer) *rig {
	return func(eng sim.Engine, seed uint64, tr *tracer) *rig {
		p := core.NewPartial(partialConfig(n, m, rate, seed))
		eng.Register(tr.wrap("core.partial", p))
		return &rig{eng: eng, partial: p, partialProcs: n}
	}
}

// buildMix registers the observed_mix fleet. Its drivers are restorable:
// the CFMemory driver's Bernoulli generator rides the checkpoint as an
// attached extra, and the cache and ATT drivers are stateless functions
// of (seed, slot, processor).
func buildMix(eng sim.Engine, seed uint64, tr *tracer) *rig {
	r := &rig{eng: eng, partialProcs: 1024, reg: metrics.New(), trace: sim.NewTrace()}
	flt := flight.NewRecorder(1 << 16)
	cacheFlt := flight.NewRecorder(1 << 12)
	r.flights = []*flight.Recorder{flt, cacheFlt}

	r.partial = core.NewPartial(partialConfig(1024, 128, 0.04, seed))
	r.partial.Instrument(r.reg)
	r.partial.RecordFlight(flt)
	eng.Register(tr.wrap("core.partial", r.partial))

	mcfg := core.Config{Processors: 64, BankCycle: 1, WordWidth: 16}
	r.mem = core.NewCFMemory(mcfg, r.trace)
	r.mem.Instrument(r.reg)
	gen := workload.NewBernoulli(mcfg.Processors, 0.003, 0.5, subSeed(seed, 1), workload.Uniform(mcfg.Processors))
	blk := make(memory.Block, mcfg.Banks())
	eng.Register(tr.wrap("bench.driver.cfmemory", &sim.FuncTicker{
		Phases: sim.MaskOf(sim.PhaseIssue),
		OnTick: func(t sim.Slot, _ sim.Phase) {
			for q := 0; q < mcfg.Processors; q++ {
				if !r.mem.CanStart(t, q) {
					continue
				}
				a, ok := gen.Next(t, q)
				switch {
				case !ok:
				case a.Store:
					blk[0] = memory.Word(t)
					r.mem.StartWrite(t, q, a.Module, blk, nil)
				default:
					r.mem.StartRead(t, q, a.Module, nil)
				}
			}
		},
	}))
	eng.Register(tr.wrap("core.cfmemory", r.mem))

	r.net = network.NewBufferedOmega(network.BufferedConfig{Terminals: 64, QueueCap: 4, ServiceTime: 2,
		Rate: 0.05, HotFraction: 0.1, HotModule: 0, Seed: subSeed(seed, 2)})
	r.net.Instrument(r.reg)
	eng.Register(tr.wrap("network.buffered", r.net))

	const cacheProcs = 16
	r.proto = cache.New(cache.Config{Processors: cacheProcs, Lines: 8, RetryDelay: 2}, nil)
	r.proto.Instrument(r.reg)
	r.proto.RecordFlight(cacheFlt)
	cacheSeed := subSeed(seed, 3)
	eng.Register(tr.wrap("bench.driver.cache", &sim.FuncTicker{
		Phases: sim.MaskOf(sim.PhaseIssue),
		OnTick: func(t sim.Slot, _ sim.Phase) {
			for q := 0; q < cacheProcs; q++ {
				h := draw(cacheSeed, t, q)
				if h%64 >= 3 || r.proto.Busy(q) {
					continue
				}
				off := int(h>>8) % 32
				if h>>20&1 == 0 {
					r.proto.Load(q, off, nil)
				} else {
					r.proto.Store(q, off, int(h>>24)%cacheProcs, memory.Word(t), nil)
				}
			}
		},
	}))
	eng.Register(tr.wrap("cache.protocol", r.proto))

	const attBanks = 16
	r.att = att.NewTracked(attBanks, att.EarliestWins, nil)
	r.att.Instrument(r.reg)
	fetchAdd := func(b memory.Block) memory.Block {
		out := b.Clone()
		out[0]++
		return out
	}
	r.att.SetModifyRebinder(func(int, int) func(memory.Block) memory.Block { return fetchAdd })
	attSeed := subSeed(seed, 4)
	wblk := make(memory.Block, attBanks)
	eng.Register(tr.wrap("bench.driver.att", &sim.FuncTicker{
		Phases: sim.MaskOf(sim.PhaseIssue),
		OnTick: func(t sim.Slot, _ sim.Phase) {
			for q := 0; q < attBanks; q++ {
				h := draw(attSeed, t, q)
				if h%16 >= 2 || r.att.Busy(q) {
					continue
				}
				off := int(h>>8) % 4
				if h>>16&1 == 0 {
					for i := range wblk {
						wblk[i] = memory.Word(t)
					}
					r.att.StartWrite(t, q, off, wblk, nil)
				} else {
					r.att.StartSwap(t, q, off, fetchAdd, nil)
				}
			}
		},
	}))
	eng.Register(tr.wrap("att.tracked", r.att))

	r.sampler = metrics.NewSampler(r.reg, 1000)
	eng.RegisterPrio(tr.wrap("metrics.sampler", r.sampler), metrics.SamplerPrio)

	eng.AttachState("trace", r.trace)
	eng.AttachState("metrics", r.reg)
	eng.AttachState("flight", flt)
	eng.AttachState("cache-flight", cacheFlt)
	eng.AttachState("cfmemory-driver", gen)
	return r
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func subSeed(seed, k uint64) uint64 { return mix64(seed + k*0x9e3779b97f4a7c15) }

// draw is a stateless driver's random word for processor q at slot t.
func draw(seed uint64, t sim.Slot, q int) uint64 {
	return mix64(seed ^ mix64(uint64(t)<<8|uint64(q)))
}

// rig is one built fleet and handles on the components whose outputs the
// digest covers (nil when the workload does not have them).
type rig struct {
	eng          sim.Engine
	partial      *core.Partial
	partialProcs int
	mem          *core.CFMemory
	net          *network.BufferedOmega
	proto        *cache.Protocol
	att          *att.Tracked
	flights      []*flight.Recorder
	trace        *sim.Trace
	reg          *metrics.Registry
	sampler      *metrics.Sampler
	// ckpt is the checkpoint the last iteration ended with (ckptTimed
	// workloads), written into buf; its hash is part of the digest.
	ckpt []byte
	buf  bytes.Buffer
	// snapNS and snaps time the registry snapshots the digest takes.
	snapNS, snaps int64
}

// digest summarizes every simulated output of the rig after an iteration.
func (r *rig) digest() string {
	var b strings.Builder
	fmt.Fprintf(&b, "slot=%d", r.eng.Now())
	if p := r.partial; p != nil {
		fmt.Fprintf(&b, " partial=%d/%d/%d/%d/%d", p.Completed, p.Retries, p.TotalLatency, p.LocalAcc, p.RemoteAcc)
	}
	if m := r.mem; m != nil {
		fmt.Fprintf(&b, " cfmemory=%d", m.Completed)
	}
	if n := r.net; n != nil {
		fmt.Fprintf(&b, " omega=%d/%d/%d/%d/%d", n.Injected, n.DeliveredBg, n.DeliveredHot, n.LatencyBgTotal, n.QueuedPackets())
	}
	if c := r.proto; c != nil {
		fmt.Fprintf(&b, " cache=%d/%d/%d/%d/%d", c.Hits, c.Misses, c.Invalidations, c.WriteBacks, c.Retries)
	}
	if a := r.att; a != nil {
		fmt.Fprintf(&b, " att=%d/%d/%d/%d/%d", a.CompletedWrites, a.AbortedWrites, a.CompletedReads, a.CompletedSwaps, a.Restarts)
	}
	if r.reg != nil {
		t0 := time.Now()
		snap := r.reg.Snapshot()
		r.snapNS += int64(time.Since(t0))
		r.snaps++
		fmt.Fprintf(&b, " registry=%016x", snap.Digest())
	}
	for i, f := range r.flights {
		fmt.Fprintf(&b, " flight%d=%016x", i, f.Digest())
	}
	if r.trace != nil {
		fmt.Fprintf(&b, " trace=%016x", r.trace.Digest())
	}
	if r.sampler != nil {
		fmt.Fprintf(&b, " samples=%d", len(r.sampler.Samples))
	}
	if r.ckpt != nil {
		fmt.Fprintf(&b, " state=%s", shortHash(r.ckpt))
	}
	return b.String()
}

func shortHash(b []byte) string {
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%x", sum[:8])
}

// Simulated and engine counts read around an iteration.
const (
	cSlots = iota
	cFired
	cCrossings
	cEpochs
	cPartialAcc
	cPartialDone
	cPartialRetry
	cMemDone
	cCacheOps
	cAttWrites
	cAttAborts
	cEmitted
	cDropped
	cTraceEvents
	cSamples
	numCounts
)

type counts [numCounts]int64

func (r *rig) counts() counts {
	var c counts
	c[cSlots] = r.eng.SlotsRun()
	c[cFired] = r.eng.SlotsFired()
	if pc, ok := r.eng.(*sim.ParallelClock); ok {
		c[cCrossings] = pc.BarrierCrossings()
		c[cEpochs] = pc.Epochs()
	}
	if p := r.partial; p != nil {
		c[cPartialAcc] = p.LocalAcc + p.RemoteAcc
		c[cPartialDone] = p.Completed
		c[cPartialRetry] = p.Retries
	}
	if r.mem != nil {
		c[cMemDone] = r.mem.Completed
	}
	if r.proto != nil {
		c[cCacheOps] = r.proto.Hits + r.proto.Misses
	}
	if r.att != nil {
		c[cAttWrites] = r.att.CompletedWrites + r.att.AbortedWrites
		c[cAttAborts] = r.att.AbortedWrites
	}
	for _, f := range r.flights {
		c[cEmitted] += int64(f.Len()) + int64(f.Dropped())
		c[cDropped] += int64(f.Dropped())
	}
	c[cTraceEvents] = int64(r.trace.Len())
	if r.sampler != nil {
		c[cSamples] = int64(len(r.sampler.Samples))
	}
	return c
}

func workersOf(eng sim.Engine) int {
	if pc, ok := eng.(*sim.ParallelClock); ok && pc.Workers() > 1 {
		return pc.Workers()
	}
	return 1
}

func closeEngine(eng sim.Engine) {
	if pc, ok := eng.(*sim.ParallelClock); ok {
		pc.Close()
	}
}

// tally aggregates the iterations of one measuring phase.
type tally struct {
	iters                   timings // per-iteration wall time
	runNS                   int64   // inside Engine.Run
	restoreNS, restoreBytes int64
	ckptNS, ckptBytes       int64
	delta                   counts
}

// Set-up repetitions: setup_s is the median of at least setupSeconds of
// set-ups, but of no more than maxSetups of them.
const (
	setupSeconds = 500 * time.Millisecond
	maxSetups    = 200
)

// runEngine measures one engine workload: set-up, the untraced iterations
// that give the end-to-end metrics, and with -trace a traced phase that
// gives the per-layer ones.
func runEngine(s engineSpec, o options) (result, error) {
	var c checks
	minSetups, setupFloor, minIters := 5, setupSeconds, 3
	if o.quick {
		minSetups, setupFloor, minIters = 2, 0, 2
	}

	// Set-up: build → warm-up → first checkpoint, at least minSetups times
	// and for at least setupFloor, so that a set-up of a few milliseconds
	// still has enough samples for a steady median. Every rep must write
	// the same checkpoint bytes.
	var (
		r       *rig
		ck      []byte
		setups  timings
		setupCk tally
	)
	setupStart := time.Now()
	for i := 0; i < minSetups || (i < maxSetups && time.Since(setupStart) < setupFloor); i++ {
		if r != nil {
			closeEngine(r.eng)
		}
		runtime.GC() // each set-up starts without the previous one's garbage
		setups.probe()
		t0 := time.Now()
		r = s.build(s.newEngine(), o.seed, nil)
		r.eng.Run(s.warm)
		var buf bytes.Buffer
		c0 := time.Now()
		if err := r.eng.Checkpoint(&buf); err != nil {
			return result{}, fmt.Errorf("%s: set-up checkpoint: %w", s.name, err)
		}
		setupCk.ckptNS += int64(time.Since(c0))
		setupCk.ckptBytes += int64(buf.Len())
		setups.add(time.Since(t0))
		setups.probe()
		if i == 0 {
			ck = buf.Bytes()
		}
		c.verify(fmt.Sprintf("%s set-up %d checkpoint", s.name, i), shortHash(buf.Bytes()), shortHash(ck))
	}
	defer func() { closeEngine(r.eng) }()

	// The digest every iteration must reproduce: the golden at the golden
	// seed, the serial Clock's for a parallel workload, else the first
	// iteration's.
	var want []string
	if g, ok := o.goldens[s.name]; ok && o.seed == goldenSeed {
		want = append(want, g)
	}
	if s.serialRef {
		ref := s.build(sim.NewClock(), o.seed, nil)
		if err := ref.eng.Restore(bytes.NewReader(ck)); err != nil {
			return result{}, fmt.Errorf("%s: serial reference restore: %w", s.name, err)
		}
		ref.eng.Run(s.slots)
		want = append(want, ref.digest())
	}

	restore := func(r *rig, tr *tracer, t *tally) error {
		t0 := time.Now()
		if err := r.eng.Restore(bytes.NewReader(ck)); err != nil {
			return fmt.Errorf("%s: restore: %w", s.name, err)
		}
		d := time.Since(t0)
		t.restoreNS += int64(d)
		t.restoreBytes += int64(len(ck))
		tr.benchSpan("Restore", t0, d)
		return nil
	}
	// iterate runs one timed iteration between two probes.
	iterate := func(r *rig, tr *tracer, t *tally) error {
		if tr != nil {
			tr.resetSpans()
		}
		if !s.ckptTimed {
			if err := restore(r, tr, t); err != nil {
				return err
			}
		}
		t.iters.probe()
		start := time.Now()
		if s.ckptTimed {
			if err := restore(r, tr, t); err != nil {
				return err
			}
		}
		before := r.counts()
		t0 := time.Now()
		r.eng.Run(s.slots)
		d := time.Since(t0)
		t.runNS += int64(d)
		tr.benchSpan("Run", t0, d)
		if s.ckptTimed {
			r.buf.Reset() // reused: the harness adds no garbage of its own
			t0 = time.Now()
			if err := r.eng.Checkpoint(&r.buf); err != nil {
				return fmt.Errorf("%s: checkpoint: %w", s.name, err)
			}
			d = time.Since(t0)
			t.ckptNS += int64(d)
			t.ckptBytes += int64(r.buf.Len())
			tr.benchSpan("Checkpoint", t0, d)
			r.ckpt = r.buf.Bytes()
		}
		t.iters.add(time.Since(start))
		t.iters.probe()
		after := r.counts()
		for k := range after {
			t.delta[k] += after[k] - before[k]
		}
		return nil
	}
	measure := func(r *rig, tr *tracer, seconds float64) (tally, error) {
		var t tally
		dur := time.Duration(seconds * float64(time.Second))
		start := time.Now()
		runtime.GC()
		for i := 0; i < minIters || time.Since(start) < dur; i++ {
			if err := iterate(r, tr, &t); err != nil {
				return t, err
			}
			d := r.digest()
			if len(want) == 0 {
				want = append(want, d)
			}
			c.verify(fmt.Sprintf("%s iteration %d (traced %v)", s.name, i, tr != nil), d, want...)
			// Collect the iteration's garbage outside the timed region, so
			// every iteration starts from the same heap and the peak RSS
			// does not depend on where the GC pacer happened to trigger.
			runtime.GC()
		}
		return t, nil
	}

	seconds := o.seconds
	if o.quick {
		seconds = 0
	} else if o.trace {
		seconds /= 2 // half untraced (the overhead baseline), half traced
	}
	objects0, bytes0 := heapAllocs()
	plain, err := measure(r, nil, seconds)
	if err != nil {
		return result{}, err
	}
	objects1, bytes1 := heapAllocs()

	iterNS := plain.iters.normalized()
	if !o.trace {
		return newResult(c, endToEnd, map[string]float64{
			"iter_ms_p50": percentile(iterNS, 0.50) / 1e6,
			"iter_ms_p90": percentile(iterNS, 0.90) / 1e6,
			"setup_s":     median(setups.normalized()) / 1e9,
			"peak_rss_mb": peakRSSMB(),
		}), nil
	}

	tr := newTracer()
	rt := s.build(s.newEngine(), o.seed, tr)
	defer closeEngine(rt.eng)
	traced, err := measure(rt, tr, seconds)
	if err != nil {
		return result{}, err
	}
	if o.traceOut != "" {
		if err := tr.writeChrome(filepath.Join(o.traceOut, s.name+".trace.json")); err != nil {
			return result{}, err
		}
	}
	traced.ckptNS += setupCk.ckptNS
	traced.ckptBytes += setupCk.ckptBytes
	vals := layerMetrics(rt, tr, traced, len(ck))
	slots := float64(plain.delta[cSlots])
	vals["host.allocs_per_slot"] = ratio(objects1-objects0, slots)
	vals["host.alloc_bytes_per_slot"] = ratio(bytes1-bytes0, slots)
	vals["host.iter_ms_p10"] = percentile(iterNS, 0.10) / 1e6
	vals["host.probe_ms"] = median(plain.iters.probes) / 1e6
	vals["host.raw_iter_ms_p50"] = median(plain.iters.d) / 1e6
	vals["trace.overhead_frac"] = ratio(percentile(traced.iters.normalized(), 0.10), percentile(iterNS, 0.10)) - 1
	return newResult(c, perLayer, vals), nil
}

// layerMetrics turns a traced phase into the per-layer metrics.
func layerMetrics(r *rig, tr *tracer, t tally, ckptLen int) map[string]float64 {
	slots := float64(t.delta[cSlots])
	w := float64(workersOf(r.eng))
	var comp, fold, horizon, driver int64
	for _, l := range tr.layers {
		comp += l.total()
		fold += l.ns[callFold]
		horizon += l.ns[callHorizon]
		if strings.HasPrefix(l.name, "bench.driver") {
			driver += l.total()
		}
	}
	// work is a layer's time outside Horizon (which the engine's
	// skip-ahead fold calls, reported as sim.horizon_ns_per_slot).
	work := func(name string) float64 {
		if l := tr.layer(name); l != nil {
			return float64(l.total() - l.ns[callHorizon])
		}
		return 0
	}
	v := map[string]float64{
		"sim.engine_self_ns_per_slot": ratio(float64(t.runNS)-float64(comp)/w, slots),
		"sim.par_work_frac":           ratio(float64(comp), w*float64(t.runNS)),
		"sim.fold_frac":               ratio(float64(fold), float64(t.runNS)),
		"sim.crossings_per_slot":      ratio(float64(t.delta[cCrossings]), slots),
		"sim.epochs_per_slot":         ratio(float64(t.delta[cEpochs]), slots),
		"sim.fired_frac":              ratio(float64(t.delta[cFired]), slots),
		"sim.horizon_ns_per_slot":     ratio(float64(horizon), slots),
		"sim.state.encode_mb_per_s":   ratio(float64(t.ckptBytes)*1e3, float64(t.ckptNS)),
		"sim.state.decode_mb_per_s":   ratio(float64(t.restoreBytes)*1e3, float64(t.restoreNS)),
		"sim.state.ckpt_kb":           float64(ckptLen) / 1024,
		"sim.trace.events_per_slot":   ratio(float64(t.delta[cTraceEvents]), slots),
		"sim.trace.add_ns":            traceAddNS(r.trace),

		"core.partial.tick_ns_per_proc_slot": ratio(work("core.partial")-nsOf(tr, "core.partial", callFold), slots*float64(r.partialProcs)),
		"core.partial.fold_ns_per_slot":      ratio(nsOf(tr, "core.partial", callFold), slots),
		"core.partial.accesses_per_slot":     ratio(float64(t.delta[cPartialAcc]), slots),
		"core.partial.useful_frac":           ratio(float64(t.delta[cPartialDone]), float64(t.delta[cPartialDone]+t.delta[cPartialRetry])),
		"core.cfmemory.tick_ns_per_slot":     ratio(work("core.cfmemory"), slots),
		"core.cfmemory.accesses_per_slot":    ratio(float64(t.delta[cMemDone]), slots),
		"network.buffered.tick_ns_per_slot":  ratio(work("network.buffered"), slots),
		"cache.protocol.tick_ns_per_slot":    ratio(work("cache.protocol"), slots),
		"cache.protocol.ops_per_slot":        ratio(float64(t.delta[cCacheOps]), slots),
		"att.tracked.tick_ns_per_slot":       ratio(work("att.tracked"), slots),
		"att.tracked.abort_frac":             ratio(float64(t.delta[cAttAborts]), float64(t.delta[cAttWrites])),
		"flight.events_per_slot":             ratio(float64(t.delta[cEmitted]), slots),
		"flight.emit_ns":                     flightEmitNS(r.flights),
		"flight.dropped_frac":                ratio(float64(t.delta[cDropped]), float64(t.delta[cEmitted])),
		"metrics.sampler_ns_per_sample":      ratio(work("metrics.sampler"), float64(t.delta[cSamples])),
		"metrics.snapshot_ns":                ratio(float64(r.snapNS), float64(r.snaps)),
		"bench.driver_ns_per_slot":           ratio(float64(driver), slots),
	}
	if r.net != nil {
		v["network.buffered.queued_packets"] = float64(r.net.QueuedPackets())
	}
	return v
}

func nsOf(tr *tracer, name string, k call) float64 {
	if l := tr.layer(name); l != nil {
		return float64(l.ns[k])
	}
	return 0
}

// flightEmitNS times Recorder.Emit by replaying the recorders' live
// events into a scratch ring of the same capacity, which stays full —
// the steady state of the real rings.
func flightEmitNS(recs []*flight.Recorder) float64 {
	var evs []flight.Event
	capacity := 0
	for _, r := range recs {
		evs = append(evs, r.Events()...)
		capacity = max(capacity, r.Cap())
	}
	if len(evs) == 0 {
		return 0
	}
	scratch := flight.NewRecorder(capacity)
	reps := max(1, 1_000_000/len(evs))
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		for _, e := range evs {
			scratch.Emit(e.ID, e.Slot, e.Stage, e.Actor, e.Arg) //cfm:flight-ok replaying recorded events into a scratch ring to time Emit
		}
	}
	return float64(time.Since(t0)) / float64(reps*len(evs))
}

// traceAddNS times Trace.Add by replaying up to 100 000 of the trace's
// events into a scratch trace.
func traceAddNS(tr *sim.Trace) float64 {
	evs := tr.Events()
	if len(evs) == 0 {
		return 0
	}
	if len(evs) > 100_000 {
		evs = evs[len(evs)-100_000:]
	}
	scratch := sim.NewTrace()
	t0 := time.Now()
	for _, e := range evs {
		scratch.Add(e.Slot, e.Who, "%s", e.What)
	}
	return float64(time.Since(t0)) / float64(len(evs))
}

// heapAllocs reads the Go runtime's cumulative allocation counters, what
// drives GC work. (The GC's CPU share itself is not reported: the harness
// forces a collection between iterations, so it would measure the
// harness.)
func heapAllocs() (objects, bytes float64) {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	return float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())
}

// peakRSSMB is this process's peak resident set (Linux reports ru_maxrss
// in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintln(os.Stderr, "cfmbench: getrusage:", err)
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile interpolates linearly between the closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }
