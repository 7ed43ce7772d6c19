// The scenario table: every deterministic simulation the determinism
// checks of this package read, each written exactly once. The matrix in
// matrix_test.go runs every entry under every engine mode and through
// checkpoint/restore; the golden tests look their entry up by name.
package cfm_test

import (
	"fmt"
	"strings"
	"testing"

	"cfm"
	"cfm/internal/core"
	"cfm/internal/flight"
	"cfm/internal/memory"
	"cfm/internal/sim"
)

// scenario is one entry of the table. build registers the whole fleet on
// eng — the same construction on every call, since a checkpoint holds
// state, not code — and returns finish, which runs eng from its current
// slot to the scenario's end, and observe, which reports every simulated
// observable. Scripted drivers checkpoint their captured state, so every
// entry can be cut, restored and finished.
type scenario struct {
	name      string
	extraCuts []int64 // cut slots beyond {1, mid, last-1}
	// sparse marks an idle-wake entry: skip-ahead must jump part of it,
	// or the skip-ahead modes would pass without skipping anything.
	sparse bool
	build  func(eng cfm.Engine) (finish func(), observe func() observation)
}

// observation is everything a run determines. The matrix compares every
// field with the dense serial oracle's; the byte fields are compared as
// bytes.
type observation struct {
	Counters   string // counters and memory fingerprints
	Registry   uint64 // registry digest
	Trace      uint64 // event-trace digest
	Spans      []byte // flight.Encode of the recorder's events
	State      uint64 // FNV-1a over every registered component's snapshot bytes
	Exposition string // Prometheus text, for entries with a sampler
	Series     string // the sampler's time series as JSONL
	// Vacuous names what the run failed to exercise; the oracle must
	// leave it empty. (It is derived from the counters, so the
	// comparisons skip it.)
	Vacuous string
}

// probes are a scenario's observers. attach adds each non-nil one to
// the engine's snapshot, so a resumed run carries it across the cut;
// observe folds each into the observation.
type probes struct {
	reg     *cfm.Registry
	tr      *cfm.Trace
	rec     *cfm.FlightRecorder
	sampler *cfm.Sampler
}

// attach adds the registry, the trace and the recorder to eng's
// snapshot in that order. (A sampler is a component; its owner
// registers it.)
func (p probes) attach(eng cfm.Engine) {
	if p.reg != nil {
		eng.AttachState("metrics", p.reg)
	}
	if p.tr != nil {
		eng.AttachState("trace", p.tr)
	}
	if p.rec != nil {
		eng.AttachState("flight", p.rec)
	}
}

func (p probes) observe(counters string) observation {
	o := observation{Counters: counters}
	if p.reg != nil {
		o.Registry = p.reg.Snapshot().Digest()
	}
	if p.tr != nil {
		o.Trace = p.tr.Digest()
	}
	if p.rec != nil {
		o.Spans = flight.Encode(p.rec.Events())
	}
	if p.sampler != nil {
		var sb strings.Builder
		if err := cfm.WriteMetricsJSONL(&sb, p.sampler.Samples); err != nil {
			panic(err)
		}
		o.Exposition, o.Series = cfm.PrometheusText(p.reg.Snapshot()), sb.String()
	}
	return o
}

// runTo runs eng up to absolute slot total (a no-op if already there).
func runTo(eng cfm.Engine, total int64) {
	if left := total - int64(eng.Now()); left > 0 {
		eng.Run(left)
	}
}

// fig313 is the conventional interleaved baseline at the Fig. 3.13
// operating point.
var fig313 = cfm.ConventionalConfig{
	Processors: 16, Modules: 16, BlockTime: 8,
	AccessRate: 0.2, RetryMean: 4, Seed: 313}

// scenarios returns the table: the fixed entries, then the random
// Partial sweep.
func scenarios() []scenario {
	table := []scenario{
		// Its checkpoint at slot 100 is the committed golden, so it keeps
		// the construction that golden pins: registry only, no recorder.
		{name: "ConventionalFig313", build: func(eng cfm.Engine) (func(), func() observation) {
			conv := cfm.NewConventional(fig313)
			p := probes{reg: cfm.NewRegistry()}
			conv.Instrument(p.reg)
			eng.Register(conv)
			p.attach(eng)
			return func() { runTo(eng, 3000) }, func() observation {
				return p.observe(fmt.Sprint(eng.Now(), conv.Completed, conv.Retries, conv.TotalLatency))
			}
		}},
		// The same machine with the recorder and a sampler on.
		{name: "ConventionalFig313Sampled", build: func(eng cfm.Engine) (func(), func() observation) {
			conv := cfm.NewConventional(fig313)
			p := probes{reg: cfm.NewRegistry(), rec: cfm.NewFlightRecorder(0)}
			conv.Instrument(p.reg)
			conv.RecordFlight(p.rec)
			eng.Register(conv)
			p.sampler = cfm.NewSampler(p.reg, 250)
			p.sampler.Attach(eng)
			p.attach(eng)
			return func() { runTo(eng, 3000) }, func() observation {
				return p.observe(fmt.Sprint(conv.Completed, conv.Retries, conv.TotalLatency))
			}
		}},
		// A small, lightly loaded conventional run: a few hundred spans,
		// the source of the committed span exports.
		{name: "ConventionalLowRate", build: func(eng cfm.Engine) (func(), func() observation) {
			conv := cfm.NewConventional(cfm.ConventionalConfig{
				Processors: 8, Modules: 8, BlockTime: 17,
				AccessRate: 0.05, RetryMean: 8, Seed: 11})
			p := probes{reg: cfm.NewRegistry(), rec: cfm.NewFlightRecorder(0)}
			conv.Instrument(p.reg)
			conv.RecordFlight(p.rec)
			eng.Register(conv)
			p.attach(eng)
			return func() { runTo(eng, 600) }, func() observation {
				return p.observe(fmt.Sprint(conv.Completed, conv.Retries, conv.TotalLatency))
			}
		}},
		// The partially conflict-free system at the Fig. 3.14 (n = 64,
		// m = 8) and Fig. 3.15 (n = 128, m = 16) machine shapes.
		partialCase("PartialFig314", cfm.PartialConfig{
			Processors: 64, Modules: 8, BlockWords: 16, BankCycle: 2,
			Locality: 0.9, AccessRate: 0.1, RetryMean: 4, Seed: 314}, 2000, 0),
		partialCase("PartialFig315", cfm.PartialConfig{
			Processors: 128, Modules: 16, BlockWords: 16, BankCycle: 2,
			Locality: 0.75, AccessRate: 0.15, RetryMean: 8, Seed: 315}, 1500, 0),
		// Shapes where the set-major index map degenerates — one
		// processor per cluster (a single contention set holding the
		// whole fleet) and a single module (one processor per set) — and
		// the Fig. 3.14 machine under a §7.2 Homes placement, whose
		// checkpoint at slot 100 and span export are committed goldens.
		partialCase("PartialOnePerCluster", cfm.PartialConfig{
			Processors: 8, Modules: 8, BlockWords: 2, BankCycle: 2,
			Locality: 0.5, AccessRate: 0.15, RetryMean: 3, Seed: 81}, 1500, 0),
		partialCase("PartialSingleModule", cfm.PartialConfig{
			Processors: 8, Modules: 1, BlockWords: 16, BankCycle: 2,
			Locality: 0.5, AccessRate: 0.05, RetryMean: 4, Seed: 11}, 1500, 0),
		partialCase("PartialHomes", partialHomesConfig(), 200, 0),
		partialCase("RandomWorkloadShape", cfm.PartialConfig{
			Processors: 8, Modules: 4, BlockWords: 4, BankCycle: 2,
			Locality: 0.7, AccessRate: 0.1, RetryMean: 4, Seed: 0xabc}, 400, 0),
		// The conflict-free memory driven by a deterministic
		// per-processor read/write pattern, traced.
		{name: "CFMemoryTraced", build: func(eng cfm.Engine) (func(), func() observation) {
			cfg := cfm.Config{Processors: 8, BankCycle: 2, WordWidth: 16}
			p := probes{reg: cfm.NewRegistry(), tr: cfm.NewTrace()}
			mem := cfm.NewMemory(cfg, p.tr)
			mem.Instrument(p.reg)
			left := make([]int, cfg.Processors)
			for i := range left {
				left[i] = 6
			}
			eng.Register(&sim.FuncTicker{
				Phases: sim.MaskOf(sim.PhaseIssue),
				OnTick: func(tt cfm.Slot, ph cfm.Phase) {
					for pr := 0; pr < cfg.Processors; pr++ {
						if left[pr] == 0 || !mem.CanStart(tt, pr) {
							continue
						}
						left[pr]--
						if left[pr]%2 == 0 {
							mem.StartWrite(tt, pr, pr, uniformBlock(cfg.Banks(), pr*100+left[pr]), nil)
						} else {
							mem.StartRead(tt, pr, (pr+1)%cfg.Processors, nil)
						}
					}
				},
				NextEvent: whileLeft(left),
				Save:      func(enc *sim.StateEncoder) { saveInts(enc, left) },
				Load:      func(dec *sim.StateDecoder) { loadInts(dec, left) },
			})
			eng.Register(mem)
			p.attach(eng)
			return func() { runTo(eng, 4000) }, func() observation {
				return p.observe(fmt.Sprint(mem.Completed, " ", blockFingerprint(cfg.Processors, mem.PeekBlock)))
			}
		}},
		// Two write bursts separated by a long quiet gap: once the first
		// drains every bank is quiescent and the engines park the memory,
		// and the late burst must wake it. The cuts at 1 and 2000 land in
		// the parked stretch, so the checkpoint must carry parking flags.
		{name: "IdleWakeBanks", sparse: true, build: func(eng cfm.Engine) (func(), func() observation) {
			cfg := cfm.Config{Processors: 8, BankCycle: 2, WordWidth: 16}
			p := probes{reg: cfm.NewRegistry(), tr: cfm.NewTrace()}
			mem := cfm.NewMemory(cfg, p.tr)
			mem.Instrument(p.reg)
			// The driver reads only the slot number: it has no state to save.
			eng.Register(&sim.FuncTicker{
				Phases: sim.MaskOf(sim.PhaseIssue),
				OnTick: func(tt cfm.Slot, ph cfm.Phase) {
					if burst := tt < 4 || (tt >= 2500 && tt < 2504); !burst {
						return
					}
					for pr := 0; pr < cfg.Processors; pr += 2 {
						if mem.CanStart(tt, pr) {
							mem.StartWrite(tt, pr, pr, uniformBlock(cfg.Banks(), int(tt)*10+pr), nil)
						}
					}
				},
				NextEvent: func(now cfm.Slot) cfm.Slot {
					switch {
					case now < 4:
						return now
					case now < 2500:
						return 2500
					case now < 2504:
						return now
					default:
						return cfm.HorizonNone
					}
				},
			})
			eng.Register(mem)
			p.attach(eng)
			return func() { runTo(eng, 4000) }, func() observation {
				o := p.observe(fmt.Sprint(mem.Completed, " ", blockFingerprint(cfg.Processors, mem.PeekBlock)))
				if mem.Completed < 8 {
					o.Vacuous = fmt.Sprintf("late burst did not complete: %d accesses", mem.Completed)
				}
				return o
			}
		}},
		// Hot-spot traffic through the buffered MIN. Its recorder keeps
		// the newest 16384 of about 65000 events, so the ring wraps.
		{name: "BufferedOmega", build: func(eng cfm.Engine) (func(), func() observation) {
			net := cfm.NewBufferedOmega(cfm.BufferedConfig{
				Terminals: 16, QueueCap: 4, ServiceTime: 2,
				Rate: 0.3, HotFraction: 0.125, HotModule: 3, Seed: 21})
			p := probes{reg: cfm.NewRegistry(), rec: cfm.NewFlightRecorder(1 << 14)}
			net.Instrument(p.reg)
			net.RecordFlight(p.rec)
			eng.Register(net)
			p.attach(eng)
			return func() { runTo(eng, 3000) }, func() observation {
				return p.observe(fmt.Sprint(net.Injected, net.DeliveredBg, net.DeliveredHot,
					net.LatencyBgTotal, net.LatencyHotTotal))
			}
		}},
		// The buffered MIN at a rate low enough that whole switch columns
		// sit empty for long stretches (the occupancy sweep skips them)
		// while sparse hot-spot packets repopulate them one hop per slot.
		// The skipping is inside the component: injection draws keep the
		// engine firing every slot, so the entry is not sparse.
		{name: "IdleWakeOmegaColumns", build: func(eng cfm.Engine) (func(), func() observation) {
			net := cfm.NewBufferedOmega(cfm.BufferedConfig{
				Terminals: 16, QueueCap: 4, ServiceTime: 2, Rate: 0.002,
				HotFraction: 0.3, Seed: 99})
			p := probes{reg: cfm.NewRegistry()}
			net.Instrument(p.reg)
			eng.Register(net)
			p.attach(eng)
			return func() { runTo(eng, 6000) }, func() observation {
				o := p.observe(fmt.Sprint(net.Injected, " ", net.DeliveredBg, " ", net.DeliveredHot, " ",
					net.LatencyBgTotal, " ", net.QueuedPackets(), " ", net.SourceBacklog()))
				if net.DeliveredBg+net.DeliveredHot == 0 {
					o.Vacuous = "no traffic delivered"
				}
				return o
			}
		}},
		// Cache-coherence traffic through per-processor front-ends
		// bundled into a FrontendGroup (the sharded issue path) over the
		// invalidation protocol: every processor writes its own line,
		// reads a shared line and then writes it — invalidation storms
		// included.
		{name: "CacheCoherenceTraffic", build: func(eng cfm.Engine) (func(), func() observation) {
			const procs = 4
			p := probes{reg: cfm.NewRegistry(), tr: cfm.NewTrace(), rec: cfm.NewFlightRecorder(0)}
			proto := cfm.NewCacheProtocol(cfm.CacheConfig{Processors: procs, Lines: 8, RetryDelay: 2}, p.tr)
			proto.Instrument(p.reg)
			proto.RecordFlight(p.rec)
			fes := make([]*cfm.Frontend, procs)
			for i := range fes {
				fes[i] = cfm.NewFrontend(proto, eng, i, cfm.BufferedOrder)
			}
			eng.Register(cfm.NewFrontendGroup(fes...))
			eng.Register(proto)
			p.attach(eng)
			for i, fe := range fes {
				fe.Store(i, 0, cfm.Word(10+i))
				fe.Load(procs, 0, nil)
				fe.Store(procs, i, cfm.Word(100+i))
				fe.Load(i, 0, nil)
			}
			finish := func() {
				eng.RunUntil(func() bool {
					for _, fe := range fes {
						if !fe.Idle() {
							return false
						}
					}
					return proto.Idle()
				}, 100000)
			}
			return finish, func() observation {
				mem := ""
				for off := 0; off <= procs; off++ {
					mem += fmt.Sprint(proto.PeekMemory(off), ";")
				}
				return p.observe(fmt.Sprint(eng.Now(), " ", len(cfm.FrontendExecution(fes...).Ops), " ", mem))
			}
		}},
		// The multi-cluster extension: local writes into every cluster,
		// then cross-cluster remote reads whose replies re-enter the
		// requesting side. The cut at slot 70 lands while the replies are
		// in flight, exercising reply rebinding and the serving-list
		// completion-callback reconstruction.
		{name: "ClusterSystem", extraCuts: []int64{70}, build: func(eng cfm.Engine) (func(), func() observation) {
			const clusters = 4
			cfg := cfm.Config{Processors: 4, BankCycle: 2, WordWidth: 16}
			cs := cfm.NewClusterSystem(cfg, clusters, cfg.Processors-1, 3)
			p := probes{reg: cfm.NewRegistry()}
			cs.Instrument(p.reg)
			got := make([]cfm.Word, clusters)
			gotAt := make([]cfm.Slot, clusters)
			reply := func(cluster int) func(memory.Block, cfm.Slot) {
				return func(b memory.Block, at cfm.Slot) { got[cluster], gotAt[cluster] = b[0], at }
			}
			// Reply callbacks are code: a restored checkpoint rebuilds them
			// from the operation's identity through this hook.
			cs.SetReplyRebinder(func(cluster int, kind core.AccessKind, offset int, arrive cfm.Slot) func(memory.Block, cfm.Slot) {
				return reply(cluster)
			})
			step := 0
			eng.Register(&sim.FuncTicker{
				Phases: sim.MaskOf(sim.PhaseIssue),
				OnTick: func(tt cfm.Slot, ph cfm.Phase) {
					switch {
					case step == 0:
						for cl := 0; cl < clusters; cl++ {
							cs.LocalWrite(tt, cl, 0, 0, uniformBlock(cfg.Banks(), 1000+cl), nil)
						}
						step = 1
					case step == 1 && tt == 60:
						for cl := 0; cl < clusters; cl++ {
							cs.RemoteRead(tt, cl, 0, reply(cl))
						}
						step = 2
					}
				},
				NextEvent: func(now cfm.Slot) cfm.Slot {
					switch step {
					case 0:
						return now
					case 1:
						return 60
					default:
						return cfm.HorizonNone
					}
				},
				Save: func(enc *sim.StateEncoder) {
					enc.Int(step)
					for cl := 0; cl < clusters; cl++ {
						enc.U64(uint64(got[cl]))
						enc.Slot(gotAt[cl])
					}
				},
				Load: func(dec *sim.StateDecoder) {
					step = dec.Int()
					for cl := 0; cl < clusters; cl++ {
						got[cl] = cfm.Word(dec.U64())
						gotAt[cl] = dec.Slot()
					}
				},
			})
			eng.Register(cs)
			p.attach(eng)
			return func() { runTo(eng, 500) }, func() observation {
				sum := int64(0)
				for cl := 0; cl < clusters; cl++ {
					sum += cs.Cluster(cl).Completed
				}
				return p.observe(fmt.Sprint(cs.RemoteCompleted, sum, got, gotAt))
			}
		}},
		// The §7.2 slot-sharing extension: three processors per AT-space
		// division, contending only with each other.
		{name: "SharedSlots", build: func(eng cfm.Engine) (func(), func() observation) {
			s := cfm.NewShared(cfm.SharedConfig{
				Divisions: 8, Sharing: 3, BlockWords: 8, BankCycle: 2,
				AccessRate: 0.08, RetryMean: 4, Seed: 72})
			eng.Register(s)
			return func() { runTo(eng, 2000) }, func() observation {
				now := eng.Now()
				return probes{}.observe(fmt.Sprint(s.Completed, s.Retries, s.TotalLatency, s.Utilization(now), s.Throughput(now)))
			}
		}},
		// The address-tracked memory (Ch. 4) under earliest-wins
		// arbitration, driven through a mix of plain writes, reads and
		// swaps on two shared offsets, so writes abort and restart.
		{name: "TrackedDriven", build: func(eng cfm.Engine) (func(), func() observation) {
			const m = 8
			p := probes{reg: cfm.NewRegistry(), tr: cfm.NewTrace(), rec: cfm.NewFlightRecorder(0)}
			tracked := cfm.NewTracked(m, cfm.EarliestWins, p.tr)
			tracked.Instrument(p.reg)
			tracked.RecordFlight(p.rec)
			increment := func(b memory.Block) memory.Block {
				out := append(memory.Block(nil), b...)
				for i := range out {
					out[i]++
				}
				return out
			}
			// The swap body is code: a restored in-flight swap gets it back
			// through this hook.
			tracked.SetModifyRebinder(func(proc, offset int) func(memory.Block) memory.Block { return increment })
			left := make([]int, m)
			for i := range left {
				left[i] = 6
			}
			eng.Register(&sim.FuncTicker{
				Phases: sim.MaskOf(sim.PhaseIssue),
				OnTick: func(tt cfm.Slot, ph cfm.Phase) {
					for pr := 0; pr < m; pr++ {
						if left[pr] == 0 || tracked.Busy(pr) {
							continue
						}
						left[pr]--
						switch left[pr] % 3 {
						case 0:
							tracked.StartSwap(tt, pr, 0, increment, nil)
						case 1:
							tracked.StartWrite(tt, pr, pr%2, uniformBlock(m, pr*10+left[pr]), nil)
						default:
							tracked.StartRead(tt, pr, 1, nil)
						}
					}
				},
				NextEvent: whileLeft(left),
				Save:      func(enc *sim.StateEncoder) { saveInts(enc, left) },
				Load:      func(dec *sim.StateDecoder) { loadInts(dec, left) },
			})
			eng.Register(tracked)
			p.attach(eng)
			return func() { runTo(eng, 600) }, func() observation {
				return p.observe(fmt.Sprint(tracked.CompletedWrites, tracked.AbortedWrites,
					tracked.CompletedReads, tracked.CompletedSwaps, tracked.Restarts,
					tracked.PeekBlock(0), tracked.PeekBlock(1)))
			}
		}},
		// The observatory: every instrumented subsystem reporting into one
		// registry — conventional, partial, buffered omega, cache
		// protocol, conflict-free memory and address-tracked memory —
		// plus a sampler. Its exposition is the committed Prometheus
		// golden.
		{name: "Observatory", build: observatory},
	}
	return append(table, randomScenarios()...)
}

// observatory builds the Observatory entry.
func observatory(eng cfm.Engine) (func(), func() observation) {
	p := probes{reg: cfm.NewRegistry()}

	conv := cfm.NewConventional(cfm.ConventionalConfig{
		Processors: 8, Modules: 8, BlockTime: 8,
		AccessRate: 0.2, RetryMean: 4, Seed: 99})
	conv.Instrument(p.reg)

	part := cfm.NewPartial(cfm.PartialConfig{
		Processors: 16, Modules: 4, BlockWords: 8, BankCycle: 2,
		Locality: 0.8, AccessRate: 0.1, RetryMean: 4, Seed: 98})
	part.Instrument(p.reg)

	net := cfm.NewBufferedOmega(cfm.BufferedConfig{
		Terminals: 16, QueueCap: 4, ServiceTime: 2,
		Rate: 0.3, HotFraction: 0.125, HotModule: 3, Seed: 21})
	net.Instrument(p.reg)

	proto := cfm.NewCacheProtocol(cfm.CacheConfig{Processors: 4, Lines: 8, RetryDelay: 2}, nil)
	proto.Instrument(p.reg)
	for i := 0; i < 24; i++ {
		if pr, off := i%4, i%6; i%3 == 0 {
			proto.Store(pr, off, 0, cfm.Word(i), nil)
		} else {
			proto.Load(pr, off, nil)
		}
	}

	cfg := cfm.Config{Processors: 8, BankCycle: 2, WordWidth: 16}
	mem := cfm.NewMemory(cfg, nil)
	mem.Instrument(p.reg)
	left := make([]int, cfg.Processors)
	for i := range left {
		left[i] = 4
	}
	eng.Register(&sim.FuncTicker{
		Phases: sim.MaskOf(sim.PhaseIssue),
		OnTick: func(t cfm.Slot, ph cfm.Phase) {
			for pr := 0; pr < cfg.Processors; pr++ {
				if left[pr] == 0 || !mem.CanStart(t, pr) {
					continue
				}
				left[pr]--
				if left[pr]%2 == 0 {
					mem.StartWrite(t, pr, pr, uniformBlock(cfg.Banks(), pr*10+left[pr]), nil)
				} else {
					mem.StartRead(t, pr, (pr+1)%cfg.Processors, nil)
				}
			}
		},
		NextEvent: whileLeft(left),
		Save:      func(enc *sim.StateEncoder) { saveInts(enc, left) },
		Load:      func(dec *sim.StateDecoder) { loadInts(dec, left) },
	})

	tracked := cfm.NewTracked(8, cfm.LatestWins, nil)
	tracked.Instrument(p.reg)
	tracked.StartWrite(0, 1, 0, make(cfm.Block, 8), nil)
	tracked.StartWrite(0, 5, 0, make(cfm.Block, 8), nil)

	eng.Register(conv)
	eng.Register(part)
	eng.Register(net)
	eng.Register(proto)
	eng.Register(mem)
	eng.Register(tracked)
	p.sampler = cfm.NewSampler(p.reg, 500)
	p.sampler.Attach(eng)
	p.attach(eng)
	return func() { runTo(eng, 2000) }, func() observation {
		return p.observe(fmt.Sprint(conv.Completed, part.Completed, net.DeliveredBg+net.DeliveredHot,
			mem.Completed, tracked.CompletedWrites, tracked.AbortedWrites))
	}
}

// partialCase is an instrumented, flight-recorded Partial entry run for
// the given number of slots, its recorder holding ring events (0: the
// default capacity).
func partialCase(name string, cfg cfm.PartialConfig, slots int64, ring int) scenario {
	return scenario{name: name, build: func(eng cfm.Engine) (func(), func() observation) {
		part := cfm.NewPartial(cfg)
		p := probes{reg: cfm.NewRegistry(), rec: cfm.NewFlightRecorder(ring)}
		part.Instrument(p.reg)
		part.RecordFlight(p.rec)
		eng.Register(part)
		p.attach(eng)
		return func() { runTo(eng, slots) }, func() observation {
			return p.observe(fmt.Sprint(part.Completed, part.Retries, part.TotalLatency, part.LocalAcc, part.RemoteAcc))
		}
	}}
}

// partialHomesConfig is the Fig. 3.14 machine (n = 64, m = 8) under a
// §7.2 placement: two idle processors (home −1) and a four-processor job
// placed in cluster 2 whose data lives in module 5, so its "local"
// accesses contend with cluster 5's own processors.
func partialHomesConfig() cfm.PartialConfig {
	homes := make([]int, 64)
	for i := range homes {
		homes[i] = i / 8
	}
	homes[3], homes[42] = -1, -1
	for i := 16; i < 20; i++ {
		homes[i] = 5
	}
	return cfm.PartialConfig{
		Processors: 64, Modules: 8, BlockWords: 16, BankCycle: 2,
		Locality: 0.6, AccessRate: 0.02, RetryMean: 4, Seed: 72, Homes: homes}
}

// randomScenarios is the bulk statistical evidence: 50 Partial entries
// with random seeds and machine shapes. Their recorders keep 1024
// events, so the sweep also covers rings that wrap and drop across a
// cut.
func randomScenarios() []scenario {
	meta := cfm.NewRNG(0xd1f)
	shapes := []cfm.PartialConfig{
		{Modules: 2, BlockWords: 2, BankCycle: 1},
		{Modules: 4, BlockWords: 4, BankCycle: 2},
		{Modules: 2, BlockWords: 8, BankCycle: 2},
		{Modules: 8, BlockWords: 4, BankCycle: 1},
	}
	out := make([]scenario, 50)
	for i := range out {
		cfg := shapes[meta.Intn(len(shapes))]
		cfg.Processors = cfg.Modules * (cfg.BlockWords / cfg.BankCycle)
		cfg.Locality = 0.5 + float64(meta.Intn(5))/10
		cfg.AccessRate = 0.05 + float64(meta.Intn(4))/20
		cfg.RetryMean = 1 + meta.Intn(8)
		cfg.Seed = meta.Uint64()
		out[i] = partialCase(fmt.Sprintf("Random%02d", i), cfg, int64(200+meta.Intn(400)), 1024)
	}
	return out
}

// scenarioNamed returns the table entry with the given name.
func scenarioNamed(t *testing.T, name string) scenario {
	t.Helper()
	for _, sc := range scenarios() {
		if sc.name == name {
			return sc
		}
	}
	t.Fatalf("scenario %s missing from the table", name)
	return scenario{}
}

// uniformBlock is a block of n words all equal to v.
func uniformBlock(n, v int) cfm.Block {
	blk := make(cfm.Block, n)
	for k := range blk {
		blk[k] = cfm.Word(v)
	}
	return blk
}

// blockFingerprint lists word 0 of blocks 0..n-1.
func blockFingerprint(n int, peek func(int) cfm.Block) string {
	fp := ""
	for i := 0; i < n; i++ {
		fp += fmt.Sprint(peek(i)[0], ",")
	}
	return fp
}

// whileLeft is the horizon of a driver with per-processor work counts:
// dense while any processor has work left, silent afterwards.
func whileLeft(left []int) func(cfm.Slot) cfm.Slot {
	return func(now cfm.Slot) cfm.Slot {
		for _, n := range left {
			if n > 0 {
				return now
			}
		}
		return cfm.HorizonNone
	}
}

func saveInts(enc *sim.StateEncoder, vs []int) {
	for _, v := range vs {
		enc.Int(v)
	}
}

func loadInts(dec *sim.StateDecoder, vs []int) {
	for i := range vs {
		vs[i] = dec.Int()
	}
}
