// Differential determinism suite: every scenario below is executed once
// under the serial Clock and once under ParallelClock at several worker
// counts, and the results — trace digests, final memory contents, and
// every stats counter — must match bit for bit. This is the proof
// obligation of the parallel engine: parallelism may only change wall
// time, never a single simulated observable.
package cfm_test

import (
	"fmt"
	"runtime"
	"testing"

	"cfm"
	"cfm/internal/sim"
)

// equivWorkers is the worker-count sweep of the differential suite.
func equivWorkers() []int {
	return []int{1, 2, 4, runtime.GOMAXPROCS(0)}
}

// runDifferential executes scenario once per engine and compares the
// returned observation strings (digests, counters, memory fingerprints —
// anything the simulation is supposed to determine). Every scenario runs
// dense AND with the event-horizon skip-ahead clock, serial and at each
// worker count: skipping quiescent slots may only change wall time,
// never a single simulated observable.
func runDifferential(t *testing.T, scenario func(eng cfm.Engine) string) {
	t.Helper()
	want := scenario(cfm.NewClock())
	for _, w := range equivWorkers() {
		got := scenario(cfm.NewParallelClock(w))
		if got != want {
			t.Fatalf("parallel run (workers=%d) diverged from serial:\nserial   %s\nparallel %s",
				w, want, got)
		}
	}
	skip := cfm.NewClock()
	skip.SetSkipAhead(true)
	if got := scenario(skip); got != want {
		t.Fatalf("skip-ahead serial run diverged from dense:\ndense      %s\nskip-ahead %s",
			want, got)
	}
	for _, w := range equivWorkers() {
		eng := cfm.NewParallelClock(w)
		eng.SetSkipAhead(true)
		if got := scenario(eng); got != want {
			t.Fatalf("skip-ahead parallel run (workers=%d) diverged from dense:\ndense      %s\nskip-ahead %s",
				w, want, got)
		}
	}
	// Explicit epoch-batching passes with pinned episode lengths and
	// tree arities, dense and skip-ahead. (The worker sweeps above
	// already batch under the EpochAuto default wherever the plan
	// allows; these pin specific K/arity shapes, including ones the
	// auto path never picks.) On non-batchable plans the knobs are
	// inert and this re-proves the classic body under tuned barriers.
	for _, bc := range []struct{ w, k, arity int }{{2, 4, 2}, {4, 16, 4}, {3, 3, 3}} {
		for _, skipAhead := range []bool{false, true} {
			eng := cfm.NewParallelClock(bc.w)
			eng.SetEpochBatch(bc.k)
			eng.SetBarrierArity(bc.arity)
			eng.SetSkipAhead(skipAhead)
			if got := scenario(eng); got != want {
				t.Fatalf("batched run (workers=%d K=%d arity=%d skip=%v) diverged from serial:\nserial  %s\nbatched %s",
					bc.w, bc.k, bc.arity, skipAhead, want, got)
			}
		}
	}
}

// TestEquivConventionalFig313 runs the conventional interleaved baseline
// at the Fig. 3.13 operating point under both engines.
func TestEquivConventionalFig313(t *testing.T) {
	runDifferential(t, func(eng cfm.Engine) string {
		conv := cfm.NewConventional(cfm.ConventionalConfig{
			Processors: 16, Modules: 16, BlockTime: 8,
			AccessRate: 0.2, RetryMean: 4, Seed: 313})
		reg := cfm.NewRegistry()
		conv.Instrument(reg)
		rec := cfm.NewFlightRecorder(0)
		conv.RecordFlight(rec)
		eng.Register(conv)
		eng.Run(3000)
		return fmt.Sprint(eng.Now(), conv.Completed, conv.Retries, conv.TotalLatency,
			" reg:", reg.Snapshot().Digest(),
			fmt.Sprintf(" flight:%016x", rec.Digest()))
	})
}

// TestEquivPartialFig314 runs the partially conflict-free system at the
// Fig. 3.14 machine shape (n = 64, m = 8).
func TestEquivPartialFig314(t *testing.T) {
	runDifferential(t, func(eng cfm.Engine) string {
		p := cfm.NewPartial(cfm.PartialConfig{
			Processors: 64, Modules: 8, BlockWords: 16, BankCycle: 2,
			Locality: 0.9, AccessRate: 0.1, RetryMean: 4, Seed: 314})
		reg := cfm.NewRegistry()
		p.Instrument(reg)
		rec := cfm.NewFlightRecorder(0)
		p.RecordFlight(rec)
		eng.Register(p)
		eng.Run(2000)
		return fmt.Sprint(p.Completed, p.Retries, p.TotalLatency, p.LocalAcc, p.RemoteAcc,
			" reg:", reg.Snapshot().Digest(),
			fmt.Sprintf(" flight:%016x", rec.Digest()))
	})
}

// TestEquivPartialFig315 runs the Fig. 3.15 shape (n = 128, m = 16).
func TestEquivPartialFig315(t *testing.T) {
	runDifferential(t, func(eng cfm.Engine) string {
		p := cfm.NewPartial(cfm.PartialConfig{
			Processors: 128, Modules: 16, BlockWords: 16, BankCycle: 2,
			Locality: 0.75, AccessRate: 0.15, RetryMean: 8, Seed: 315})
		reg := cfm.NewRegistry()
		p.Instrument(reg)
		rec := cfm.NewFlightRecorder(0)
		p.RecordFlight(rec)
		eng.Register(p)
		eng.Run(1500)
		return fmt.Sprint(p.Completed, p.Retries, p.TotalLatency, p.LocalAcc, p.RemoteAcc,
			" reg:", reg.Snapshot().Digest(),
			fmt.Sprintf(" flight:%016x", rec.Digest()))
	})
}

// TestEquivPartialIndexMap runs the Partial scenarios where the
// set-major processor layout degenerates (one processor per cluster, a
// single module) or meets a §7.2 Homes placement through every engine
// mode: the serial clock dense and skip-ahead, and ParallelClock at 1, 2
// and 4 workers, per-slot and epoch-batched, dense and skip-ahead. Every
// mode must match the dense serial oracle on counters, registry, flight
// digest and the component's snapshot bytes, both uninterrupted and
// resumed from a checkpoint cut mid-run under the same mode.
func TestEquivPartialIndexMap(t *testing.T) {
	type mode struct {
		name string
		mk   func() cfm.Engine
	}
	modes := []mode{{"serial-skip", func() cfm.Engine {
		eng := cfm.NewClock()
		eng.SetSkipAhead(true)
		return eng
	}}}
	for _, w := range []int{1, 2, 4} {
		for _, batch := range []int{1, 5} {
			for _, skip := range []bool{false, true} {
				modes = append(modes, mode{fmt.Sprintf("w%d-k%d-skip=%v", w, batch, skip), func() cfm.Engine {
					eng := cfm.NewParallelClock(w)
					eng.SetEpochBatch(batch)
					eng.SetSkipAhead(skip)
					return eng
				}})
			}
		}
	}
	for _, name := range []string{"PartialOnePerCluster", "PartialSingleModule", "PartialHomes"} {
		t.Run(name, func(t *testing.T) {
			rc := resumeCaseNamed(t, name)
			want, total := resumeOracle(rc)
			cut := total / 2
			for _, m := range modes {
				eng := m.mk()
				finish, digest := rc.build(eng)
				finish()
				if got := digest(); got != want {
					t.Fatalf("%s diverged from the dense serial oracle:\nserial %s\n%s %s", m.name, want, m.name, got)
				}
				restoreAndFinish(t, rc, m.mk, checkpointAt(t, rc, m.mk, cut), cut, want)
			}
		})
	}
}

// TestEquivCFMemoryTraced drives the conflict-free memory with a
// deterministic per-processor access pattern, tracing enabled, and
// requires identical trace digests and final block contents.
func TestEquivCFMemoryTraced(t *testing.T) {
	runDifferential(t, func(eng cfm.Engine) string {
		cfg := cfm.Config{Processors: 8, BankCycle: 2, WordWidth: 16}
		tr := cfm.NewTrace()
		mem := cfm.NewMemory(cfg, tr)
		reg := cfm.NewRegistry()
		mem.Instrument(reg)
		left := make([]int, cfg.Processors)
		for p := range left {
			left[p] = 6
		}
		eng.Register(&sim.FuncTicker{
			Phases: sim.MaskOf(sim.PhaseIssue),
			OnTick: func(tt cfm.Slot, ph cfm.Phase) {
				for p := 0; p < cfg.Processors; p++ {
					if left[p] == 0 || !mem.CanStart(tt, p) {
						continue
					}
					left[p]--
					if left[p]%2 == 0 {
						blk := make(cfm.Block, cfg.Banks())
						for k := range blk {
							blk[k] = cfm.Word(p*100 + left[p])
						}
						mem.StartWrite(tt, p, p, blk, nil)
					} else {
						mem.StartRead(tt, p, (p+1)%cfg.Processors, nil)
					}
				}
			},
			NextEvent: func(now cfm.Slot) cfm.Slot {
				for p := range left {
					if left[p] > 0 {
						return now
					}
				}
				return cfm.HorizonNone
			},
		})
		eng.Register(mem)
		eng.Run(4000)
		fp := ""
		for p := 0; p < cfg.Processors; p++ {
			fp += fmt.Sprint(mem.PeekBlock(p)[0], ",")
		}
		return fmt.Sprint(mem.Completed, " ", tr.Digest(), " ", fp, " reg:", reg.Snapshot().Digest())
	})
}

// TestEquivCacheCoherenceTraffic runs a cache-coherence traffic schedule
// through per-processor front-ends bundled into a FrontendGroup — the
// sharded issue path — over the invalidation protocol, with tracing on.
func TestEquivCacheCoherenceTraffic(t *testing.T) {
	runDifferential(t, func(eng cfm.Engine) string {
		const procs = 4
		tr := cfm.NewTrace()
		proto := cfm.NewCacheProtocol(cfm.CacheConfig{Processors: procs, Lines: 8, RetryDelay: 2}, tr)
		reg := cfm.NewRegistry()
		proto.Instrument(reg)
		rec := cfm.NewFlightRecorder(0)
		proto.RecordFlight(rec)
		fes := make([]*cfm.Frontend, procs)
		for p := range fes {
			fes[p] = cfm.NewFrontend(proto, eng, p, cfm.BufferedOrder)
		}
		eng.Register(cfm.NewFrontendGroup(fes...))
		eng.Register(proto)
		// Every processor writes its own line, reads a shared line, and
		// then writes the shared line — invalidation storms included.
		for p, fe := range fes {
			fe.Store(p, 0, cfm.Word(10+p))
			fe.Load(procs, 0, nil)
			fe.Store(procs, p, cfm.Word(100+p))
			fe.Load(p, 0, nil)
		}
		eng.RunUntil(func() bool {
			for _, fe := range fes {
				if !fe.Idle() {
					return false
				}
			}
			return proto.Idle()
		}, 100000)
		fp := ""
		for off := 0; off <= procs; off++ {
			fp += fmt.Sprint(proto.PeekMemory(off), ";")
		}
		ops := 0
		for _, fe := range fes {
			ops += len(cfm.FrontendExecution(fe).Ops)
		}
		return fmt.Sprint(eng.Now(), " ", tr.Digest(), " ", ops, " ", fp, " reg:", reg.Snapshot().Digest(),
			fmt.Sprintf(" flight:%016x", rec.Digest()))
	})
}

// TestEquivBufferedOmega runs hot-spot traffic through the buffered MIN
// (per-terminal shards, serial column sweep) under both engines.
func TestEquivBufferedOmega(t *testing.T) {
	runDifferential(t, func(eng cfm.Engine) string {
		net := cfm.NewBufferedOmega(cfm.BufferedConfig{
			Terminals: 16, QueueCap: 4, ServiceTime: 2,
			Rate: 0.3, HotFraction: 0.125, HotModule: 3, Seed: 21})
		reg := cfm.NewRegistry()
		net.Instrument(reg)
		rec := cfm.NewFlightRecorder(0)
		net.RecordFlight(rec)
		eng.Register(net)
		eng.Run(3000)
		return fmt.Sprint(net.Injected, net.DeliveredBg, net.DeliveredHot,
			net.LatencyBgTotal, net.LatencyHotTotal,
			" reg:", reg.Snapshot().Digest(),
			fmt.Sprintf(" flight:%016x", rec.Digest()))
	})
}

// TestEquivClusterSystem exercises the multi-cluster extension: local
// writes into every cluster followed by cross-cluster remote reads whose
// replies re-enter the requesting side.
func TestEquivClusterSystem(t *testing.T) {
	runDifferential(t, func(eng cfm.Engine) string {
		const clusters = 4
		cfg := cfm.Config{Processors: 4, BankCycle: 2, WordWidth: 16}
		cs := cfm.NewClusterSystem(cfg, clusters, cfg.Processors-1, 3)
		reg := cfm.NewRegistry()
		cs.Instrument(reg)
		got := make([]cfm.Word, clusters)
		var gotAt [clusters]cfm.Slot
		step := 0
		eng.Register(&sim.FuncTicker{
			Phases: sim.MaskOf(sim.PhaseIssue),
			OnTick: func(tt cfm.Slot, ph cfm.Phase) {
				switch {
				case step == 0:
					for cl := 0; cl < clusters; cl++ {
						blk := make(cfm.Block, cfg.Banks())
						for k := range blk {
							blk[k] = cfm.Word(1000 + cl)
						}
						cs.LocalWrite(tt, cl, 0, 0, blk, nil)
					}
					step = 1
				case step == 1 && tt == 60:
					for cl := 0; cl < clusters; cl++ {
						cl := cl
						cs.RemoteRead(tt, cl, 0, func(b cfm.Block, at cfm.Slot) {
							got[cl] = b[0]
							gotAt[cl] = at
						})
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
		})
		eng.Register(cs)
		eng.Run(500)
		sum := int64(0)
		for cl := 0; cl < clusters; cl++ {
			sum += cs.Cluster(cl).Completed
		}
		return fmt.Sprint(cs.RemoteCompleted, sum, got, gotAt, " reg:", reg.Snapshot().Digest())
	})
}

// TestEquivRandomWorkloads sweeps 50 random seeds and machine shapes of
// the partially conflict-free system through both engines — the bulk
// statistical evidence behind the serial-equivalence guarantee.
func TestEquivRandomWorkloads(t *testing.T) {
	meta := cfm.NewRNG(0xd1f)
	shapes := []cfm.PartialConfig{
		{Modules: 2, BlockWords: 2, BankCycle: 1},
		{Modules: 4, BlockWords: 4, BankCycle: 2},
		{Modules: 2, BlockWords: 8, BankCycle: 2},
		{Modules: 8, BlockWords: 4, BankCycle: 1},
	}
	workers := []int{2, runtime.GOMAXPROCS(0)}
	for i := 0; i < 50; i++ {
		cfg := shapes[meta.Intn(len(shapes))]
		cfg.Processors = cfg.Modules * (cfg.BlockWords / cfg.BankCycle)
		cfg.Locality = 0.5 + float64(meta.Intn(5))/10
		cfg.AccessRate = 0.05 + float64(meta.Intn(4))/20
		cfg.RetryMean = 1 + meta.Intn(8)
		cfg.Seed = meta.Uint64()
		slots := int64(200 + meta.Intn(400))

		run := func(eng cfm.Engine) string {
			p := cfm.NewPartial(cfg)
			eng.Register(p)
			eng.Run(slots)
			return fmt.Sprint(p.Completed, p.Retries, p.TotalLatency, p.LocalAcc, p.RemoteAcc)
		}
		want := run(cfm.NewClock())
		for _, w := range workers {
			if got := run(cfm.NewParallelClock(w)); got != want {
				t.Fatalf("seed sweep %d (cfg %+v, %d slots, workers=%d) diverged:\nserial   %s\nparallel %s",
					i, cfg, slots, w, want, got)
			}
		}
	}
}

// TestEquivEngineFacade pins the NewEngine dispatcher: parallel=false
// must return a serial Clock, parallel=true a ParallelClock.
func TestEquivEngineFacade(t *testing.T) {
	if _, ok := cfm.NewEngine(false, 0).(*cfm.Clock); !ok {
		t.Fatal("NewEngine(false, _) did not return a *Clock")
	}
	if _, ok := cfm.NewEngine(true, 2).(*cfm.ParallelClock); !ok {
		t.Fatal("NewEngine(true, _) did not return a *ParallelClock")
	}
}

// TestEquivIdleWakeBanks drives the conflict-free memory through two
// bursts separated by a long quiet gap. After the first burst drains,
// every bank is quiescent and the engines park the component; the late
// burst must wake it, and the whole run — parked stretch included — must
// stay bit-identical across engines and worker counts.
func TestEquivIdleWakeBanks(t *testing.T) {
	runDifferential(t, func(eng cfm.Engine) string {
		cfg := cfm.Config{Processors: 8, BankCycle: 2, WordWidth: 16}
		tr := cfm.NewTrace()
		mem := cfm.NewMemory(cfg, tr)
		reg := cfm.NewRegistry()
		mem.Instrument(reg)
		eng.Register(&sim.FuncTicker{
			Phases: sim.MaskOf(sim.PhaseIssue),
			OnTick: func(tt cfm.Slot, ph cfm.Phase) {
				if burst := tt < 4 || (tt >= 2500 && tt < 2504); !burst {
					return
				}
				for p := 0; p < cfg.Processors; p += 2 {
					if !mem.CanStart(tt, p) {
						continue
					}
					blk := make(cfm.Block, cfg.Banks())
					for k := range blk {
						blk[k] = cfm.Word(int(tt)*10 + p)
					}
					mem.StartWrite(tt, p, p, blk, nil)
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
		eng.Run(4000)
		// Digest equality alone would not catch a wake that never fires
		// (both engines would agree on the truncated run): require the
		// late burst to have completed.
		if mem.Completed < 8 {
			t.Fatalf("late burst did not complete: %d accesses", mem.Completed)
		}
		fp := ""
		for p := 0; p < cfg.Processors; p++ {
			fp += fmt.Sprint(mem.PeekBlock(p)[0], ",")
		}
		return fmt.Sprint(mem.Completed, " ", tr.Digest(), " ", fp,
			" reg:", reg.Snapshot().Digest())
	})
}

// TestEquivIdleWakeOmegaColumns runs the buffered omega at a rate low
// enough that whole switch columns sit empty for long stretches — the
// occupancy-counter sweep skips them — and sparse hot-spot packets
// repopulate the columns one hop per slot. The skip must not disturb the
// round-robin arbiters or any counter.
func TestEquivIdleWakeOmegaColumns(t *testing.T) {
	runDifferential(t, func(eng cfm.Engine) string {
		net := cfm.NewBufferedOmega(cfm.BufferedConfig{
			Terminals: 16, QueueCap: 4, ServiceTime: 2, Rate: 0.002,
			HotFraction: 0.3, Seed: 99})
		reg := cfm.NewRegistry()
		net.Instrument(reg)
		eng.Register(net)
		eng.Run(6000)
		if net.DeliveredBg+net.DeliveredHot == 0 {
			t.Fatal("no traffic delivered: scenario is vacuous")
		}
		return fmt.Sprint(net.Injected, " ", net.DeliveredBg, " ", net.DeliveredHot, " ",
			net.LatencyBgTotal, " ", net.QueuedPackets(), " ", net.SourceBacklog(),
			" reg:", reg.Snapshot().Digest())
	})
}

// TestSkipAheadActuallySkips guards the skip-ahead sweep in
// runDifferential against vacuity: on the bursty bank scenario, the
// event-horizon clock must actually jump the quiet gap — if every
// component conservatively pinned the clock, the equivalence tests above
// would pass without testing anything.
func TestSkipAheadActuallySkips(t *testing.T) {
	run := func(eng cfm.Engine) {
		cfg := cfm.Config{Processors: 8, BankCycle: 2, WordWidth: 16}
		mem := cfm.NewMemory(cfg, nil)
		eng.Register(&sim.FuncTicker{
			Phases: sim.MaskOf(sim.PhaseIssue),
			OnTick: func(tt cfm.Slot, ph cfm.Phase) {
				if tt != 0 && tt != 2500 {
					return
				}
				for p := 0; p < cfg.Processors; p += 2 {
					blk := make(cfm.Block, cfg.Banks())
					mem.StartWrite(tt, p, p, blk, nil)
				}
			},
			NextEvent: func(now cfm.Slot) cfm.Slot {
				switch {
				case now <= 0:
					return 0
				case now <= 2500:
					return 2500
				default:
					return cfm.HorizonNone
				}
			},
		})
		eng.Register(mem)
		eng.SetSkipAhead(true)
		eng.Run(4000)
		if mem.Completed != 8 {
			t.Fatalf("expected 8 completions, got %d", mem.Completed)
		}
		if fired, run := eng.SlotsFired(), eng.SlotsRun(); run != 4000 || fired >= run/2 {
			t.Fatalf("skip-ahead is vacuous: fired %d of %d slots", fired, run)
		}
	}
	t.Run("serial", func(t *testing.T) { run(cfm.NewClock()) })
	for _, w := range equivWorkers() {
		w := w
		t.Run(fmt.Sprintf("workers%d", w), func(t *testing.T) { run(cfm.NewParallelClock(w)) })
	}
}
