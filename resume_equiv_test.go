// Resume-equivalence suite: every differential scenario of
// engine_equiv_test.go is run to a cut slot, checkpointed, restored into
// a freshly built engine, and run to completion — and the resulting
// digests (trace, memory fingerprints, stats counters, registry) must be
// bit-identical to the uninterrupted oracle. The cut sweep covers the
// first slot, the middle, and the last slot before the end; the engine
// sweep covers serial and parallel, dense and skip-ahead; and the
// cross-engine test restores serial checkpoints into parallel engines
// and vice versa. This is the proof obligation of the checkpoint format:
// a snapshot plus the scenario's construction code IS the simulation
// state.
package cfm_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"cfm"
	"cfm/internal/core"
	"cfm/internal/memory"
	"cfm/internal/sim"
)

// resumeCase is one checkpointable scenario. build registers every
// component on eng (the same construction must produce the same fleet on
// every call — checkpoints hold state, not code) and returns finish,
// which runs eng from its current slot to the scenario's end, and
// digest, which summarizes every simulated observable.
type resumeCase struct {
	name      string
	extraCuts []int64 // scenario-specific cut slots beyond {1, mid, last-1}
	build     func(eng cfm.Engine) (finish func(), digest func() string)
}

// runTo runs eng up to absolute slot total (a no-op if already there).
func runTo(eng cfm.Engine, total int64) {
	if left := total - int64(eng.Now()); left > 0 {
		eng.Run(left)
	}
}

func resumeCases() []resumeCase {
	return []resumeCase{
		{name: "ConventionalFig313", build: func(eng cfm.Engine) (func(), func() string) {
			conv := cfm.NewConventional(cfm.ConventionalConfig{
				Processors: 16, Modules: 16, BlockTime: 8,
				AccessRate: 0.2, RetryMean: 4, Seed: 313})
			reg := cfm.NewRegistry()
			conv.Instrument(reg)
			eng.Register(conv)
			eng.AttachState("metrics", reg)
			return func() { runTo(eng, 3000) }, func() string {
				return fmt.Sprint(eng.Now(), conv.Completed, conv.Retries, conv.TotalLatency,
					" reg:", reg.Snapshot().Digest())
			}
		}},
		{name: "PartialFig314", build: func(eng cfm.Engine) (func(), func() string) {
			p := cfm.NewPartial(cfm.PartialConfig{
				Processors: 64, Modules: 8, BlockWords: 16, BankCycle: 2,
				Locality: 0.9, AccessRate: 0.1, RetryMean: 4, Seed: 314})
			reg := cfm.NewRegistry()
			p.Instrument(reg)
			eng.Register(p)
			eng.AttachState("metrics", reg)
			return func() { runTo(eng, 2000) }, func() string {
				return fmt.Sprint(p.Completed, p.Retries, p.TotalLatency, p.LocalAcc, p.RemoteAcc,
					" reg:", reg.Snapshot().Digest())
			}
		}},
		{name: "PartialFig315", build: func(eng cfm.Engine) (func(), func() string) {
			p := cfm.NewPartial(cfm.PartialConfig{
				Processors: 128, Modules: 16, BlockWords: 16, BankCycle: 2,
				Locality: 0.75, AccessRate: 0.15, RetryMean: 8, Seed: 315})
			eng.Register(p)
			return func() { runTo(eng, 1500) }, func() string {
				return fmt.Sprint(p.Completed, p.Retries, p.TotalLatency, p.LocalAcc, p.RemoteAcc)
			}
		}},
		{name: "CFMemoryTraced", build: func(eng cfm.Engine) (func(), func() string) {
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
				Save: func(enc *sim.StateEncoder) {
					for _, v := range left {
						enc.Int(v)
					}
				},
				Load: func(dec *sim.StateDecoder) {
					for p := range left {
						left[p] = dec.Int()
					}
				},
			})
			eng.Register(mem)
			eng.AttachState("trace", tr)
			eng.AttachState("metrics", reg)
			return func() { runTo(eng, 4000) }, func() string {
				fp := ""
				for p := 0; p < cfg.Processors; p++ {
					fp += fmt.Sprint(mem.PeekBlock(p)[0], ",")
				}
				return fmt.Sprint(mem.Completed, " ", tr.Digest(), " ", fp,
					" reg:", reg.Snapshot().Digest())
			}
		}},
		{name: "CacheCoherenceTraffic", build: func(eng cfm.Engine) (func(), func() string) {
			const procs = 4
			tr := cfm.NewTrace()
			proto := cfm.NewCacheProtocol(cfm.CacheConfig{Processors: procs, Lines: 8, RetryDelay: 2}, tr)
			reg := cfm.NewRegistry()
			proto.Instrument(reg)
			fes := make([]*cfm.Frontend, procs)
			for p := range fes {
				fes[p] = cfm.NewFrontend(proto, eng, p, cfm.BufferedOrder)
			}
			eng.Register(cfm.NewFrontendGroup(fes...))
			eng.Register(proto)
			eng.AttachState("trace", tr)
			eng.AttachState("metrics", reg)
			for p, fe := range fes {
				fe.Store(p, 0, cfm.Word(10+p))
				fe.Load(procs, 0, nil)
				fe.Store(procs, p, cfm.Word(100+p))
				fe.Load(p, 0, nil)
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
			return finish, func() string {
				fp := ""
				for off := 0; off <= procs; off++ {
					fp += fmt.Sprint(proto.PeekMemory(off), ";")
				}
				ops := 0
				for _, fe := range fes {
					ops += len(cfm.FrontendExecution(fe).Ops)
				}
				return fmt.Sprint(eng.Now(), " ", tr.Digest(), " ", ops, " ", fp,
					" reg:", reg.Snapshot().Digest())
			}
		}},
		{name: "BufferedOmega", build: func(eng cfm.Engine) (func(), func() string) {
			net := cfm.NewBufferedOmega(cfm.BufferedConfig{
				Terminals: 16, QueueCap: 4, ServiceTime: 2,
				Rate: 0.3, HotFraction: 0.125, HotModule: 3, Seed: 21})
			reg := cfm.NewRegistry()
			net.Instrument(reg)
			eng.Register(net)
			eng.AttachState("metrics", reg)
			return func() { runTo(eng, 3000) }, func() string {
				return fmt.Sprint(net.Injected, net.DeliveredBg, net.DeliveredHot,
					net.LatencyBgTotal, net.LatencyHotTotal,
					" reg:", reg.Snapshot().Digest())
			}
		}},
		// The extra cut at slot 70 lands while remote replies are in
		// flight, exercising remoteReq reply rebinding and the serving-list
		// completion-callback reconstruction; at cuts 250 and 499 the
		// remote traffic has drained and only counters remain.
		{name: "ClusterSystem", extraCuts: []int64{70}, build: func(eng cfm.Engine) (func(), func() string) {
			const clusters = 4
			cfg := cfm.Config{Processors: 4, BankCycle: 2, WordWidth: 16}
			cs := cfm.NewClusterSystem(cfg, clusters, cfg.Processors-1, 3)
			reg := cfm.NewRegistry()
			cs.Instrument(reg)
			got := make([]cfm.Word, clusters)
			gotAt := make([]cfm.Slot, clusters)
			// Reply callbacks are code: a restored checkpoint rebuilds them
			// from the operation's identity through this hook.
			cs.SetReplyRebinder(func(cluster int, kind core.AccessKind, offset int, arrive cfm.Slot) func(memory.Block, cfm.Slot) {
				return func(b memory.Block, at cfm.Slot) {
					got[cluster] = b[0]
					gotAt[cluster] = at
				}
			})
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
			eng.AttachState("metrics", reg)
			return func() { runTo(eng, 500) }, func() string {
				sum := int64(0)
				for cl := 0; cl < clusters; cl++ {
					sum += cs.Cluster(cl).Completed
				}
				return fmt.Sprint(cs.RemoteCompleted, sum, got, gotAt, " reg:", reg.Snapshot().Digest())
			}
		}},
		// The cuts at 1 and 2000 land inside the parked stretch between the
		// two bursts: the checkpoint must capture parking flags so the
		// restored engine still wakes the banks for the late burst.
		{name: "IdleWakeBanks", build: func(eng cfm.Engine) (func(), func() string) {
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
			eng.AttachState("trace", tr)
			eng.AttachState("metrics", reg)
			return func() { runTo(eng, 4000) }, func() string {
				fp := ""
				for p := 0; p < cfg.Processors; p++ {
					fp += fmt.Sprint(mem.PeekBlock(p)[0], ",")
				}
				return fmt.Sprint(mem.Completed, " ", tr.Digest(), " ", fp,
					" reg:", reg.Snapshot().Digest())
			}
		}},
		{name: "IdleWakeOmegaColumns", build: func(eng cfm.Engine) (func(), func() string) {
			net := cfm.NewBufferedOmega(cfm.BufferedConfig{
				Terminals: 16, QueueCap: 4, ServiceTime: 2, Rate: 0.002,
				HotFraction: 0.3, Seed: 99})
			reg := cfm.NewRegistry()
			net.Instrument(reg)
			eng.Register(net)
			eng.AttachState("metrics", reg)
			return func() { runTo(eng, 6000) }, func() string {
				return fmt.Sprint(net.Injected, " ", net.DeliveredBg, " ", net.DeliveredHot, " ",
					net.LatencyBgTotal, " ", net.QueuedPackets(), " ", net.SourceBacklog(),
					" reg:", reg.Snapshot().Digest())
			}
		}},
		{name: "RandomWorkloadShape", build: func(eng cfm.Engine) (func(), func() string) {
			p := cfm.NewPartial(cfm.PartialConfig{
				Processors: 8, Modules: 4, BlockWords: 4, BankCycle: 2,
				Locality: 0.7, AccessRate: 0.1, RetryMean: 4, Seed: 0xabc})
			eng.Register(p)
			return func() { runTo(eng, 400) }, func() string {
				return fmt.Sprint(p.Completed, p.Retries, p.TotalLatency, p.LocalAcc, p.RemoteAcc)
			}
		}},
		// Partial shapes where the set-major index map degenerates — one
		// processor per cluster (a single contention set holding the whole
		// fleet) and a single module (one processor per set) — plus the
		// Fig. 3.14 machine under a §7.2 Homes placement.
		partialCase("PartialOnePerCluster", cfm.PartialConfig{
			Processors: 8, Modules: 8, BlockWords: 2, BankCycle: 2,
			Locality: 0.5, AccessRate: 0.15, RetryMean: 3, Seed: 81}, 1500),
		partialCase("PartialSingleModule", cfm.PartialConfig{
			Processors: 8, Modules: 1, BlockWords: 16, BankCycle: 2,
			Locality: 0.5, AccessRate: 0.05, RetryMean: 4, Seed: 11}, 1500),
		partialCase("PartialHomes", partialHomesConfig(), 200),
	}
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

// partialCase is an instrumented, flight-recorded Partial scenario run
// for the given number of slots. Its digest covers the counters, the
// registry, the flight stream, and the component's own snapshot bytes.
func partialCase(name string, cfg cfm.PartialConfig, slots int64) resumeCase {
	return resumeCase{name: name, build: func(eng cfm.Engine) (func(), func() string) {
		p := cfm.NewPartial(cfg)
		reg := cfm.NewRegistry()
		p.Instrument(reg)
		rec := cfm.NewFlightRecorder(0)
		p.RecordFlight(rec)
		eng.Register(p)
		eng.AttachState("metrics", reg)
		eng.AttachState("flight", rec)
		return func() { runTo(eng, slots) }, func() string {
			enc := sim.NewStateEncoder()
			p.SaveState(enc)
			h := fnv.New64a()
			h.Write(enc.Bytes())
			return fmt.Sprint(p.Completed, p.Retries, p.TotalLatency, p.LocalAcc, p.RemoteAcc,
				" reg:", reg.Snapshot().Digest(),
				fmt.Sprintf(" flight:%016x state:%016x", rec.Digest(), h.Sum64()))
		}
	}}
}

// resumeOracle runs the uninterrupted serial dense oracle and returns
// its digest and end slot.
func resumeOracle(rc resumeCase) (want string, total int64) {
	eng := cfm.NewClock()
	finish, digest := rc.build(eng)
	finish()
	return digest(), int64(eng.Now())
}

// resumeCuts returns the cut sweep for a scenario of the given length.
func resumeCuts(rc resumeCase, total int64) []int64 {
	cuts := []int64{1, total / 2, total - 1}
	cuts = append(cuts, rc.extraCuts...)
	seen := map[int64]bool{}
	out := cuts[:0]
	for _, c := range cuts {
		if c <= 0 || c >= total || seen[c] {
			continue
		}
		seen[c] = true
		out = append(out, c)
	}
	return out
}

// checkpointAt builds the scenario on a fresh source engine, runs it to
// the cut, and returns the checkpoint bytes.
func checkpointAt(t *testing.T, rc resumeCase, mkSrc func() cfm.Engine, cut int64) []byte {
	t.Helper()
	eng := mkSrc()
	rc.build(eng)
	eng.Run(cut)
	var buf bytes.Buffer
	if err := eng.Checkpoint(&buf); err != nil {
		t.Fatalf("checkpoint at slot %d: %v", cut, err)
	}
	return buf.Bytes()
}

// restoreAndFinish restores ckpt into a freshly built target engine,
// runs it to completion, and compares its digest against want.
func restoreAndFinish(t *testing.T, rc resumeCase, mkDst func() cfm.Engine, ckpt []byte, cut int64, want string) {
	t.Helper()
	var finish func()
	var digest func() string
	restored, err := cfm.Restore(bytes.NewReader(ckpt), func() cfm.Engine {
		eng := mkDst()
		finish, digest = rc.build(eng)
		return eng
	})
	if err != nil {
		t.Fatalf("restore at slot %d: %v", cut, err)
	}
	if now := int64(restored.Now()); now != cut {
		t.Fatalf("restored engine resumed at slot %d, checkpoint was cut at %d", now, cut)
	}
	finish()
	if got := digest(); got != want {
		t.Fatalf("resumed run (cut at slot %d) diverged from the uninterrupted oracle:\noracle  %s\nresumed %s",
			cut, want, got)
	}
}

// resumeModes is the engine-mode sweep: serial and parallel, dense and
// skip-ahead. Checkpoints are taken and restored under the same mode;
// TestCrossEngineRestore covers the mixed pairs.
func resumeModes() []struct {
	name string
	mk   func() cfm.Engine
} {
	mode := func(parallel, skip bool) func() cfm.Engine {
		return func() cfm.Engine {
			var eng cfm.Engine
			if parallel {
				eng = cfm.NewParallelClock(2)
			} else {
				eng = cfm.NewClock()
			}
			eng.SetSkipAhead(skip)
			return eng
		}
	}
	// Epoch-batched modes use K=3 so the battery's cut points are
	// rarely episode multiples: every checkpoint then exercises the
	// episode-truncation path (episodes never span a Run budget, so a
	// cut mid-epoch is structurally impossible and the batched engine
	// must land on the cut slot exactly).
	epoch := func(skip bool) func() cfm.Engine {
		return func() cfm.Engine {
			eng := cfm.NewParallelClock(2)
			eng.SetEpochBatch(3)
			eng.SetSkipAhead(skip)
			return eng
		}
	}
	return []struct {
		name string
		mk   func() cfm.Engine
	}{
		{"serial", mode(false, false)},
		{"serial-skip", mode(false, true)},
		{"parallel", mode(true, false)},
		{"parallel-skip", mode(true, true)},
		{"parallel-epoch", epoch(false)},
		{"parallel-epoch-skip", epoch(true)},
	}
}

// TestResumeEquivalence is the main battery: scenarios × cuts × engine
// modes, each checkpointed mid-run, restored, and digest-compared
// against the uninterrupted oracle.
func TestResumeEquivalence(t *testing.T) {
	for _, rc := range resumeCases() {
		rc := rc
		t.Run(rc.name, func(t *testing.T) {
			want, total := resumeOracle(rc)
			if total < 3 {
				t.Fatalf("scenario too short to cut: %d slots", total)
			}
			for _, m := range resumeModes() {
				for _, cut := range resumeCuts(rc, total) {
					ckpt := checkpointAt(t, rc, m.mk, cut)
					restoreAndFinish(t, rc, m.mk, ckpt, cut, want)
				}
			}
		})
	}
}

// TestCrossEngineRestore checkpoints under the serial clock and restores
// into the parallel engine, and vice versa: snapshots are engine-neutral
// because the ticker fleet is serialized in canonical (priority,
// registration) order, which both engines share.
func TestCrossEngineRestore(t *testing.T) {
	serial := func() cfm.Engine { return cfm.NewClock() }
	parallel := func() cfm.Engine { return cfm.NewParallelClock(2) }
	// Epoch batching must be invisible to snapshots: episodes end at
	// Run-budget boundaries, so a batched engine checkpoints at exactly
	// the cut slot even when the cut is not a multiple of K, and a
	// batched engine restored from an unbatched snapshot (and vice
	// versa) replays to the same digest.
	batched := func() cfm.Engine {
		eng := cfm.NewParallelClock(3)
		eng.SetEpochBatch(4)
		return eng
	}
	for _, rc := range resumeCases() {
		rc := rc
		t.Run(rc.name, func(t *testing.T) {
			want, total := resumeOracle(rc)
			cut := total / 2
			restoreAndFinish(t, rc, parallel, checkpointAt(t, rc, serial, cut), cut, want)
			restoreAndFinish(t, rc, serial, checkpointAt(t, rc, parallel, cut), cut, want)
			restoreAndFinish(t, rc, batched, checkpointAt(t, rc, serial, cut), cut, want)
			restoreAndFinish(t, rc, serial, checkpointAt(t, rc, batched, cut), cut, want)
		})
	}
}
