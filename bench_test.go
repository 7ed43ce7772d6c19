// Benchmark harness: one testing.B per table and figure of the
// dissertation's evaluation (see DESIGN.md's per-experiment index), plus
// ablation benches for the design choices called out there. Run with
//
//	go test -bench=. -benchmem
//
// Where a benchmark has a meaningful headline quantity (efficiency,
// latency in cycles, slots per transfer) it is attached via
// b.ReportMetric so the bench output doubles as the experiment readout.
package cfm_test

import (
	"fmt"
	"runtime"
	"testing"

	"cfm"
	"cfm/internal/att"
	"cfm/internal/cache"
	"cfm/internal/consistency"
	"cfm/internal/core"
	"cfm/internal/linda"
	"cfm/internal/network"
	"cfm/internal/sim"
)

// BenchmarkTable31 regenerates the address path connection table of the
// 4-processor, 8-bank, c=2 machine.
func BenchmarkTable31(b *testing.B) {
	cfg := cfm.Config{Processors: 4, BankCycle: 2, WordWidth: 32}
	for i := 0; i < b.N; i++ {
		at := cfm.NewATSpace(cfg)
		tbl := at.ConnectionTable()
		if tbl[2][0] != 3 { // the slot-2 row starts with P3 (Table 3.1)
			b.Fatal("Table 3.1 pattern broken")
		}
	}
}

// BenchmarkTable33 regenerates the configuration trade-off table.
func BenchmarkTable33(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := cfm.Tradeoff(256, 2)
		if rows[4].Latency != 17 || rows[4].Processors != 8 {
			b.Fatal("Table 3.3 row broken")
		}
	}
}

// BenchmarkTable34 constructs the 8×8 synchronous omega network and its
// full per-slot state table.
func BenchmarkTable34(b *testing.B) {
	for i := 0; i < b.N; i++ {
		so, err := cfm.NewSyncOmega(8)
		if err != nil {
			b.Fatal(err)
		}
		if so.StateTable()[1][3] != 1 {
			b.Fatal("Table 3.4 state broken")
		}
	}
}

// BenchmarkTable35 enumerates the 64-bank partially synchronous
// configurations.
func BenchmarkTable35(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for cc := 0; cc <= 6; cc++ {
			po, err := cfm.NewPartialOmega(64, cc)
			if err != nil || po.Modules() != 1<<cc {
				b.Fatal("Table 3.5 row broken")
			}
		}
	}
}

// BenchmarkFig21 runs the tree-saturation experiment: a buffered MIN
// under 40% hot-spot traffic. The reported metric is the background
// latency inflation factor over the uniform-traffic baseline.
func BenchmarkFig21(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		run := func(hot float64) float64 {
			net := cfm.NewBufferedOmega(cfm.BufferedConfig{
				Terminals: 16, QueueCap: 4, ServiceTime: 2, Rate: 0.1,
				HotFraction: hot, Seed: 7,
			})
			clk := cfm.NewClock()
			clk.Register(net)
			clk.Run(10000)
			return net.MeanLatencyBg()
		}
		ratio = run(0.4) / run(0)
	}
	b.ReportMetric(ratio, "latency-inflation-x")
}

// BenchmarkFig36 renders the block read timing diagram.
func BenchmarkFig36(b *testing.B) {
	at := cfm.NewATSpace(cfm.Config{Processors: 4, BankCycle: 2, WordWidth: 32})
	for i := 0; i < b.N; i++ {
		if len(at.RenderTiming(0, 0)) == 0 {
			b.Fatal("empty diagram")
		}
	}
}

// BenchmarkFig39 computes the message header comparison.
func BenchmarkFig39(b *testing.B) {
	for i := 0; i < b.N; i++ {
		syncNet, _ := cfm.NewPartialOmega(64, 0)
		convNet, _ := cfm.NewPartialOmega(64, 6)
		if syncNet.RequestHeader(1024).Bits() >= convNet.RequestHeader(1024).Bits() {
			b.Fatal("header saving lost")
		}
	}
}

// benchEfficiencyFigure runs one analytic figure plus a simulation anchor
// and reports both efficiencies.
func benchEfficiencyFigure(b *testing.B, series func(int) []cfm.Series, simPoint func() float64) {
	var analyticE, simE float64
	for i := 0; i < b.N; i++ {
		ss := series(12)
		last := ss[len(ss)-1] // conventional curve
		analyticE = last.Points[len(last.Points)-1].Efficiency
		simE = simPoint()
	}
	b.ReportMetric(analyticE, "analytic-conv-E(0.06)")
	b.ReportMetric(simE, "simulated-E")
}

// BenchmarkFig313 regenerates Fig. 3.13 (conventional vs conflict-free).
func BenchmarkFig313(b *testing.B) {
	benchEfficiencyFigure(b, cfm.Fig313, func() float64 {
		cs := cfm.NewConventional(cfm.ConventionalConfig{
			Processors: 8, Modules: 8, BlockTime: 17,
			AccessRate: 0.05, RetryMean: 8, Seed: 3,
		})
		clk := cfm.NewClock()
		clk.Register(cs)
		clk.Run(50000)
		return cs.Efficiency()
	})
}

// BenchmarkFig314 regenerates Fig. 3.14 (n=64, m=8 partial CFM).
func BenchmarkFig314(b *testing.B) {
	benchEfficiencyFigure(b, cfm.Fig314, func() float64 {
		p := cfm.NewPartial(core.PartialConfig{
			Processors: 64, Modules: 8, BlockWords: 16, BankCycle: 2,
			Locality: 0.7, AccessRate: 0.04, RetryMean: 8, Seed: 5,
		})
		clk := cfm.NewClock()
		clk.Register(p)
		clk.Run(50000)
		return p.Efficiency()
	})
}

// BenchmarkFig315 regenerates Fig. 3.15 (n=128, m=16 partial CFM).
func BenchmarkFig315(b *testing.B) {
	benchEfficiencyFigure(b, cfm.Fig315, func() float64 {
		p := cfm.NewPartial(core.PartialConfig{
			Processors: 128, Modules: 16, BlockWords: 16, BankCycle: 2,
			Locality: 0.7, AccessRate: 0.04, RetryMean: 8, Seed: 5,
		})
		clk := cfm.NewClock()
		clk.Register(p)
		clk.Run(50000)
		return p.Efficiency()
	})
}

// BenchmarkFig43 runs the write-abort scenario of Fig. 4.3 (two staggered
// same-block writes; the earlier aborts).
func BenchmarkFig43(b *testing.B) {
	blk3 := make(cfm.Block, 8)
	blk4 := make(cfm.Block, 8)
	for i := range blk3 {
		blk3[i], blk4[i] = 3, 4
	}
	for i := 0; i < b.N; i++ {
		tr := cfm.NewTracked(8, cfm.LatestWins, nil)
		clk := cfm.NewClock()
		clk.Register(tr)
		aborted := false
		tr.StartWrite(0, 1, 0, blk3, func(r cfm.TrackedResult) { aborted = r.Outcome == att.Aborted })
		clk.Run(1)
		tr.StartWrite(1, 3, 0, blk4, nil)
		clk.Run(20)
		if !aborted {
			b.Fatal("Fig 4.3 abort did not happen")
		}
	}
}

// BenchmarkFig46 runs the swap interaction scenario of Fig. 4.6:
// overlapping atomic swaps on one block.
func BenchmarkFig46(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := cfm.NewTracked(8, cfm.EarliestWins, nil)
		clk := cfm.NewClock()
		clk.Register(tr)
		done := 0
		for _, p := range []int{0, 4} {
			v := cfm.Word(p + 1)
			tr.StartSwap(0, p, 0, func(cfm.Block) cfm.Block {
				nb := make(cfm.Block, 8)
				for j := range nb {
					nb[j] = v
				}
				return nb
			}, func(cfm.TrackedResult) { done++ })
		}
		clk.Run(500)
		if done != 2 {
			b.Fatalf("swaps completed: %d", done)
		}
	}
}

// BenchmarkFig54 measures the lock transfer and reports it in slots.
func BenchmarkFig54(b *testing.B) {
	var transfer float64
	for i := 0; i < b.N; i++ {
		proto := cfm.NewCacheProtocol(cfm.CacheConfig{Processors: 4, Lines: 4, RetryDelay: 1}, nil)
		lock := cfm.NewLocker(proto, 0)
		clk := cfm.NewClock()
		clk.Register(lock)
		clk.Register(proto)
		lock.Request(0)
		clk.RunUntil(func() bool { return lock.Holding(0) }, 1000)
		lock.Request(1)
		lock.Request(3)
		clk.Run(120)
		release := clk.Now()
		lock.Release(0)
		clk.RunUntil(func() bool { return lock.Holding(1) || lock.Holding(3) }, 2000)
		transfer = float64(clk.Now() - release)
	}
	b.ReportMetric(transfer, "transfer-slots")
	b.ReportMetric(transfer/4, "transfer-accesses")
}

// BenchmarkFig55 runs the atomic multiple lock/unlock bitmap scenario.
func BenchmarkFig55(b *testing.B) {
	for i := 0; i < b.N; i++ {
		proto := cfm.NewCacheProtocol(cfm.CacheConfig{Processors: 8, Lines: 4, RetryDelay: 1}, nil)
		ml := cfm.NewMultiLocker(proto, 0)
		clk := cfm.NewClock()
		clk.Register(ml)
		clk.Register(proto)
		init := make(cfm.Block, 8)
		init[0] = 0b01010110
		proto.PokeMemory(0, init)
		ml.Request(0, 0b10100001)
		if _, ok := clk.RunUntil(func() bool { return ml.Holding(0) != 0 }, 3000); !ok {
			b.Fatal("multiple lock not granted")
		}
	}
}

// BenchmarkTable55 computes and simulates the CFM-vs-DASH latencies.
func BenchmarkTable55(b *testing.B) {
	var local, global, dirty int
	for i := 0; i < b.N; i++ {
		s := cfm.NewHierSystem(cfm.HierConfig{
			Clusters: 4, ProcsPerCluster: 4, BankCycle: 2, L1Lines: 4, L2Lines: 8}, nil)
		clk := cfm.NewClock()
		clk.Register(s)
		var at cfm.Slot
		start := clk.Now()
		s.Load(0, 0, 5, func(_ cfm.Block, t cfm.Slot) { at = t })
		clk.RunUntil(s.Idle, 10000)
		global = int(at - start)
		start = clk.Now()
		s.Load(0, 1, 5, func(_ cfm.Block, t cfm.Slot) { at = t })
		clk.RunUntil(s.Idle, 10000)
		local = int(at - start)
		s.Store(1, 2, 9, 0, 1, nil)
		clk.RunUntil(s.Idle, 10000)
		start = clk.Now()
		s.Load(0, 0, 9, func(_ cfm.Block, t cfm.Slot) { at = t })
		clk.RunUntil(s.Idle, 10000)
		dirty = int(at - start)
	}
	if local != 9 || global != 27 || dirty != 63 {
		b.Fatalf("latencies %d/%d/%d, want 9/27/63", local, global, dirty)
	}
	b.ReportMetric(float64(local), "local-cycles")
	b.ReportMetric(float64(global), "global-cycles")
	b.ReportMetric(float64(dirty), "dirty-remote-cycles")
}

// BenchmarkTable56 computes and simulates the CFM-vs-KSR1 latencies.
func BenchmarkTable56(b *testing.B) {
	var local, global int
	for i := 0; i < b.N; i++ {
		s := cfm.NewHierSystem(cfm.HierConfig{
			Clusters: 4, ProcsPerCluster: 32, BankCycle: 2, L1Lines: 4, L2Lines: 8}, nil)
		clk := cfm.NewClock()
		clk.Register(s)
		var at cfm.Slot
		start := clk.Now()
		s.Load(0, 0, 5, func(_ cfm.Block, t cfm.Slot) { at = t })
		clk.RunUntil(s.Idle, 10000)
		global = int(at - start)
		start = clk.Now()
		s.Load(0, 1, 5, func(_ cfm.Block, t cfm.Slot) { at = t })
		clk.RunUntil(s.Idle, 10000)
		local = int(at - start)
	}
	if local != 65 || global != 195 {
		b.Fatalf("latencies %d/%d, want 65/195", local, global)
	}
	b.ReportMetric(float64(local), "local-cycles")
	b.ReportMetric(float64(global), "global-cycles")
}

// BenchmarkFig65 runs the dining philosophers with data binding.
func BenchmarkFig65(b *testing.B) {
	for i := 0; i < b.N; i++ {
		binder := cfm.NewBinder()
		done := make(chan struct{}, 5)
		for p := 0; p < 5; p++ {
			go func(p int) {
				c := binder.Client(fmt.Sprintf("p%d", p))
				var region cfm.Region
				if p < 4 {
					region = cfm.NewRegion("chopstick", cfm.Dim{Start: p, Stop: p + 1, Step: 1})
				} else {
					region = cfm.NewRegion("chopstick", cfm.Dim{Start: 0, Stop: 4, Step: 4})
				}
				for m := 0; m < 10; m++ {
					nb, err := c.Bind(region, cfm.RW, true)
					if err != nil {
						b.Error(err)
						break
					}
					c.Unbind(nb)
				}
				done <- struct{}{}
			}(p)
		}
		for p := 0; p < 5; p++ {
			<-done
		}
	}
}

// BenchmarkFig69 runs barrier episodes via process binding.
func BenchmarkFig69(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := cfm.SpawnProcs(6, func(p int, procs []*cfm.Proc) {
			for e := 0; e < 4; e++ {
				procs[p].Grant(e)
				for q, pr := range procs {
					if q != p {
						pr.Await(e)
					}
				}
			}
		})
		g.Wait()
	}
}

// BenchmarkFig610 runs the 32-stage pipeline of Fig. 6.10.
func BenchmarkFig610(b *testing.B) {
	for i := 0; i < b.N; i++ {
		const stages, items = 32, 100
		g := cfm.SpawnProcs(stages, func(p int, procs []*cfm.Proc) {
			for j := 0; j < items; j++ {
				if p > 0 {
					procs[p-1].Await(j)
				}
				procs[p].GrantRange(0, j)
			}
		})
		g.Wait()
	}
}

// BenchmarkCFMSaturation measures raw simulator throughput with every
// processor issuing back-to-back block accesses (bank utilization 100%).
func BenchmarkCFMSaturation(b *testing.B) {
	cfg := cfm.Config{Processors: 8, BankCycle: 2, WordWidth: 16}
	mem := cfm.NewMemory(cfg, nil)
	clk := cfm.NewClock()
	clk.Register(sim.TickerFunc(func(t sim.Slot, ph sim.Phase) {
		if ph != sim.PhaseIssue {
			return
		}
		for p := 0; p < cfg.Processors; p++ {
			if mem.CanStart(t, p) {
				mem.StartRead(t, p, 0, nil)
			}
		}
	}))
	clk.Register(mem)
	b.ResetTimer()
	clk.Run(int64(b.N))
	b.ReportMetric(float64(mem.Completed)/float64(b.N), "accesses/slot")
}

// BenchmarkConventionalBaseline measures the conventional simulator.
func BenchmarkConventionalBaseline(b *testing.B) {
	cs := cfm.NewConventional(cfm.ConventionalConfig{
		Processors: 8, Modules: 8, BlockTime: 17,
		AccessRate: 0.03, RetryMean: 8, Seed: 1,
	})
	clk := cfm.NewClock()
	clk.Register(cs)
	b.ResetTimer()
	clk.Run(int64(b.N))
	b.ReportMetric(cs.Efficiency(), "efficiency")
}

// --- Ablation benches (DESIGN.md "Design choices called out for ablation") ---

// BenchmarkAblationATTPriority compares the two ATT arbitration policies
// on the same write-conflict workload: latest-wins aborts the loser
// outright; earliest-wins makes later writers defer. The metric is
// completed writes per 1000 slots.
func BenchmarkAblationATTPriority(b *testing.B) {
	for _, pri := range []struct {
		name string
		p    att.Priority
	}{{"LatestWins", cfm.LatestWins}, {"EarliestWins", cfm.EarliestWins}} {
		b.Run(pri.name, func(b *testing.B) {
			var completed, aborted int64
			for i := 0; i < b.N; i++ {
				tr := cfm.NewTracked(8, pri.p, nil)
				clk := cfm.NewClock()
				rng := cfm.NewRNG(uint64(i) + 1)
				clk.Register(sim.TickerFunc(func(t sim.Slot, ph sim.Phase) {
					if ph != sim.PhaseIssue {
						return
					}
					for p := 0; p < 8; p++ {
						if !tr.Busy(p) && rng.Bernoulli(0.05) {
							blk := make(cfm.Block, 8)
							tr.StartWrite(t, p, 0, blk, nil)
						}
					}
				}))
				clk.Register(tr)
				clk.Run(1000)
				completed += tr.CompletedWrites
				aborted += tr.AbortedWrites
			}
			b.ReportMetric(float64(completed)/float64(b.N), "writes/1000slots")
			b.ReportMetric(float64(aborted)/float64(b.N), "aborts/1000slots")
		})
	}
}

// BenchmarkAblationRetryDelay sweeps the cache-protocol retry delay
// (§5.2.3 discusses immediate vs delayed retry) and reports how long a
// contended fetch-and-add storm takes to drain.
func BenchmarkAblationRetryDelay(b *testing.B) {
	for _, delay := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("delay=%d", delay), func(b *testing.B) {
			var slots float64
			for i := 0; i < b.N; i++ {
				proto := cfm.NewCacheProtocol(cfm.CacheConfig{Processors: 8, Lines: 2, RetryDelay: delay}, nil)
				clk := cfm.NewClock()
				clk.Register(proto)
				for p := 0; p < 8; p++ {
					for r := 0; r < 3; r++ {
						proto.RMW(p, 0, func(old cfm.Block) cfm.Block {
							nb := old.Clone()
							nb[0]++
							return nb
						}, nil)
					}
				}
				n, ok := clk.RunUntil(proto.Idle, 100000)
				if !ok {
					b.Fatal("storm did not drain")
				}
				slots = float64(n)
			}
			b.ReportMetric(slots, "drain-slots")
		})
	}
}

// BenchmarkAblationSplit sweeps the circuit/clock column split of a
// 64-bank partially synchronous omega (Table 3.5 as an ablation): the
// metric is the simulated efficiency of the resulting partial CFM at
// fixed rate and locality.
func BenchmarkAblationSplit(b *testing.B) {
	// Modules m = 2^cc; keep n = 32 processors, c = 2, so the block size
	// shrinks as cc grows. Feasible splits need blockWords/c = n/m.
	for _, cfg := range []struct {
		cc, modules, blockWords int
	}{{1, 2, 32}, {2, 4, 16}, {3, 8, 8}} {
		b.Run(fmt.Sprintf("modules=%d", cfg.modules), func(b *testing.B) {
			var eff float64
			for i := 0; i < b.N; i++ {
				p := cfm.NewPartial(core.PartialConfig{
					Processors: 32, Modules: cfg.modules, BlockWords: cfg.blockWords,
					BankCycle: 2, Locality: 0.7, AccessRate: 0.03, RetryMean: 8, Seed: 9,
				})
				clk := cfm.NewClock()
				clk.Register(p)
				clk.Run(30000)
				eff = p.Efficiency()
			}
			b.ReportMetric(eff, "efficiency")
		})
	}
}

// BenchmarkAblationNetContention compares the conventional baseline with
// module contention only versus module contention PLUS circuit-switched
// omega path contention — the dissertation notes the real conventional
// system is worse than the analytic module-only model ("the actual
// efficiency of the conventional memory is even lower than depicted").
func BenchmarkAblationNetContention(b *testing.B) {
	// netConventional is an open-loop conventional simulator in which an
	// access must also hold its omega path for the block time; either a
	// busy module or a blocked path aborts the attempt for retry.
	netConventional := func(withNet bool, slots int64) float64 {
		const n, m, beta, retryMean = 8, 8, 17, 8
		rng := sim.NewRNG(2)
		omega := network.MustOmega(8)
		circ := network.NewCircuit(omega)
		modBusy := make([]int64, m)
		type proc struct {
			nextArrival int64
			backlog     []int64
			busyUntil   int64
			issuedAt    int64
			inFlight    bool
			target      int
			retryAt     int64
			waiting     bool
		}
		think := func() int64 {
			t := int64(1)
			for !rng.Bernoulli(0.03) {
				t++
			}
			return t
		}
		procs := make([]proc, n)
		for i := range procs {
			procs[i].nextArrival = think()
		}
		var completed, totalLat int64
		for t := int64(0); t < slots; t++ {
			for i := range procs {
				p := &procs[i]
				for t >= p.nextArrival {
					p.backlog = append(p.backlog, p.nextArrival)
					p.nextArrival += think()
				}
				if p.inFlight && t >= p.busyUntil {
					completed++
					totalLat += p.busyUntil - p.issuedAt
					p.inFlight = false
				}
				attempt := func() {
					if t < modBusy[p.target] {
						p.waiting, p.retryAt = true, t+1+int64(rng.Intn(2*retryMean-1))
						return
					}
					if withNet && !circ.TryEstablish(t, i, p.target, beta) {
						p.waiting, p.retryAt = true, t+1+int64(rng.Intn(2*retryMean-1))
						return
					}
					modBusy[p.target] = t + beta
					p.inFlight, p.waiting = true, false
					p.busyUntil = t + beta
				}
				if p.waiting && !p.inFlight && t >= p.retryAt {
					attempt()
				}
				if !p.inFlight && !p.waiting && len(p.backlog) > 0 {
					p.backlog = p.backlog[1:]
					p.target = rng.Intn(m)
					p.issuedAt = t
					attempt()
				}
			}
		}
		if completed == 0 {
			return 1
		}
		return float64(beta) / (float64(totalLat) / float64(completed))
	}
	var plain, withNet float64
	for i := 0; i < b.N; i++ {
		plain = netConventional(false, 100000)
		withNet = netConventional(true, 100000)
	}
	b.ReportMetric(plain, "module-only-E")
	b.ReportMetric(withNet, "with-network-E")
	if withNet > plain {
		b.Fatalf("network contention improved efficiency (%v > %v)?", withNet, plain)
	}
}

// BenchmarkLindaVsBinding compares the two coordination paradigms on the
// dissertation's own benchmark, the dining philosophers (Figs. 6.4 vs
// 6.5): Linda's tuple-space search versus resource binding's active-list
// check. The Linda run also reports its tuple scans — the §6.1.3
// overhead that grows with tuple space size.
func BenchmarkLindaVsBinding(b *testing.B) {
	const philosophers, meals = 5, 20
	b.Run("Linda", func(b *testing.B) {
		var scans int64
		for i := 0; i < b.N; i++ {
			s := linda.NewSpace()
			linda.DiningTable(s, philosophers)
			done := make(chan struct{}, philosophers)
			for p := 0; p < philosophers; p++ {
				go func(p int) {
					linda.Philosopher(s, p, philosophers, meals, nil)
					done <- struct{}{}
				}(p)
			}
			for p := 0; p < philosophers; p++ {
				<-done
			}
			scans = s.Scans
		}
		b.ReportMetric(float64(scans), "tuple-scans")
	})
	b.Run("Binding", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			binder := cfm.NewBinder()
			done := make(chan struct{}, philosophers)
			for p := 0; p < philosophers; p++ {
				go func(p int) {
					c := binder.Client(fmt.Sprintf("p%d", p))
					var region cfm.Region
					if p < philosophers-1 {
						region = cfm.NewRegion("chopstick", cfm.Dim{Start: p, Stop: p + 1, Step: 1})
					} else {
						region = cfm.NewRegion("chopstick", cfm.Dim{Start: 0, Stop: philosophers - 1, Step: philosophers - 1})
					}
					for m := 0; m < meals; m++ {
						nb, err := c.Bind(region, cfm.RW, true)
						if err != nil {
							b.Error(err)
							return
						}
						c.Unbind(nb)
					}
					done <- struct{}{}
				}(p)
			}
			for p := 0; p < philosophers; p++ {
				<-done
			}
		}
	})
}

// BenchmarkAblationAllocation compares the §7.2 processor allocation
// strategies on a skewed job mix: affine placement preserves locality
// and efficiency; scatter and random lose both.
func BenchmarkAblationAllocation(b *testing.B) {
	cfg := core.PartialConfig{
		Processors: 32, Modules: 4, BlockWords: 16, BankCycle: 2,
		Locality: 0.9, AccessRate: 0.04, RetryMean: 4, Seed: 1,
	}
	jobs := make([]core.Job, 24)
	for i := range jobs {
		jobs[i] = core.Job{Home: i % 2}
	}
	strategies := []struct {
		name  string
		place func() (core.Placement, error)
	}{
		{"Affine", func() (core.Placement, error) { return core.AllocateAffine(cfg, jobs) }},
		{"Scatter", func() (core.Placement, error) { return core.AllocateScatter(cfg, jobs) }},
		{"Random", func() (core.Placement, error) { return core.AllocateRandom(cfg, jobs, sim.NewRNG(7)) }},
	}
	for _, st := range strategies {
		b.Run(st.name, func(b *testing.B) {
			var eff, loc float64
			for i := 0; i < b.N; i++ {
				pl, err := st.place()
				if err != nil {
					b.Fatal(err)
				}
				c := cfg
				c.Homes = pl
				p := core.NewPartial(c)
				clk := sim.NewClock()
				clk.Register(p)
				clk.Run(60000)
				eff = p.Efficiency()
				loc = pl.LocalityOf(cfg)
			}
			b.ReportMetric(eff, "efficiency")
			b.ReportMetric(loc, "placement-locality")
		})
	}
}

// BenchmarkAblationSlotSharing sweeps the §7.2 slot-sharing factor: more
// processors per AT-space division raise hardware utilization and
// throughput while per-access efficiency falls.
func BenchmarkAblationSlotSharing(b *testing.B) {
	for _, sharing := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("sharing=%d", sharing), func(b *testing.B) {
			var s *core.Shared
			for i := 0; i < b.N; i++ {
				s = core.NewShared(core.SharedConfig{
					Divisions: 8, Sharing: sharing, BlockWords: 16, BankCycle: 2,
					AccessRate: 0.02, RetryMean: 4, Seed: 1,
				})
				clk := sim.NewClock()
				clk.Register(s)
				clk.Run(60000)
			}
			b.ReportMetric(s.Efficiency(), "efficiency")
			b.ReportMetric(s.Utilization(), "utilization")
			b.ReportMetric(s.Throughput(), "accesses/slot")
		})
	}
}

// BenchmarkAblationTopology compares inter-cluster topologies (§3.3) by
// mean remote-access round trip on a 16-cluster system.
func BenchmarkAblationTopology(b *testing.B) {
	topos := []core.Topology{
		core.FullyConnected{N: 16},
		core.Hypercube{Dim: 4},
		core.Mesh2D{Rows: 4, Cols: 4},
		core.Ring{N: 16},
	}
	for _, topo := range topos {
		b.Run(topo.String(), func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				mean = core.MeanHops(topo)
			}
			b.ReportMetric(mean, "mean-hops")
			b.ReportMetric(float64(core.Diameter(topo)), "diameter")
		})
	}
}

// BenchmarkOrderingFrontends measures, for the same program under each
// §2.2 ordering discipline, when the last LOAD performs — the latency
// relaxation buys: buffered/weak loads bypass pending stores, so the
// consumer-visible results arrive earlier even though the write-backs
// drain later.
func BenchmarkOrderingFrontends(b *testing.B) {
	for _, mode := range []cache.Ordering{cache.StrictOrder, cache.BufferedOrder, cache.WeakOrder, cache.ReleaseOrder} {
		b.Run(mode.String(), func(b *testing.B) {
			var lastLoad, drain float64
			for i := 0; i < b.N; i++ {
				c := cache.New(cache.Config{Processors: 4, Lines: 8, RetryDelay: 1}, nil)
				clk := sim.NewClock()
				fe := cache.NewFrontend(c, clk, 0, mode)
				clk.Register(fe)
				clk.Register(c)
				for j := 0; j < 10; j++ {
					fe.Store(j%6, 0, cfm.Word(j))
					fe.Load((j+1)%6, 0, nil)
				}
				n, ok := clk.RunUntil(fe.Idle, 100000)
				if !ok {
					b.Fatal("program did not drain")
				}
				drain = float64(n)
				for _, op := range fe.Ops {
					if op.Kind == consistency.Load && float64(op.PerformedAt) > lastLoad {
						lastLoad = float64(op.PerformedAt)
					}
				}
			}
			b.ReportMetric(lastLoad, "last-load-slot")
			b.ReportMetric(drain, "drain-slots")
		})
	}
}

// engineBenchShapes are the fleet configurations of the engine guard
// benchmarks: the Fig. 3.14 (n=64, m=8) and Fig. 3.15 (n=128, m=16)
// machine shapes of the partially conflict-free system, plus two
// scaled-up shapes (same 8-processor clusters, 8x and 32x the fleet)
// where the per-shard work is large enough for the parallel engine's
// combining-tree barrier and epoch batching to amortize.
var engineBenchShapes = []struct{ n, m int }{{64, 8}, {128, 16}, {1024, 128}, {4096, 512}}

func engineBenchRun(b *testing.B, mk func() cfm.Engine, n, m int) {
	cfg := cfm.PartialConfig{
		Processors: n, Modules: m, BlockWords: 2 * (n / m), BankCycle: 2,
		Locality: 0.9, AccessRate: 0.2, RetryMean: 4, Seed: 42}
	const slots = 500
	// Steady state: build the fleet once and keep running it, so the
	// numbers measure the tick loop (the open-loop workload never drains),
	// not construction. The warm-up run sizes every queue and pool; after
	// it the serial engine should report ~0 allocs/op.
	eng := mk()
	p := cfm.NewPartial(cfg)
	eng.Register(p)
	eng.Run(slots)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := eng.Run(slots); got != slots {
			b.Fatalf("ran %d slots, want %d", got, slots)
		}
	}
	b.ReportMetric(float64(slots), "slots/op")
}

// BenchmarkEngineSerial is the serial baseline of the engine guard pair:
// 500 slots of the partially conflict-free system under the plain Clock.
// cmd/benchdiff compares it against BenchmarkEngineParallel across
// commits (see BENCH_engine.json).
func BenchmarkEngineSerial(b *testing.B) {
	for _, sh := range engineBenchShapes {
		b.Run(fmt.Sprintf("n%d_m%d", sh.n, sh.m), func(b *testing.B) {
			engineBenchRun(b, func() cfm.Engine { return cfm.NewClock() }, sh.n, sh.m)
		})
	}
}

// engineSparseScenarios are the sparse/bursty fleets of the skip-ahead
// guard benchmarks. "partial_idle" is the Fig. 3.14 machine at 1/200th
// of the guard benchmark's access rate — processors think for hundreds
// of slots between accesses, so almost every slot is quiescent.
// "gapped_bursts" is the conflict-free memory driven by the duty-cycled
// gapped generator: short bursts separated by long silences.
var engineSparseScenarios = []struct {
	name  string
	build func(eng cfm.Engine)
}{
	{"partial_idle", func(eng cfm.Engine) {
		eng.Register(cfm.NewPartial(cfm.PartialConfig{
			Processors: 64, Modules: 8, BlockWords: 16, BankCycle: 2,
			Locality: 0.9, AccessRate: 0.001, RetryMean: 4, Seed: 42}))
	}},
	{"gapped_bursts", func(eng cfm.Engine) {
		cfg := cfm.Config{Processors: 8, BankCycle: 2, WordWidth: 16}
		mem := cfm.NewMemory(cfg, nil)
		var gen cfm.WorkloadGenerator = cfm.NewGappedWorkload(
			cfg.Processors, 40, 120, 0.5, 42, cfm.UniformTargets(cfg.Processors))
		gen = cfm.NewDutyCycleWorkload(gen, 512, 64)
		hint := gen.(cfm.HintedWorkload)
		eng.Register(&sim.FuncTicker{
			Phases: sim.MaskOf(sim.PhaseIssue),
			OnTick: func(t cfm.Slot, ph cfm.Phase) {
				for p := 0; p < cfg.Processors; p++ {
					if !mem.CanStart(t, p) {
						continue
					}
					if a, ok := gen.Next(t, p); ok {
						if a.Store {
							mem.StartWrite(t, p, a.Module, make(cfm.Block, cfg.Banks()), nil)
						} else {
							mem.StartRead(t, p, a.Module, nil)
						}
					}
				}
			},
			NextEvent: hint.EarliestNext,
		})
		eng.Register(mem)
	}},
}

func engineSparseBenchRun(b *testing.B, mk func() cfm.Engine, skip bool, build func(cfm.Engine)) {
	const slots = 4000
	eng := mk()
	eng.SetSkipAhead(skip)
	build(eng)
	eng.Run(slots) // warm-up: size queues/pools, settle the workload
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := eng.Run(slots); got != slots {
			b.Fatalf("ran %d slots, want %d", got, slots)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(slots), "slots/op")
	if run := eng.SlotsRun(); run > 0 {
		b.ReportMetric(1-float64(eng.SlotsFired())/float64(run), "skip-ratio")
	}
}

// BenchmarkEngineSparse is the event-horizon guard pair: each sparse
// scenario under the dense clock and under skip-ahead. The skip-ahead
// run reports its skip-ratio (fraction of simulated slots never fired);
// cmd/benchdiff prints it next to ns/op. The acceptance bar is
// skip-ahead >=2x faster than dense on both scenarios, while the dense
// saturated benches above stay within noise of their baseline.
func BenchmarkEngineSparse(b *testing.B) {
	for _, sc := range engineSparseScenarios {
		for _, mode := range []struct {
			name string
			skip bool
		}{{"dense", false}, {"skipahead", true}} {
			b.Run(sc.name+"/"+mode.name, func(b *testing.B) {
				engineSparseBenchRun(b, func() cfm.Engine { return cfm.NewClock() }, mode.skip, sc.build)
			})
		}
		// No parallel variant here on purpose: these fleets are so small
		// that a ParallelClock run measures barrier jitter, not skipping,
		// and would flake the benchdiff guard. Parallel skip-ahead
		// correctness is pinned by the equivalence and fuzz suites.
	}
}

// BenchmarkEngineParallel runs the identical simulation under the
// parallel engine at 1, 2 and 4 workers and at GOMAXPROCS. The case
// names are fixed (workersMax, not the host's core count), so a baseline
// recorded on one host matches a run on another and no two cases share
// a name. On a single-CPU host the parallel cases degenerate to
// measuring barrier overhead (the worker counts still exercise the full
// scheduling machinery).
func BenchmarkEngineParallel(b *testing.B) {
	workers := []struct {
		name string
		n    int
	}{{"workers1", 1}, {"workers2", 2}, {"workers4", 4}, {"workersMax", runtime.GOMAXPROCS(0)}}
	for _, sh := range engineBenchShapes {
		for _, w := range workers {
			b.Run(fmt.Sprintf("n%d_m%d/%s", sh.n, sh.m, w.name), func(b *testing.B) {
				engineBenchRun(b, func() cfm.Engine { return cfm.NewParallelClock(w.n) }, sh.n, sh.m)
			})
		}
	}
}
