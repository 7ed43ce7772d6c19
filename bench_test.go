// Benchmark harness: the ablation benches for the design choices called
// out in DESIGN.md, two raw simulator-throughput benches, and the
// coordination-paradigm and memory-ordering comparisons. Run with
//
//	go test -run=none -bench=. -benchmem .
//
// Each reports its headline quantity (writes per 1000 slots, drain
// slots, efficiency) via b.ReportMetric. The simulator's host speed is
// measured by cfmbench (bench/README.md), and the paper's tables and
// figures are asserted by the package tests and cmd/experiments.
package cfm_test

import (
	"fmt"
	"strings"
	"testing"

	"cfm"
	"cfm/internal/att"
	"cfm/internal/core"
	"cfm/internal/linda"
	"cfm/internal/network"
	"cfm/internal/obsflags"
	catalog "cfm/internal/scenario"
	"cfm/internal/sim"
)

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
		think := func() int64 { return int64(rng.Geometric(0.03)) }
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
	for _, st := range []string{"Affine", "Scatter", "Random"} {
		b.Run(st, func(b *testing.B) {
			var run catalog.AllocationRun
			for i := 0; i < b.N; i++ {
				runs, err := catalog.Allocation(new(obsflags.Observatory),
					catalog.AllocationParams{Slots: 60000, Strategies: []string{strings.ToLower(st)}})
				if err != nil {
					b.Fatal(err)
				}
				run = runs[0]
			}
			b.ReportMetric(run.Efficiency, "efficiency")
			b.ReportMetric(run.Locality, "placement-locality")
		})
	}
}

// BenchmarkAblationSlotSharing sweeps the §7.2 slot-sharing factor: more
// processors per AT-space division raise hardware utilization and
// throughput while per-access efficiency falls.
func BenchmarkAblationSlotSharing(b *testing.B) {
	for _, sharing := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("sharing=%d", sharing), func(b *testing.B) {
			p := catalog.DefaultSharing()
			p.Slots, p.Factors = 60000, []int{sharing}
			var r catalog.SharingRun
			for i := 0; i < b.N; i++ {
				r = catalog.Sharing(new(obsflags.Observatory), p)[0]
			}
			b.ReportMetric(r.Efficiency, "efficiency")
			b.ReportMetric(r.Utilization, "utilization")
			b.ReportMetric(r.Throughput, "accesses/slot")
		})
	}
}

// BenchmarkAblationTopology compares inter-cluster topologies (§3.3) by
// mean remote-access round trip on a 16-cluster system.
func BenchmarkAblationTopology(b *testing.B) {
	for i, row := range catalog.Topologies() {
		b.Run(row.Topology.String(), func(b *testing.B) {
			for j := 0; j < b.N; j++ {
				row = catalog.Topologies()[i]
			}
			b.ReportMetric(row.MeanHops, "mean-hops")
			b.ReportMetric(float64(row.Diameter), "diameter")
		})
	}
}

// BenchmarkOrderingFrontends measures, for the same program under each
// §2.2 ordering discipline (cfmsim ordering's: 10 store/load pairs over
// 6 offsets), when the last LOAD performs — the latency relaxation buys:
// buffered/weak loads bypass pending stores, so the consumer-visible
// results arrive earlier even though the write-backs drain later.
func BenchmarkOrderingFrontends(b *testing.B) {
	for i, mode := range []cfm.Ordering{cfm.StrictOrder, cfm.BufferedOrder, cfm.WeakOrder, cfm.ReleaseOrder} {
		b.Run(mode.String(), func(b *testing.B) {
			var run catalog.OrderingRun
			for j := 0; j < b.N; j++ {
				runs, err := catalog.Ordering(new(obsflags.Observatory), catalog.OrderingParams{Pairs: 10, Offsets: 6})
				if err != nil {
					b.Fatal(err)
				}
				run = runs[i]
			}
			b.ReportMetric(float64(run.LastLoad), "last-load-slot")
			b.ReportMetric(float64(run.Drain), "drain-slots")
		})
	}
}
