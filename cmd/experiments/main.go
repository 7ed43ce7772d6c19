// Command experiments regenerates every table and figure of the
// dissertation's evaluation and reports paper-expected versus measured
// values. Its output is the data behind EXPERIMENTS.md.
//
// With -parallel, every simulation runs on a worker pool instead of one
// worker; results are identical either way (the engine equivalence
// guarantee, proven by the determinism matrix, matrix_test.go). The
// engine flags (-parallel, -workers, -skip-ahead, -epoch-batch) are the
// shared ones of internal/obsflags.
//
// The observability flags -metrics-out, -trace-out, -http, and -sample
// instrument the simulation-heavy experiments (Figs 2.1, 3.13–3.15 and
// the Chapter 4 traces) through the metrics registry.
//
//cfm:concurrency-ok the experiment driver fans independent simulations out over worker goroutines; each owns its engine
package main

import (
	"flag"
	"fmt"
	"os"

	"cfm"
	"cfm/internal/analytic"
	"cfm/internal/core"
	"cfm/internal/hier"
	"cfm/internal/obsflags"
	"cfm/internal/stats"
)

var obs = obsflags.Flags(flag.CommandLine)

var failures int

func check(name string, ok bool, detail string) {
	status := "PASS"
	if !ok {
		status = "FAIL"
		failures++
	}
	fmt.Printf("  [%s] %-58s %s\n", status, name, detail)
}

func main() {
	flag.Parse()
	if err := obs.Open(false); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	fmt.Println("# CFM reproduction — experiment report")
	if obs.Parallel {
		fmt.Printf("(simulations on the parallel cycle engine, workers=%d)\n", obs.Workers)
	}
	table31()
	table33()
	table34()
	table35()
	fig21()
	fig36()
	fig313()
	fig314and315()
	fig39()
	chapter4()
	fig54()
	fig55()
	tables55and56()
	chapter6()
	extensions()
	syncScaling()
	fmt.Println()
	if err := obs.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if failures > 0 {
		fmt.Printf("%d experiment(s) diverged from the paper\n", failures)
		os.Exit(1)
	}
	fmt.Println("all experiments reproduce the paper's results")
}

func table31() {
	fmt.Println("\n## Table 3.1 — address path connections (4 procs, 8 banks, c=2)")
	at := cfm.NewATSpace(cfm.Config{Processors: 4, BankCycle: 2, WordWidth: 32})
	// Paper: at slot t, processor p connects to bank (t + 2p) mod 8.
	ok := true
	for t := 0; t < 8; t++ {
		for p := 0; p < 4; p++ {
			if at.AddressBank(cfm.Slot(t), p) != (t+2*p)%8 {
				ok = false
			}
		}
	}
	check("bank(t,p) = (t + 2p) mod 8 for all slots", ok, "paper: Table 3.1 pattern")
}

func table33() {
	fmt.Println("\n## Table 3.3 — CFM configuration trade-off (l=256, c=2)")
	want := [][4]int{{256, 1, 257, 128}, {128, 2, 129, 64}, {64, 4, 65, 32},
		{32, 8, 33, 16}, {16, 16, 17, 8}, {8, 8 * 4, 9, 4}}
	want[5] = [4]int{8, 32, 9, 4}
	rows := cfm.Tradeoff(256, 2)
	ok := len(rows) >= 6
	for i := 0; i < 6 && ok; i++ {
		r := rows[i]
		w := want[i]
		ok = r.Banks == w[0] && r.WordWidth == w[1] && r.Latency == w[2] && r.Processors == w[3]
	}
	check("all published rows reproduced", ok, "paper: 256→257/128 ... 8→9/4")
}

func table34() {
	fmt.Println("\n## Table 3.4 — 8x8 synchronous omega switch states")
	so, err := cfm.NewSyncOmega(8)
	if err != nil {
		check("network construction", false, err.Error())
		return
	}
	// Paper row for slot 1: col0 = 0001, col1 = 0011, col2 = 1111.
	want := []cfm.SwitchState{0, 0, 0, 1, 0, 0, 1, 1, 1, 1, 1, 1}
	got := so.StateTable()[1]
	ok := len(got) == 12
	for i := range want {
		if ok && got[i] != want[i] {
			ok = false
		}
	}
	check("slot-1 row matches published states", ok, "paper: 0001 0011 1111")
	conflictFree := true
	for n := 2; n <= 128; n *= 2 {
		if _, err := cfm.NewSyncOmega(n); err != nil {
			conflictFree = false
		}
	}
	check("slot permutations conflict-free for N=2..128", conflictFree, "Lawrie's theorem")
}

func table35() {
	fmt.Println("\n## Table 3.5 — 64-bank configurations")
	ok := true
	wantModules := []int{1, 2, 4, 8, 16, 32, 64}
	for cc := 0; cc <= 6; cc++ {
		po, err := cfm.NewPartialOmega(64, cc)
		if err != nil || po.Modules() != wantModules[cc] || po.BanksPerModule() != 64/wantModules[cc] {
			ok = false
		}
	}
	check("modules double per circuit-switched column", ok, "paper: 1,2,4,...,64 modules")
}

func fig21() {
	fmt.Println("\n## Fig 2.1 — tree saturation from a hot spot")
	run := func(hot float64) *cfm.BufferedOmega {
		b := cfm.NewBufferedOmega(cfm.BufferedConfig{
			Terminals: 16, QueueCap: 4, ServiceTime: 2, Rate: 0.1,
			HotFraction: hot, Seed: 7,
		})
		b.Instrument(obs.Reg)
		b.RecordFlight(obs.Flight)
		clk := obs.NewEngine()
		clk.Register(b)
		obs.Attach(clk)
		clk.Run(30000)
		return b
	}
	cold, hot := run(0), run(0.4)
	ratio := hot.MeanLatencyBg() / cold.MeanLatencyBg()
	check("hot spot inflates BACKGROUND latency", ratio > 10,
		fmt.Sprintf("×%.0f (%.1f → %.1f cycles)", ratio, cold.MeanLatencyBg(), hot.MeanLatencyBg()))
	fq := hot.FullQueues()
	tree := fq[0] > fq[1] && fq[1] >= fq[2] && fq[2] >= fq[3]
	check("saturation spreads as a tree from the sink", tree, fmt.Sprintf("full queues/col %v", fq))
}

func fig36() {
	fmt.Println("\n## Fig 3.6 — read timing (c=2)")
	at := cfm.NewATSpace(cfm.Config{Processors: 4, BankCycle: 2, WordWidth: 32})
	ok := at.DataSlot(0, 0) == 1 && at.DataSlot(0, 1) == 2 && at.CompletionSlot(0) == 8
	check("data from banks 0,1 at slots 1,2; β = 9", ok, "paper: Fig 3.6")
}

func fig313() {
	fmt.Println("\n## Fig 3.13 — efficiency, conventional vs conflict-free (n=8, m=8, β=17)")
	model := analytic.ConventionalModel{Processors: 8, Modules: 8, BlockTime: 17}
	e := model.Efficiency(0.06)
	check("conventional E(0.06) ≈ 0.19 (deep degradation)", e > 0.18 && e < 0.21,
		fmt.Sprintf("E = %s", stats.FormatFloat(e)))
	cs := cfm.NewConventional(cfm.ConventionalConfig{
		Processors: 8, Modules: 8, BlockTime: 17, AccessRate: 0.05, RetryMean: 8, Seed: 3})
	cs.Instrument(obs.Reg)
	cs.RecordFlight(obs.Flight)
	clk := obs.NewEngine()
	clk.Register(cs)
	obs.Attach(clk)
	// The longest single-engine run hosts the -resume/-checkpoint-out
	// flags: a resumed run continues from its checkpoint slot to the same
	// 400000-slot target, reproducing the uninterrupted run bit for bit.
	if err := obs.MaybeResume(clk); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if left := 400000 - int64(clk.Now()); left > 0 {
		clk.Run(left)
	}
	if err := obs.MaybeCheckpoint(clk); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	check("simulation confirms the degradation at r=0.05", cs.Efficiency() < 0.75,
		fmt.Sprintf("simulated E = %s, analytic %s", stats.FormatFloat(cs.Efficiency()),
			stats.FormatFloat(model.Efficiency(0.05))))
	check("conflict-free system stays at E = 1", true, "by construction (0 conflicts possible)")
}

func fig314and315() {
	fmt.Println("\n## Figs 3.14/3.15 — partially conflict-free efficiency")
	for _, f := range []struct {
		name string
		n, m int
	}{{"3.14", 64, 8}, {"3.15", 128, 16}} {
		model := analytic.PartialModel{Processors: f.n, Modules: f.m, BlockTime: 17}
		conv := analytic.ConventionalModel{Processors: f.n, Modules: f.n, BlockTime: 17}
		ok := true
		for _, r := range []float64{0.01, 0.03, 0.06} {
			for _, lam := range []float64{0.5, 0.7, 0.9} {
				if model.Efficiency(r, lam) <= conv.Efficiency(r) {
					ok = false
				}
			}
		}
		check(fmt.Sprintf("Fig %s: partial CFM beats conventional at every λ ≥ 0.5", f.name), ok,
			fmt.Sprintf("e.g. λ=0.7, r=0.05: %s vs %s",
				stats.FormatFloat(model.Efficiency(0.05, 0.7)),
				stats.FormatFloat(conv.Efficiency(0.05))))
		p := cfm.NewPartial(core.PartialConfig{
			Processors: f.n, Modules: f.m, BlockWords: 16, BankCycle: 2,
			Locality: 1.0, AccessRate: 0.05, RetryMean: 8, Seed: 4})
		p.Instrument(obs.Reg)
		p.RecordFlight(obs.Flight)
		clk := obs.NewEngine()
		clk.Register(p)
		obs.Attach(clk)
		clk.Run(150000)
		check(fmt.Sprintf("Fig %s: λ=1 simulation is perfectly conflict-free", f.name),
			p.Retries == 0 && p.Efficiency() == 1,
			fmt.Sprintf("%d retries over %d accesses", p.Retries, p.Completed))
	}
}

func fig39() {
	fmt.Println("\n## Figs 3.9/3.10 — message headers")
	sync, _ := cfm.NewPartialOmega(64, 0)
	conv, _ := cfm.NewPartialOmega(64, 6)
	hs, hc := sync.RequestHeader(1024), conv.RequestHeader(1024)
	check("synchronous header carries no routing bits", hs.ModuleBits == 0,
		fmt.Sprintf("%d vs %d bits total", hs.Bits(), hc.Bits()))
	check("circuit-switched header carries log2(banks) routing bits", hc.ModuleBits == 6, "")
}

func chapter4() {
	fmt.Println("\n## Chapter 4 — address tracking (Figs 4.1, 4.3–4.6)")
	// Fig 4.1: torn block without tracking.
	mem := cfm.NewMemory(cfm.Config{Processors: 4, BankCycle: 1, WordWidth: 64}, obs.Trace)
	clk := obs.NewEngine()
	clk.Register(mem)
	mem.StartWrite(0, 0, 0, cfm.Block{1, 1, 1, 1}, nil)
	mem.StartWrite(0, 1, 0, cfm.Block{2, 2, 2, 2}, nil)
	clk.Run(10)
	blk := mem.PeekBlock(0)
	torn := false
	for _, w := range blk[1:] {
		if w != blk[0] {
			torn = true
		}
	}
	check("Fig 4.1: simultaneous writes tear a block WITHOUT tracking", torn, fmt.Sprint(blk))

	// Fig 4.3/4.4: with tracking, exactly one writer wins.
	tr := cfm.NewTracked(8, cfm.LatestWins, obs.Trace)
	clk2 := obs.NewEngine()
	clk2.Register(tr)
	var aborted, completed int
	cb := func(r cfm.TrackedResult) {
		if r.Outcome == 0 { // Completed
			completed++
		} else {
			aborted++
		}
	}
	tr.StartWrite(0, 1, 0, uniformBlock(8, 3), cb)
	tr.StartWrite(0, 5, 0, uniformBlock(8, 4), cb)
	clk2.Run(20)
	final := tr.PeekBlock(0)
	uni := true
	for _, w := range final[1:] {
		if w != final[0] {
			uni = false
		}
	}
	check("Fig 4.4: WITH tracking exactly one simultaneous writer wins",
		completed == 1 && aborted == 1 && uni,
		fmt.Sprintf("%d completed, %d aborted, block %v", completed, aborted, final))

	// Fig 4.6: swap atomicity chain.
	tr2 := cfm.NewTracked(8, cfm.EarliestWins, nil)
	clk3 := obs.NewEngine()
	clk3.Register(tr2)
	tr2.PokeBlock(0, uniformBlock(8, 100))
	var rets []cfm.Word
	for i, p := range []int{0, 3, 6} {
		v := cfm.Word(101 + i)
		tr2.StartSwap(cfm.Slot(0), p, 0, func(cfm.Block) cfm.Block {
			return uniformBlock(8, v)
		}, func(r cfm.TrackedResult) { rets = append(rets, r.Block[0]) })
	}
	clk3.Run(2000)
	finalSwap := tr2.PeekBlock(0)[0]
	seen := map[cfm.Word]bool{finalSwap: true}
	for _, v := range rets {
		seen[v] = true
	}
	chain := len(rets) == 3 && len(seen) == 4
	check("Fig 4.6: concurrent swaps serialize into a value chain", chain,
		fmt.Sprintf("returns %v, final %d", rets, finalSwap))
}

func fig54() {
	fmt.Println("\n## Fig 5.4 — lock transfer")
	proto := cfm.NewCacheProtocol(cfm.CacheConfig{Processors: 4, Lines: 4, RetryDelay: 1}, nil)
	lock := cfm.NewLocker(proto, 0)
	clk := obs.NewEngine()
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
	transfer := int(clk.Now() - release)
	accesses := float64(transfer) / 4.0
	check("transfer ≈ 3 block accesses", accesses >= 2 && accesses <= 6,
		fmt.Sprintf("%d slots = %.1f accesses (paper: ~3)", transfer, accesses))
}

func fig55() {
	fmt.Println("\n## Fig 5.5 — atomic multiple lock/unlock")
	proto := cfm.NewCacheProtocol(cfm.CacheConfig{Processors: 8, Lines: 4, RetryDelay: 1}, nil)
	ml := cfm.NewMultiLocker(proto, 0)
	clk := obs.NewEngine()
	clk.Register(ml)
	clk.Register(proto)
	init := make(cfm.Block, 8)
	init[0] = 0b01010110
	proto.PokeMemory(0, init)
	ml.Request(0, 0b10100001)
	clk.RunUntil(func() bool { return ml.Holding(0) != 0 }, 3000)
	var word cfm.LockPattern
	for p := 0; p < 8; p++ {
		if proto.State(p, 0) == cfm.Dirty {
			word = cfm.LockPattern(proto.CachedData(p, 0)[0])
		}
	}
	check("lock 10100001 on 01010110 yields 11110111", word == 0b11110111,
		fmt.Sprintf("%08b", word))
	ml.Request(1, 0b00000101)
	clk.Run(3000)
	check("conflicting pattern 00000101 is refused atomically",
		ml.Holding(1) == 0 && ml.Failures > 0,
		fmt.Sprintf("%d failed multiple test-and-sets", ml.Failures))
}

func tables55and56() {
	fmt.Println("\n## Tables 5.5/5.6 — hierarchical read latency")
	t55 := cfm.Table55()
	ok := t55[0].CFM == 9 && t55[1].CFM == 27 && t55[2].CFM == 63
	check("Table 5.5 CFM column = 9/27/63 cycles", ok,
		fmt.Sprintf("vs DASH %d/%d/%d", t55[0].Other, t55[1].Other, t55[2].Other))
	t56 := cfm.Table56()
	ok = t56[0].CFM == 65 && t56[1].CFM == 195
	check("Table 5.6 CFM column = 65/195 cycles", ok,
		fmt.Sprintf("vs KSR1 %d/%d", t56[0].Other, t56[1].Other))

	s := cfm.NewHierSystem(cfm.HierConfig{Clusters: 4, ProcsPerCluster: 4, BankCycle: 2, L1Lines: 4, L2Lines: 8}, nil)
	clk := obs.NewEngine()
	clk.Register(s)
	var at cfm.Slot
	start := clk.Now()
	s.Load(0, 0, 5, func(_ cfm.Block, t cfm.Slot) { at = t })
	clk.RunUntil(s.Idle, 10000)
	global := int(at - start)
	start = clk.Now()
	s.Load(0, 1, 5, func(_ cfm.Block, t cfm.Slot) { at = t })
	clk.RunUntil(s.Idle, 10000)
	local := int(at - start)
	s.Store(1, 2, 9, 0, 1, nil)
	clk.RunUntil(s.Idle, 10000)
	start = clk.Now()
	s.Load(0, 0, 9, func(_ cfm.Block, t cfm.Slot) { at = t })
	clk.RunUntil(s.Idle, 10000)
	dirty := int(at - start)
	check("protocol simulation measures the same 9/27/63",
		local == 9 && global == 27 && dirty == 63,
		fmt.Sprintf("measured %d/%d/%d", local, global, dirty))
}

func chapter6() {
	fmt.Println("\n## Chapter 6 — resource binding")
	// Fig 6.5: dining philosophers terminate with data binding.
	b := cfm.NewBinder()
	done := make(chan bool, 5)
	for i := 0; i < 5; i++ {
		go func(i int) {
			c := b.Client(fmt.Sprintf("p%d", i))
			var region cfm.Region
			if i < 4 {
				region = cfm.NewRegion("chopstick", cfm.Dim{Start: i, Stop: i + 1, Step: 1})
			} else {
				region = cfm.NewRegion("chopstick", cfm.Dim{Start: 0, Stop: 4, Step: 4})
			}
			for m := 0; m < 20; m++ {
				nb, err := c.Bind(region, cfm.RW, true)
				if err != nil {
					done <- false
					return
				}
				c.Unbind(nb)
			}
			done <- true
		}(i)
	}
	ok := true
	for i := 0; i < 5; i++ {
		if !<-done {
			ok = false
		}
	}
	check("Fig 6.5: dining philosophers, 100 meals, no deadlock", ok,
		fmt.Sprintf("%d binds", b.Binds))

	// Fig 6.10: pipeline ordering.
	const stages, items = 8, 200
	violations := 0
	progress := make([]int, stages)
	g := cfm.SpawnProcs(stages, func(i int, procs []*cfm.Proc) {
		for j := 0; j < items; j++ {
			if i > 0 {
				procs[i-1].Await(j)
				if progress[i-1] <= j {
					violations++
				}
			}
			progress[i] = j + 1
			procs[i].GrantRange(0, j)
		}
	})
	g.Wait()
	check("Fig 6.10: 8-stage pipeline preserves item order", violations == 0,
		fmt.Sprintf("%d ordering violations over %d items", violations, items))
}

func extensions() {
	fmt.Println("\n## Extensions (§3.3, §7.2, §2.2 — beyond the published evaluation)")

	// Processor allocation.
	cfg := core.PartialConfig{
		Processors: 32, Modules: 4, BlockWords: 16, BankCycle: 2,
		Locality: 0.9, AccessRate: 0.04, RetryMean: 4, Seed: 1,
	}
	jobs := make([]core.Job, 24)
	for i := range jobs {
		jobs[i] = core.Job{Home: i % 2}
	}
	runPl := func(pl core.Placement) float64 {
		c := cfg
		c.Homes = pl
		p := cfm.NewPartial(c)
		clk := obs.NewEngine()
		clk.Register(p)
		clk.Run(80000)
		return p.Efficiency()
	}
	aff, _ := core.AllocateAffine(cfg, jobs)
	sca, _ := core.AllocateScatter(cfg, jobs)
	ea, es := runPl(aff), runPl(sca)
	check("affine allocation beats scatter (§7.2)", ea > es,
		fmt.Sprintf("E %s vs %s", stats.FormatFloat(ea), stats.FormatFloat(es)))

	// Slot sharing.
	runSh := func(sharing int) *cfm.Shared {
		s := cfm.NewShared(cfm.SharedConfig{
			Divisions: 8, Sharing: sharing, BlockWords: 16, BankCycle: 2,
			AccessRate: 0.02, RetryMean: 4, Seed: 1,
		})
		clk := obs.NewEngine()
		clk.Register(s)
		clk.Run(80000)
		return s
	}
	s1, s4 := runSh(1), runSh(4)
	check("slot sharing raises utilization at an efficiency cost (§7.2)",
		s4.Utilization() > s1.Utilization() && s4.Efficiency() < s1.Efficiency(),
		fmt.Sprintf("util %s→%s, E %s→%s",
			stats.FormatFloat(s1.Utilization()), stats.FormatFloat(s4.Utilization()),
			stats.FormatFloat(s1.Efficiency()), stats.FormatFloat(s4.Efficiency())))

	// Topologies.
	check("hypercube denser than ring at 16 clusters (§3.3)",
		core.MeanHops(cfm.Hypercube{Dim: 4}) < core.MeanHops(cfm.RingTopology{N: 16}),
		fmt.Sprintf("mean hops %s vs %s",
			stats.FormatFloat(core.MeanHops(cfm.Hypercube{Dim: 4})),
			stats.FormatFloat(core.MeanHops(cfm.RingTopology{N: 16}))))

	// Recursive hierarchy: logarithmic worst case (§5.4.3).
	m2 := hierMulti(2)
	m4 := hierMulti(4)
	check("worst-case miss grows by a constant per level (§5.4.3)",
		m4.WorstMissLatency()-m2.WorstMissLatency() == 2*4*m2.Beta() &&
			m4.Processors() == m2.Processors()*16,
		fmt.Sprintf("%d procs @ %d cycles → %d procs @ %d cycles",
			m2.Processors(), m2.WorstMissLatency(), m4.Processors(), m4.WorstMissLatency()))

	// Ordering staircase.
	stair := true
	for i, mode := range []cfm.Ordering{cfm.StrictOrder, cfm.BufferedOrder, cfm.WeakOrder, cfm.ReleaseOrder} {
		proto := cfm.NewCacheProtocol(cfm.CacheConfig{Processors: 4, Lines: 8, RetryDelay: 1}, nil)
		clk := obs.NewEngine()
		fe := cfm.NewFrontend(proto, clk, 0, mode)
		clk.Register(fe)
		clk.Register(proto)
		for j := 0; j < 8; j++ {
			fe.Store(j%5, 0, cfm.Word(j))
			fe.Load((j+1)%5, 0, nil)
		}
		if mode == cfm.ReleaseOrder {
			fe.Store(0, 0, 99)
			fe.Acquire(7)
		}
		clk.RunUntil(fe.Idle, 100000)
		exec := cfm.FrontendExecution(fe)
		models := []cfm.ConsistencyModel{
			cfm.SequentialConsistency, cfm.ProcessorConsistency,
			cfm.WeakConsistency, cfm.ReleaseConsistency,
		}
		for mi, model := range models {
			pass := cfm.CheckConsistency(model, exec) == nil
			if (mi >= i) != pass {
				stair = false
			}
		}
	}
	check("issue disciplines reproduce the SC⊃PC⊃WC⊃RC staircase (§2.2)", stair, "4×4 matrix diagonal")

	// Linda comparison.
	ts := cfm.NewTupleSpace()
	for i := 0; i < 500; i++ {
		ts.Out(cfm.Tuple{"ballast", i})
	}
	ts.Out(cfm.Tuple{"target"})
	before := ts.Scans
	ts.Rd(cfm.Tuple{"target"})
	check("Linda match cost grows with tuple space size (§6.1.3)", ts.Scans-before > 400,
		fmt.Sprintf("%d tuples scanned for one rd", ts.Scans-before))
}

// syncScaling measures the parallel engine's synchronization cost on
// the partially conflict-free fleets: barrier crossings per simulated
// slot under per-slot barriers (epoch-batch 1) versus batched episodes
// (epoch-batch auto), across worker counts and fleet sizes. The
// simulated results must be bit-identical in every cell — only the
// synchronization schedule may change.
func syncScaling() {
	fmt.Println("\n## Engine synchronization scaling (combining-tree barrier + epoch batching)")
	const slots = 5000
	mkFleet := func(n, m int) *cfm.Partial {
		return cfm.NewPartial(cfm.PartialConfig{
			Processors: n, Modules: m, BlockWords: 2 * (n / m), BankCycle: 2,
			Locality: 0.9, AccessRate: 0.2, RetryMean: 4, Seed: 42})
	}
	tb := &stats.Table{Header: []string{"fleet", "workers", "mode", "epochs", "crossings/slot", "E"}}
	identical, amortized := true, true
	for _, sh := range []struct{ n, m int }{{128, 16}, {1024, 128}} {
		serialFleet := mkFleet(sh.n, sh.m)
		serialClk := cfm.NewClock()
		serialClk.Register(serialFleet)
		serialClk.Run(slots)
		wantE := serialFleet.Efficiency()
		for _, w := range []int{2, 4} {
			var perSlot [2]float64
			for mi, k := range []int{1, cfm.EpochAuto} {
				p := mkFleet(sh.n, sh.m)
				clk := cfm.NewParallelClock(w)
				clk.SetEpochBatch(k)
				clk.Register(p)
				clk.Run(slots)
				clk.Close()
				mode := "per-slot"
				if k == cfm.EpochAuto {
					mode = "batched"
				}
				perSlot[mi] = float64(clk.BarrierCrossings()) / slots
				tb.AddRow(fmt.Sprintf("n%d/m%d", sh.n, sh.m), w, mode,
					clk.Epochs(), perSlot[mi], p.Efficiency())
				if p.Efficiency() != wantE {
					identical = false
				}
			}
			if perSlot[1]*4 > perSlot[0] {
				amortized = false
			}
		}
	}
	fmt.Print(tb)
	check("batched and per-slot runs are bit-identical to the serial clock", identical,
		"Partial efficiency equal in every cell")
	check("epoch batching amortizes barrier crossings by >=4x", amortized,
		"2 crossings per 16-slot episode vs several per slot")
}

func hierMulti(levels int) hier.MultiLevel {
	return hier.MultiLevel{ProcsPerCluster: 4, BankCycle: 2, Levels: levels, Fanout: 4}
}

func uniformBlock(n int, v cfm.Word) cfm.Block {
	b := make(cfm.Block, n)
	for i := range b {
		b[i] = v
	}
	return b
}
