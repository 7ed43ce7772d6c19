// Facade smoke tests: every public constructor and helper of package cfm
// is exercised once, so downstream API breakage is caught here before it
// reaches the examples and tools.
package cfm_test

import (
	"testing"

	"cfm"
)

func TestFacadeSimKernel(t *testing.T) {
	clk := cfm.NewClock()
	if clk.Now() != 0 {
		t.Fatal("clock not at 0")
	}
	tr := cfm.NewTrace()
	tr.Add(0, "x", "y")
	if tr.Len() != 1 {
		t.Fatal("trace broken")
	}
	if cfm.NewRNG(1).Intn(10) < 0 {
		t.Fatal("rng broken")
	}
}

func TestFacadeCore(t *testing.T) {
	cfg := cfm.Config{Processors: 4, BankCycle: 2, WordWidth: 32}
	mem := cfm.NewMemory(cfg, nil)
	clk := cfm.NewClock()
	clk.Register(mem)
	done := false
	mem.StartRead(0, 0, 0, func(cfm.Block) { done = true })
	clk.Run(12)
	if !done {
		t.Fatal("facade memory read failed")
	}
	if cfm.NewATSpace(cfg).AddressBank(0, 1) != 2 {
		t.Fatal("facade ATSpace wrong")
	}
	if len(cfm.Tradeoff(256, 2)) == 0 {
		t.Fatal("facade Tradeoff empty")
	}
	p := cfm.NewPartial(cfm.PartialConfig{
		Processors: 8, Modules: 2, BlockWords: 8, BankCycle: 2,
		Locality: 0.5, AccessRate: 0.01, RetryMean: 2, Seed: 1})
	clk2 := cfm.NewClock()
	clk2.Register(p)
	clk2.Run(1000)
	cs := cfm.NewClusterSystem(cfm.Config{Processors: 4, BankCycle: 1, WordWidth: 8}, 2, 3, 2)
	cs.SetTopology(cfm.RingTopology{N: 2}, 1)
	sh := cfm.NewShared(cfm.SharedConfig{Divisions: 4, Sharing: 2, BlockWords: 4, BankCycle: 1,
		AccessRate: 0.01, RetryMean: 2, Seed: 1})
	clk3 := cfm.NewClock()
	clk3.Register(sh)
	clk3.Run(100)
}

func TestFacadeAllocation(t *testing.T) {
	cfg := cfm.PartialConfig{
		Processors: 8, Modules: 2, BlockWords: 8, BankCycle: 2,
		Locality: 0.5, AccessRate: 0.01, RetryMean: 2, Seed: 1}
	jobs := []cfm.Job{{Home: 0}, {Home: 1}}
	for name, alloc := range map[string]func() (cfm.ProcPlacement, error){
		"affine":  func() (cfm.ProcPlacement, error) { return cfm.AllocateAffine(cfg, jobs) },
		"scatter": func() (cfm.ProcPlacement, error) { return cfm.AllocateScatter(cfg, jobs) },
		"random":  func() (cfm.ProcPlacement, error) { return cfm.AllocateRandom(cfg, jobs, cfm.NewRNG(1)) },
	} {
		pl, err := alloc()
		if err != nil || pl.Jobs() != 2 {
			t.Fatalf("%s allocation: %v, %d jobs", name, err, pl.Jobs())
		}
	}
}

func TestFacadeNetworks(t *testing.T) {
	if cfm.NewSyncSwitch(4).Out(1, 1) != 2 {
		t.Fatal("switch wrong")
	}
	so, err := cfm.NewSyncOmega(8)
	if err != nil || so.Out(1, 0) != 1 {
		t.Fatal("sync omega wrong")
	}
	po, err := cfm.NewPartialOmega(8, 2)
	if err != nil || po.Modules() != 4 {
		t.Fatal("partial omega wrong")
	}
	b := cfm.NewBufferedOmega(cfm.BufferedConfig{Terminals: 8, QueueCap: 2, ServiceTime: 1, Rate: 0.1, Seed: 1})
	clk := cfm.NewClock()
	clk.Register(b)
	clk.Run(500)
	if b.Injected == 0 {
		t.Fatal("buffered omega idle")
	}
}

func TestFacadeATT(t *testing.T) {
	tr := cfm.NewTracked(4, cfm.EarliestWins, nil)
	clk := cfm.NewClock()
	lk := cfm.NewATTLocker(tr, 0)
	clk.Register(lk)
	clk.Register(tr)
	lk.Request(0)
	if _, ok := clk.RunUntil(func() bool { return lk.Holding(0) }, 1000); !ok {
		t.Fatal("ATT lock never acquired")
	}
}

func TestFacadeCacheAndSync(t *testing.T) {
	proto := cfm.NewCacheProtocol(cfm.CacheConfig{Processors: 4, Lines: 4, RetryDelay: 1}, nil)
	clk := cfm.NewClock()
	lk := cfm.NewLocker(proto, 0)
	ml := cfm.NewMultiLocker(proto, 1)
	bar := cfm.NewBarrier(proto, 2, 2)
	clk.Register(lk)
	clk.Register(ml)
	clk.Register(bar)
	clk.Register(proto)
	lk.Request(0)
	ml.Request(1, 0b11)
	bar.Arrive(2)
	bar.Arrive(3)
	ok := func() bool {
		return lk.Holding(0) && ml.Holding(1) != 0 && bar.Passed(2) && bar.Passed(3)
	}
	if _, done := clk.RunUntil(ok, 10000); !done {
		t.Fatal("sync primitives did not converge")
	}
	if proto.State(0, 0) == cfm.Invalid && proto.State(0, 0) != cfm.Valid && proto.State(0, 0) != cfm.Dirty {
		t.Fatal("state accessor broken")
	}
}

func TestFacadeHier(t *testing.T) {
	if cfm.NewLatencyModel(4, 2).LocalCluster() != 9 {
		t.Fatal("latency model wrong")
	}
	if len(cfm.Table55()) != 3 || len(cfm.Table56()) != 2 {
		t.Fatal("tables wrong")
	}
	s := cfm.NewHierSystem(cfm.HierConfig{Clusters: 2, ProcsPerCluster: 2, BankCycle: 1, L1Lines: 2, L2Lines: 2}, nil)
	clk := cfm.NewClock()
	clk.Register(s)
	got := false
	s.Load(0, 0, 0, func(cfm.Block, cfm.Slot) { got = true })
	clk.RunUntil(s.Idle, 10000)
	if !got {
		t.Fatal("hier load failed")
	}
}

func TestFacadeBindingAndLinda(t *testing.T) {
	b := cfm.NewBinder()
	c := b.Client("x")
	nb, err := c.Bind(cfm.NewRegion("a", cfm.Dim{Start: 0, Stop: 1, Step: 1}), cfm.RW, false)
	if err != nil {
		t.Fatal(err)
	}
	c.Unbind(nb)
	srv := cfm.NewBindingServer()
	defer srv.Stop()
	srv.RegisterData("a", []int{1, 2})
	l, err := srv.Client("y").Bind(cfm.NewRegion("a", cfm.Dim{Start: 0, Stop: 1, Step: 1}), cfm.RO, false)
	if err != nil || len(l.Data) != 2 {
		t.Fatalf("server bind: %v %v", err, l)
	}
	g := cfm.SpawnProcs(2, func(i int, procs []*cfm.Proc) { procs[i].Grant(0) })
	g.Wait()
	ts := cfm.NewTupleSpace()
	ts.Out(cfm.Tuple{"k", 1})
	if got := ts.In(cfm.Tuple{"k", cfm.WildValue}); got[1] != 1 {
		t.Fatal("tuple space broken")
	}
}

func TestFacadeAnalyticAndConsistency(t *testing.T) {
	for _, f := range [](func(int) []cfm.Series){cfm.Fig313, cfm.Fig314, cfm.Fig315} {
		if len(f(4)) == 0 {
			t.Fatal("figure series empty")
		}
	}
	e := &cfm.Execution{Ops: []cfm.MemOp{{Proc: 0, Index: 0, PerformedAt: 1, GloballyPerformedAt: 1}}}
	for _, m := range []cfm.ConsistencyModel{
		cfm.SequentialConsistency, cfm.ProcessorConsistency, cfm.WeakConsistency, cfm.ReleaseConsistency,
	} {
		if err := cfm.CheckConsistency(m, e); err != nil {
			t.Fatalf("%v rejected trivial execution: %v", m, err)
		}
	}
}

func TestFacadeWorkloads(t *testing.T) {
	g := cfm.NewBernoulliWorkload(2, 0.5, 0.5, 1, cfm.UniformTargets(4))
	found := false
	for tt := cfm.Slot(0); tt < 100 && !found; tt++ {
		if _, ok := g.Next(tt, 0); ok {
			found = true
		}
	}
	if !found {
		t.Fatal("workload generated nothing")
	}
	hs := cfm.HotSpotTargets(4, 0, 1)
	if hs(0, cfm.NewRNG(1)) != 0 {
		t.Fatal("hot-spot selector wrong")
	}
	conv := cfm.NewConventional(cfm.ConventionalConfig{
		Processors: 2, Modules: 2, BlockTime: 4, AccessRate: 0.1, RetryMean: 2, Seed: 1})
	clk := cfm.NewClock()
	clk.Register(conv)
	clk.Run(2000)
	if conv.Completed == 0 {
		t.Fatal("conventional idle")
	}
}

func TestFacadeFrontend(t *testing.T) {
	proto := cfm.NewCacheProtocol(cfm.CacheConfig{Processors: 4, Lines: 4, RetryDelay: 1}, nil)
	clk := cfm.NewClock()
	fe := cfm.NewFrontend(proto, clk, 0, cfm.BufferedOrder)
	clk.Register(cfm.NewFrontendGroup(fe))
	clk.Register(proto)
	fe.Store(0, 0, 1)
	fe.Load(1, 0, nil)
	if _, ok := clk.RunUntil(fe.Idle, 10000); !ok {
		t.Fatal("frontend did not drain")
	}
	if len(cfm.FrontendExecution(fe).Ops) != 2 {
		t.Fatal("execution not recorded")
	}
}

// TestEquivEngineFacade pins the engine constructors: NewClock is the
// one-worker engine, and NewParallelClock keeps the requested worker
// count (WorkersAuto included).
func TestEquivEngineFacade(t *testing.T) {
	if w := cfm.NewClock().Workers(); w != 1 {
		t.Errorf("NewClock().Workers() = %d, want 1", w)
	}
	for _, tc := range []struct{ workers, want int }{{1, 1}, {2, 2}, {cfm.WorkersAuto, cfm.WorkersAuto}} {
		if w := cfm.NewParallelClock(tc.workers).Workers(); w != tc.want {
			t.Errorf("NewParallelClock(%d).Workers() = %d, want %d", tc.workers, w, tc.want)
		}
	}
}
