package memory

import (
	"math"
	"testing"
	"testing/quick"

	"cfm/internal/sim"
)

func TestBlockCloneIndependent(t *testing.T) {
	b := Block{1, 2, 3}
	c := b.Clone()
	c[0] = 99
	if b[0] != 1 {
		t.Fatal("Clone shares storage with original")
	}
	if !b.Equal(Block{1, 2, 3}) {
		t.Fatal("original mutated")
	}
}

func TestBlockEqual(t *testing.T) {
	cases := []struct {
		a, b Block
		want bool
	}{
		{Block{}, Block{}, true},
		{Block{1}, Block{1}, true},
		{Block{1}, Block{2}, false},
		{Block{1, 2}, Block{1}, false},
		{nil, Block{}, true},
	}
	for i, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("case %d: Equal = %v, want %v", i, got, c.want)
		}
	}
}

func TestBankReadWriteRoundTrip(t *testing.T) {
	ar := NewBankArena(1, 1)
	if ok := ar.Write(0, 0, 5, 42); !ok {
		t.Fatal("write rejected on idle bank")
	}
	w, ok := ar.Read(1, 0, 5)
	if !ok {
		t.Fatal("read rejected on idle bank")
	}
	if w != 42 {
		t.Fatalf("read %d, want 42", w)
	}
}

func TestBankBusyForCycleCycles(t *testing.T) {
	ar := NewBankArena(1, 3)
	if !ar.Write(10, 0, 0, 1) {
		t.Fatal("first write rejected")
	}
	for dt := sim.Slot(0); dt < 3; dt++ {
		if !ar.Busy(0, 10+dt) {
			t.Fatalf("bank not busy at slot %d (cycle=3)", 10+dt)
		}
	}
	if ar.Busy(0, 13) {
		t.Fatal("bank still busy at slot 13 after 3-cycle access at 10")
	}
}

func TestBankRejectsWhileBusy(t *testing.T) {
	ar := NewBankArena(1, 2)
	ar.Write(0, 0, 0, 1)
	if ar.Write(1, 0, 1, 2) {
		t.Fatal("write accepted while busy")
	}
	if _, ok := ar.Read(1, 0, 0); ok {
		t.Fatal("read accepted while busy")
	}
	if ar.Conflicts(0) != 2 {
		t.Fatalf("Conflicts = %d, want 2", ar.Conflicts(0))
	}
	if ar.Accesses(0) != 1 {
		t.Fatalf("Accesses = %d, want 1", ar.Accesses(0))
	}
}

func TestBankRejectedWriteDoesNotStore(t *testing.T) {
	ar := NewBankArena(1, 2)
	ar.Write(0, 0, 7, 111)
	ar.Write(1, 0, 7, 222) // rejected
	if got := ar.Peek(0, 7); got != 111 {
		t.Fatalf("Peek(7) = %d, want 111 (rejected write must not land)", got)
	}
}

func TestBankPanicsOnBadCycle(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBankArena(1,0) did not panic")
		}
	}()
	NewBankArena(1, 0)
}

func TestBankReset(t *testing.T) {
	ar := NewBankArena(1, 2)
	ar.Write(0, 0, 1, 9)
	ar.Write(1, 0, 1, 9)
	ar.Reset(0)
	if ar.Busy(0, 0) {
		t.Fatal("busy after Reset")
	}
	if ar.Accesses(0) != 0 || ar.Conflicts(0) != 0 {
		t.Fatal("stats not cleared by Reset")
	}
	if ar.Peek(0, 1) != 9 {
		t.Fatal("Reset cleared contents; it must keep them")
	}
}

func TestLayoutValidate(t *testing.T) {
	good := Layout{Modules: 2, BanksPerMod: 4, WordsPerBank: 8}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid layout rejected: %v", err)
	}
	bads := []Layout{
		{Modules: 0, BanksPerMod: 1, WordsPerBank: 1},
		{Modules: 1, BanksPerMod: 0, WordsPerBank: 1},
		{Modules: 1, BanksPerMod: 1, WordsPerBank: 0},
	}
	for i, l := range bads {
		if err := l.Validate(); err == nil {
			t.Errorf("bad layout %d accepted", i)
		}
	}
}

func TestLayoutCounts(t *testing.T) {
	l := Layout{Modules: 4, BanksPerMod: 8, WordsPerBank: 16}
	if l.Banks() != 32 {
		t.Fatalf("Banks = %d, want 32", l.Banks())
	}
	if l.Words() != 512 {
		t.Fatalf("Words = %d, want 512", l.Words())
	}
}

func TestBlockInterleavedLayout(t *testing.T) {
	// 2 modules × 4 banks × 2 offsets. Address 0..3 = module 0 block 0,
	// 4..7 = module 0 block 1, 8..11 = module 1 block 0.
	l := Layout{Modules: 2, BanksPerMod: 4, WordsPerBank: 2}
	cases := []struct {
		a    Addr
		want Decomposed
	}{
		{0, Decomposed{Module: 0, Bank: 0, Offset: 0}},
		{3, Decomposed{Module: 0, Bank: 3, Offset: 0}},
		{4, Decomposed{Module: 0, Bank: 0, Offset: 1}},
		{7, Decomposed{Module: 0, Bank: 3, Offset: 1}},
		{8, Decomposed{Module: 1, Bank: 0, Offset: 0}},
		{15, Decomposed{Module: 1, Bank: 3, Offset: 1}},
	}
	for _, c := range cases {
		if got := l.BlockInterleaved(c.a); got != c.want {
			t.Errorf("BlockInterleaved(%d) = %+v, want %+v", c.a, got, c.want)
		}
	}
}

func TestModuleInterleavedLayout(t *testing.T) {
	l := Layout{Modules: 4, BanksPerMod: 2, WordsPerBank: 2}
	// Consecutive addresses hit consecutive modules.
	for a := Addr(0); a < 8; a++ {
		d := l.ModuleInterleaved(a)
		if d.Module != int(a)%4 {
			t.Fatalf("addr %d module = %d, want %d", a, d.Module, int(a)%4)
		}
	}
}

func TestComposeInvertsBlockInterleaved(t *testing.T) {
	f := func(mRaw, bRaw, wRaw uint8, aRaw uint16) bool {
		l := Layout{
			Modules:      1 + int(mRaw)%8,
			BanksPerMod:  1 + int(bRaw)%8,
			WordsPerBank: 1 + int(wRaw)%16,
		}
		a := Addr(int(aRaw) % l.Words())
		return l.Compose(l.BlockInterleaved(a)) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLayoutPanicsOutOfRange(t *testing.T) {
	l := Layout{Modules: 1, BanksPerMod: 1, WordsPerBank: 1}
	for _, fn := range []func(){
		func() { l.BlockInterleaved(1) },
		func() { l.BlockInterleaved(-1) },
		func() { l.ModuleInterleaved(5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range address did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestConventionalConfigValidate(t *testing.T) {
	good := ConventionalConfig{Processors: 8, Modules: 8, BlockTime: 17, AccessRate: 0.02, RetryMean: 4}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bads := []ConventionalConfig{
		{Processors: 0, Modules: 1, BlockTime: 1, RetryMean: 1},
		{Processors: 1, Modules: 0, BlockTime: 1, RetryMean: 1},
		{Processors: 1, Modules: 1, BlockTime: 0, RetryMean: 1},
		{Processors: 1, Modules: 1, BlockTime: 1, AccessRate: 1.5, RetryMean: 1},
		{Processors: 1, Modules: 1, BlockTime: 1, AccessRate: -0.1, RetryMean: 1},
		{Processors: 1, Modules: 1, BlockTime: 1, RetryMean: 0},
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.1, 1.1} {
		bads = append(bads, ConventionalConfig{Processors: 1, Modules: 1, BlockTime: 1, AccessRate: v, RetryMean: 1})
	}
	for i, c := range bads {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
	for _, v := range []float64{0, 1} {
		good.AccessRate = v
		if err := good.Validate(); err != nil {
			t.Errorf("AccessRate = %v rejected: %v", v, err)
		}
	}
}

func runConventional(t *testing.T, cfg ConventionalConfig, slots int64) *Conventional {
	t.Helper()
	cs := NewConventional(cfg)
	clk := sim.NewClock()
	clk.Register(cs)
	clk.Run(slots)
	return cs
}

func TestConventionalSingleProcessorNoConflicts(t *testing.T) {
	cs := runConventional(t, ConventionalConfig{
		Processors: 1, Modules: 4, BlockTime: 17, AccessRate: 0.05, RetryMean: 4, Seed: 1,
	}, 100000)
	if cs.Retries != 0 {
		t.Fatalf("single processor saw %d retries, want 0", cs.Retries)
	}
	if e := cs.Efficiency(); e != 1.0 {
		t.Fatalf("single-processor efficiency = %v, want 1.0", e)
	}
}

func TestConventionalZeroRateIssuesNothing(t *testing.T) {
	cs := runConventional(t, ConventionalConfig{
		Processors: 4, Modules: 4, BlockTime: 17, AccessRate: 0, RetryMean: 4, Seed: 2,
	}, 50000)
	if cs.Completed != 0 {
		t.Fatalf("completed %d accesses at rate 0", cs.Completed)
	}
}

func TestConventionalEfficiencyDropsWithRate(t *testing.T) {
	// The defining shape of Fig. 3.13's conventional curve: efficiency is
	// monotonically (modulo noise) worse as the access rate grows.
	base := ConventionalConfig{Processors: 8, Modules: 8, BlockTime: 17, RetryMean: 4, Seed: 3}
	rates := []float64{0.005, 0.02, 0.05}
	var prev float64 = 1.1
	for _, r := range rates {
		cfg := base
		cfg.AccessRate = r
		e := runConventional(t, cfg, 400000).Efficiency()
		if e >= prev {
			t.Fatalf("efficiency at r=%v is %v, not below %v", r, e, prev)
		}
		prev = e
	}
	if prev > 0.7 {
		t.Fatalf("efficiency at r=0.05 is %v; Fig 3.13 expects substantial degradation (<0.7)", prev)
	}
}

func TestConventionalHotSpotWorseThanUniform(t *testing.T) {
	base := ConventionalConfig{Processors: 16, Modules: 16, BlockTime: 17, AccessRate: 0.03, RetryMean: 4, Seed: 4}
	uniform := runConventional(t, base, 300000).Efficiency()

	hot := base
	hot.Seed = 5
	hot.Target = func(p int, rng *sim.RNG) int {
		if rng.Bernoulli(0.5) { // 50% of traffic to module 0
			return 0
		}
		return rng.Intn(16)
	}
	hotEff := runConventional(t, hot, 300000).Efficiency()
	if hotEff >= uniform {
		t.Fatalf("hot-spot efficiency %v not below uniform %v", hotEff, uniform)
	}
}

func TestConventionalDeterministicBySeed(t *testing.T) {
	cfg := ConventionalConfig{Processors: 8, Modules: 8, BlockTime: 17, AccessRate: 0.03, RetryMean: 4, Seed: 42}
	a := runConventional(t, cfg, 100000)
	b := runConventional(t, cfg, 100000)
	if a.Completed != b.Completed || a.Retries != b.Retries || a.TotalLatency != b.TotalLatency {
		t.Fatal("same seed produced different results")
	}
}

func TestConventionalLatencyAtLeastBlockTime(t *testing.T) {
	cs := runConventional(t, ConventionalConfig{
		Processors: 8, Modules: 4, BlockTime: 17, AccessRate: 0.05, RetryMean: 4, Seed: 6,
	}, 200000)
	if cs.Completed == 0 {
		t.Fatal("no accesses completed")
	}
	if ml := cs.MeanLatency(); ml < 17 {
		t.Fatalf("mean latency %v < block time 17", ml)
	}
	if e := cs.Efficiency(); e > 1 {
		t.Fatalf("efficiency %v > 1", e)
	}
}

func TestConventionalEfficiencyNoCompletions(t *testing.T) {
	cs := NewConventional(ConventionalConfig{
		Processors: 1, Modules: 1, BlockTime: 1, AccessRate: 0.5, RetryMean: 1,
	})
	if cs.Efficiency() != 1 {
		t.Fatal("Efficiency before any completion should be 1 (vacuous)")
	}
	if cs.MeanLatency() != 0 {
		t.Fatal("MeanLatency before any completion should be 0")
	}
}

func TestConventionalPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewConventional with invalid config did not panic")
		}
	}()
	NewConventional(ConventionalConfig{})
}
