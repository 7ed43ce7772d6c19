package core

import (
	"math"
	"testing"

	"cfm/internal/memory"
	"cfm/internal/sim"
)

func sharedCfg(sharing int, rate float64) SharedConfig {
	return SharedConfig{
		Divisions: 8, Sharing: sharing, BlockWords: 16, BankCycle: 2,
		AccessRate: rate, RetryMean: 4, Seed: 1,
	}
}

// runShared runs cfg densely for slots and returns the system with the
// elapsed slot count its utilization and throughput are read against.
func runShared(t *testing.T, cfg SharedConfig, slots int64) (*memory.Conventional, sim.Slot) {
	t.Helper()
	s := NewShared(cfg)
	clk := sim.NewClock()
	clk.Register(s)
	clk.Run(slots)
	return s, clk.Now()
}

func TestSharedConfigValidate(t *testing.T) {
	if err := sharedCfg(2, 0.02).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bads := []SharedConfig{
		{Divisions: 0, Sharing: 1, BlockWords: 1, BankCycle: 1, RetryMean: 1},
		{Divisions: 1, Sharing: 0, BlockWords: 1, BankCycle: 1, RetryMean: 1},
		{Divisions: 1, Sharing: 1, BlockWords: 0, BankCycle: 1, RetryMean: 1},
		{Divisions: 1, Sharing: 1, BlockWords: 1, BankCycle: 1, AccessRate: 2, RetryMean: 1},
		{Divisions: 1, Sharing: 1, BlockWords: 1, BankCycle: 1, RetryMean: 0},
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.1, 1.1} {
		bads = append(bads, sharedCfg(2, v))
	}
	for i, c := range bads {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
	for _, v := range []float64{0, 1} {
		if err := sharedCfg(2, v).Validate(); err != nil {
			t.Errorf("AccessRate = %v rejected: %v", v, err)
		}
	}
	if got := sharedCfg(3, 0).Processors(); got != 24 {
		t.Fatalf("Processors = %d, want 24", got)
	}
	if got := sharedCfg(3, 0).Division(17); got != 1 {
		t.Fatalf("Division(17) = %d, want 1", got)
	}
}

// TestSharedOneIsConflictFree: sharing = 1 is the plain CFM — zero
// retries, efficiency 1.
func TestSharedOneIsConflictFree(t *testing.T) {
	s, _ := runShared(t, sharedCfg(1, 0.05), 200000)
	if s.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if s.Retries != 0 || s.Efficiency() != 1 {
		t.Fatalf("sharing=1: %d retries, E=%v", s.Retries, s.Efficiency())
	}
}

// TestSharedConflictsAppear: sharing > 1 introduces the conflicts §7.2
// accepts as the price of utilization.
func TestSharedConflictsAppear(t *testing.T) {
	s, _ := runShared(t, sharedCfg(4, 0.05), 200000)
	if s.Retries == 0 {
		t.Fatal("sharing=4 at r=0.05 produced no conflicts")
	}
	if e := s.Efficiency(); e >= 1 {
		t.Fatalf("efficiency %v with conflicts", e)
	}
}

// TestSharedUtilizationRises: at the same per-processor rate, sharing
// raises hardware utilization and total throughput — the §7.2 claim.
func TestSharedUtilizationRises(t *testing.T) {
	var prevUtil, prevTput float64
	for _, sharing := range []int{1, 2, 4} {
		s, now := runShared(t, sharedCfg(sharing, 0.02), 200000)
		if u := s.Utilization(now); u <= prevUtil {
			t.Fatalf("sharing=%d utilization %v not above %v", sharing, u, prevUtil)
		} else {
			prevUtil = u
		}
		if tp := s.Throughput(now); tp <= prevTput {
			t.Fatalf("sharing=%d throughput %v not above %v", sharing, tp, prevTput)
		} else {
			prevTput = tp
		}
	}
}

// TestSharedEfficiencyFalls: the flip side — per-access efficiency
// degrades as sharing grows.
func TestSharedEfficiencyFalls(t *testing.T) {
	var prev = 1.1
	for _, sharing := range []int{1, 2, 4} {
		s, _ := runShared(t, sharedCfg(sharing, 0.03), 200000)
		if e := s.Efficiency(); e >= prev {
			t.Fatalf("sharing=%d efficiency %v not below %v", sharing, e, prev)
		} else {
			prev = e
		}
	}
}

func TestSharedDeterministic(t *testing.T) {
	a, _ := runShared(t, sharedCfg(2, 0.03), 50000)
	b, _ := runShared(t, sharedCfg(2, 0.03), 50000)
	if a.Completed != b.Completed || a.Retries != b.Retries {
		t.Fatal("same seed differed")
	}
}

func TestSharedZeroRate(t *testing.T) {
	s, now := runShared(t, sharedCfg(2, 0), 10000)
	if s.Completed != 0 || s.Utilization(now) != 0 || s.Throughput(now) != 0 {
		t.Fatal("traffic at rate 0")
	}
	if s.Efficiency() != 1 {
		t.Fatal("vacuous efficiency wrong")
	}
}

func TestSharedPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewShared(SharedConfig{})
}

// TestSharedOnlySameDivisionConflicts: processors in different divisions
// never conflict regardless of sharing (the CFM guarantee holds across
// divisions).
func TestSharedOnlySameDivisionConflicts(t *testing.T) {
	// One processor per division issuing heavily: no conflicts even at
	// extreme rate, because conflicts require same-division sharing.
	cfg := SharedConfig{
		Divisions: 8, Sharing: 1, BlockWords: 16, BankCycle: 2,
		AccessRate: 0.5, RetryMean: 2, Seed: 5,
	}
	s, _ := runShared(t, cfg, 100000)
	if s.Retries != 0 {
		t.Fatalf("cross-division conflicts: %d", s.Retries)
	}
}

// TestSharedHonoursSkipAhead: a low-rate sharing run under skip-ahead
// jumps the clock over quiescent slots and measures exactly what the
// dense run measures.
func TestSharedHonoursSkipAhead(t *testing.T) {
	run := func(skip bool) (*memory.Conventional, *sim.Clock) {
		s := NewShared(sharedCfg(3, 0.002))
		clk := sim.NewClock()
		clk.SetSkipAhead(skip)
		clk.Register(s)
		clk.Run(50000)
		return s, clk
	}
	dense, dclk := run(false)
	skip, sclk := run(true)
	if fired, ran := sclk.SlotsFired(), sclk.SlotsRun(); fired >= ran {
		t.Fatalf("skip-ahead fired %d of %d slots: the clock never jumped", fired, ran)
	}
	if dense.Completed == 0 || dense.Retries == 0 {
		t.Fatalf("vacuous run: %d completed, %d retries", dense.Completed, dense.Retries)
	}
	want := []float64{float64(dense.Completed), float64(dense.Retries), dense.Efficiency(),
		dense.Utilization(dclk.Now()), dense.Throughput(dclk.Now())}
	got := []float64{float64(skip.Completed), float64(skip.Retries), skip.Efficiency(),
		skip.Utilization(sclk.Now()), skip.Throughput(sclk.Now())}
	for i, name := range []string{"Completed", "Retries", "Efficiency", "Utilization", "Throughput"} {
		if got[i] != want[i] {
			t.Errorf("%s: skip-ahead %v, dense %v", name, got[i], want[i])
		}
	}
}
