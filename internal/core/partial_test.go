package core

import (
	"bytes"
	"math"
	"testing"

	"cfm/internal/sim"
)

// fig314Config is the system of Fig. 3.14: 64 processors, 8 conflict-free
// modules, 16-word blocks, bank cycle 2, β = 17.
func fig314Config(locality, rate float64, seed uint64) PartialConfig {
	return PartialConfig{
		Processors: 64, Modules: 8, BlockWords: 16, BankCycle: 2,
		Locality: locality, AccessRate: rate, RetryMean: 4, Seed: seed,
	}
}

func runPartial(t *testing.T, cfg PartialConfig, slots int64) *Partial {
	t.Helper()
	p := NewPartial(cfg)
	clk := sim.NewClock()
	clk.Register(p)
	clk.Run(slots)
	return p
}

func TestPartialConfigValidate(t *testing.T) {
	if err := fig314Config(0.9, 0.02, 1).Validate(); err != nil {
		t.Fatalf("Fig 3.14 config rejected: %v", err)
	}
	bads := []PartialConfig{
		{Processors: 0, Modules: 1, BlockWords: 2, BankCycle: 2, RetryMean: 1},
		{Processors: 4, Modules: 0, BlockWords: 2, BankCycle: 2, RetryMean: 1},
		{Processors: 4, Modules: 2, BlockWords: 0, BankCycle: 2, RetryMean: 1},
		{Processors: 4, Modules: 2, BlockWords: 4, BankCycle: 0, RetryMean: 1},
		{Processors: 4, Modules: 2, BlockWords: 4, BankCycle: 2, Locality: 1.5, RetryMean: 1},
		{Processors: 4, Modules: 2, BlockWords: 4, BankCycle: 2, AccessRate: -1, RetryMean: 1},
		{Processors: 4, Modules: 2, BlockWords: 4, BankCycle: 2, RetryMean: 0},
		{Processors: 5, Modules: 2, BlockWords: 4, BankCycle: 2, RetryMean: 1}, // n % m != 0
		{Processors: 4, Modules: 2, BlockWords: 3, BankCycle: 2, RetryMean: 1}, // words % c != 0
		{Processors: 8, Modules: 2, BlockWords: 4, BankCycle: 2, RetryMean: 1}, // cluster size mismatch
	}
	// NaN fails every comparison, so a plain x < 0 || x > 1 check
	// accepts it.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.1, 1.1} {
		bads = append(bads,
			PartialConfig{Processors: 4, Modules: 2, BlockWords: 4, BankCycle: 2, Locality: v, RetryMean: 1},
			PartialConfig{Processors: 4, Modules: 2, BlockWords: 4, BankCycle: 2, AccessRate: v, RetryMean: 1})
	}
	for i, c := range bads {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
	for _, v := range []float64{0, 1} {
		if err := fig314Config(v, v, 1).Validate(); err != nil {
			t.Errorf("Locality = AccessRate = %v rejected: %v", v, err)
		}
	}
}

func TestPartialDerived(t *testing.T) {
	cfg := fig314Config(0.9, 0.02, 1)
	if cfg.BlockTime() != 17 {
		t.Errorf("BlockTime = %d, want 17", cfg.BlockTime())
	}
	if cfg.ClusterSize() != 8 {
		t.Errorf("ClusterSize = %d, want 8", cfg.ClusterSize())
	}
	if cfg.Cluster(17) != 2 {
		t.Errorf("Cluster(17) = %d, want 2", cfg.Cluster(17))
	}
	if cfg.ContentionSet(17) != 1 {
		t.Errorf("ContentionSet(17) = %d, want 1", cfg.ContentionSet(17))
	}
}

// TestPartialFullLocalityIsConflictFree: with λ = 1 every access is
// local, and a conflict-free cluster never conflicts internally.
func TestPartialFullLocalityIsConflictFree(t *testing.T) {
	p := runPartial(t, fig314Config(1.0, 0.05, 2), 200000)
	if p.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if p.Retries != 0 {
		t.Fatalf("λ=1 saw %d retries, want 0 (local accesses are conflict-free)", p.Retries)
	}
	if e := p.Efficiency(); e != 1.0 {
		t.Fatalf("λ=1 efficiency = %v, want 1.0", e)
	}
}

// TestPartialEfficiencyRisesWithLocality is the ordering of the curves in
// Fig. 3.14: higher locality ⇒ higher efficiency at the same rate.
func TestPartialEfficiencyRisesWithLocality(t *testing.T) {
	var prev float64 = -1
	for _, lam := range []float64{0.3, 0.5, 0.7, 0.9} {
		p := runPartial(t, fig314Config(lam, 0.04, 3), 300000)
		e := p.Efficiency()
		if e <= prev {
			t.Fatalf("efficiency at λ=%v is %v, not above %v", lam, e, prev)
		}
		prev = e
	}
}

// TestPartialEfficiencyFallsWithRate: the downward slope of each curve.
func TestPartialEfficiencyFallsWithRate(t *testing.T) {
	var prev float64 = 2
	for _, r := range []float64{0.01, 0.03, 0.06} {
		p := runPartial(t, fig314Config(0.5, r, 4), 300000)
		e := p.Efficiency()
		if e >= prev {
			t.Fatalf("efficiency at r=%v is %v, not below %v", r, e, prev)
		}
		prev = e
	}
}

// TestPartialBeatsConventional: the headline comparison of Figs. 3.14 and
// 3.15 — at moderate locality and a high access rate, the partially
// conflict-free system is substantially more efficient than a
// conventional system with the same interconnect connectivity.
func TestPartialBeatsConventional(t *testing.T) {
	p := runPartial(t, fig314Config(0.7, 0.05, 5), 300000)
	// The paper's conventional comparator at r = 0.05 has efficiency well
	// below 0.4 (Fig. 3.14); the λ = 0.7 partial system stays far above.
	if e := p.Efficiency(); e < 0.6 {
		t.Fatalf("partial λ=0.7 efficiency = %v, want > 0.6", e)
	}
}

func TestPartialLocalityAccounting(t *testing.T) {
	p := runPartial(t, fig314Config(0.9, 0.03, 6), 200000)
	total := p.LocalAcc + p.RemoteAcc
	if total == 0 {
		t.Fatal("no accesses issued")
	}
	frac := float64(p.LocalAcc) / float64(total)
	if frac < 0.88 || frac > 0.92 {
		t.Fatalf("local fraction %v, want ~0.9", frac)
	}
}

func TestPartialSingleModule(t *testing.T) {
	// m = 1 degenerates to the fully conflict-free CFM: every processor
	// has its own contention set and nothing ever conflicts.
	cfg := PartialConfig{
		Processors: 8, Modules: 1, BlockWords: 16, BankCycle: 2,
		Locality: 0, AccessRate: 0.05, RetryMean: 4, Seed: 7,
	}
	p := runPartial(t, cfg, 100000)
	if p.Retries != 0 {
		t.Fatalf("single-module CFM saw %d retries", p.Retries)
	}
}

func TestPartialDeterministicBySeed(t *testing.T) {
	cfg := fig314Config(0.7, 0.04, 42)
	a := runPartial(t, cfg, 50000)
	b := runPartial(t, cfg, 50000)
	if a.Completed != b.Completed || a.Retries != b.Retries || a.TotalLatency != b.TotalLatency {
		t.Fatal("same seed produced different results")
	}
}

func TestPartialPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config did not panic")
		}
	}()
	NewPartial(PartialConfig{})
}

func TestPartialEfficiencyBeforeCompletion(t *testing.T) {
	p := NewPartial(fig314Config(0.5, 0.01, 8))
	if p.Efficiency() != 1 || p.MeanLatency() != 0 {
		t.Fatal("pre-run statistics wrong")
	}
}

// TestPartialRestoreRejectsForeignTargetModule restores a 16-module
// Partial's checkpoint into an 8-module one of the same processor count.
// Every array length matches, so only the target-module range check can
// tell the shapes apart; without it the restore succeeds and the next
// Run indexes a port outside the processor's contention set or panics.
func TestPartialRestoreRejectsForeignTargetModule(t *testing.T) {
	wide := PartialConfig{Processors: 64, Modules: 16, BlockWords: 8, BankCycle: 2,
		Locality: 0.2, AccessRate: 0.05, RetryMean: 4, Seed: 3}
	narrow := fig314Config(0.2, 0.05, 3)
	src := runPartial(t, wide, 2000)
	high := false
	for _, m := range src.targetMod {
		high = high || int(m) >= narrow.Modules
	}
	if !high {
		t.Fatal("no processor targets a module the 8-module system lacks; the restore checks nothing")
	}
	clk := sim.NewClock()
	clk.Register(src)
	var buf bytes.Buffer
	if err := clk.Checkpoint(&buf); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	dst := sim.NewClock()
	dst.Register(NewPartial(narrow))
	if err := dst.Restore(&buf); err == nil {
		t.Fatal("restore of a 16-module snapshot into an 8-module system succeeded")
	}
}
