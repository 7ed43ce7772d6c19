package core

import (
	"testing"

	"cfm/internal/memory"
	"cfm/internal/sim"
)

// TestBankTickLoopAllocFree guards the zero-allocation steady state of
// the conflict-free memory's tick loop: after warm-up, every access
// record and result buffer comes from the per-processor free lists, so
// running slots allocates nothing. A regression here silently erodes the
// throughput the bench suite (BenchmarkEngineSerial) is built on.
func TestBankTickLoopAllocFree(t *testing.T) {
	cfg := Config{Processors: 8, BankCycle: 2, WordWidth: 16}
	m := NewCFMemory(cfg, nil)
	clk := sim.NewClock()
	blk := make(memory.Block, cfg.Banks())
	clk.Register(sim.TickerFunc(func(tt sim.Slot, ph sim.Phase) {
		if ph != sim.PhaseIssue {
			return
		}
		for p := 0; p < cfg.Processors; p++ {
			if m.CanStart(tt, p) {
				if p%2 == 0 {
					m.StartWrite(tt, p, p, blk, nil)
				} else {
					m.StartRead(tt, p, (p+1)%cfg.Processors, nil)
				}
			}
		}
	}))
	clk.Register(m)
	clk.Run(200) // warm-up: size the free lists
	if avg := testing.AllocsPerRun(50, func() { clk.Run(20) }); avg != 0 {
		t.Fatalf("bank tick loop allocates %v times per 20 slots, want 0", avg)
	}
	if m.Completed == 0 {
		t.Fatal("no accesses completed: guard is vacuous")
	}
}

// TestPartialDenseTickAllocFree guards the zero-allocation steady state
// of the shard sweep under the serial clock: with the open-loop arrival
// rate below the service rate the backlog rings reach a stable depth,
// after which every tick is index arithmetic over the flat
// per-processor arrays. (The
// saturated bench shapes DO allocate — their backlogs grow without
// bound by design — so the guard runs an underloaded system.)
func TestPartialDenseTickAllocFree(t *testing.T) {
	p := NewPartial(PartialConfig{
		Processors: 64, Modules: 8, BlockWords: 16, BankCycle: 2,
		Locality: 0.9, AccessRate: 0.02, RetryMean: 4, Seed: 9,
	})
	clk := sim.NewClock()
	clk.Register(p)
	clk.Run(30000) // warm-up: every backlog ring at steady-state depth
	if avg := testing.AllocsPerRun(20, func() { clk.Run(200) }); avg != 0 {
		t.Fatalf("dense tick sweep allocates %v times per 200 slots, want 0", avg)
	}
	if p.Completed == 0 {
		t.Fatal("no accesses completed: guard is vacuous")
	}
}
