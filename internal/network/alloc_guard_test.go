package network

import (
	"testing"

	"cfm/internal/metrics"
	"cfm/internal/sim"
)

// TestOmegaColumnSweepAllocFree guards the zero-allocation steady state
// of the buffered omega's column sweep: once every switch queue has
// grown to its working depth, moving packets is pure index arithmetic on
// the reusable ring storage.
func TestOmegaColumnSweepAllocFree(t *testing.T) {
	b := NewBufferedOmega(BufferedConfig{
		Terminals: 16, QueueCap: 4, ServiceTime: 2, Rate: 0.05,
		HotFraction: 0.1, Seed: 11,
	})
	clk := sim.NewClock()
	clk.Register(b)
	clk.Run(5000) // warm-up: reach every queue's steady-state depth
	if avg := testing.AllocsPerRun(20, func() { clk.Run(100) }); avg != 0 {
		t.Fatalf("column sweep allocates %v times per 100 slots, want 0", avg)
	}
	if b.DeliveredBg+b.DeliveredHot == 0 {
		t.Fatal("no traffic delivered: guard is vacuous")
	}
}

// TestOmegaInstrumentedSweepAllocFree is the same guard with a registry
// attached: the per-slot occupancy gauges are set from kept counts, so
// metering the sweep allocates nothing either.
func TestOmegaInstrumentedSweepAllocFree(t *testing.T) {
	b := NewBufferedOmega(BufferedConfig{
		Terminals: 16, QueueCap: 4, ServiceTime: 2, Rate: 0.05,
		HotFraction: 0.1, Seed: 11,
	})
	b.Instrument(metrics.New())
	clk := sim.NewClock()
	clk.Register(b)
	clk.Run(5000) // warm-up: reach every queue's steady-state depth
	if avg := testing.AllocsPerRun(20, func() { clk.Run(100) }); avg != 0 {
		t.Fatalf("instrumented column sweep allocates %v times per 100 slots, want 0", avg)
	}
	if b.DeliveredBg+b.DeliveredHot == 0 {
		t.Fatal("no traffic delivered: guard is vacuous")
	}
}
