package core

import (
	"strings"
	"testing"

	"cfm/internal/memory"
	"cfm/internal/sim"
)

func cfg42() Config { return Config{Processors: 4, BankCycle: 2, WordWidth: 32} }
func cfg41() Config { return Config{Processors: 4, BankCycle: 1, WordWidth: 64} }

func TestCFMemoryReadRoundTrip(t *testing.T) {
	m := NewCFMemory(cfg42(), nil)
	want := memory.Block{10, 11, 12, 13, 14, 15, 16, 17}
	m.PokeBlock(3, want)

	clk := sim.NewClock()
	clk.Register(m)
	var got memory.Block
	m.StartRead(0, 0, 3, func(b memory.Block) { got = b })
	clk.Run(20)
	if got == nil {
		t.Fatal("read never completed")
	}
	if !got.Equal(want) {
		t.Fatalf("read %v, want %v", got, want)
	}
}

func TestCFMemoryWriteRoundTrip(t *testing.T) {
	m := NewCFMemory(cfg42(), nil)
	clk := sim.NewClock()
	clk.Register(m)
	data := memory.Block{1, 2, 3, 4, 5, 6, 7, 8}
	done := false
	m.StartWrite(0, 2, 5, data, func(memory.Block) { done = true })
	clk.Run(20)
	if !done {
		t.Fatal("write never completed")
	}
	if got := m.PeekBlock(5); !got.Equal(data) {
		t.Fatalf("memory holds %v, want %v", got, data)
	}
}

func TestCFMemoryLatencyIsBeta(t *testing.T) {
	// Every access completes in exactly β slots regardless of start slot
	// or processor — the non-stall property of §3.1.1.
	cfg := cfg42()
	for _, start := range []sim.Slot{0, 1, 3, 7, 11} {
		for p := 0; p < cfg.Processors; p++ {
			m := NewCFMemory(cfg, nil)
			clk := sim.NewClock()
			clk.Register(m)
			clk.Run(int64(start))
			var doneAt sim.Slot = -1
			m.StartRead(start, p, 0, func(memory.Block) { doneAt = clk.Now() })
			clk.Run(40)
			wantDone := start + sim.Slot(cfg.BlockTime()) - 1
			if doneAt != wantDone {
				t.Fatalf("P%d start %d: completed at %d, want %d (β=%d)",
					p, start, doneAt, wantDone, cfg.BlockTime())
			}
		}
	}
}

// TestCFMemoryAllProcessorsConcurrently is the headline property: all n
// processors issue block accesses at the same slot and none ever
// conflicts (a conflict panics inside CFMemory).
func TestCFMemoryAllProcessorsConcurrently(t *testing.T) {
	for _, cfg := range []Config{cfg41(), cfg42(), {Processors: 8, BankCycle: 2, WordWidth: 16}} {
		m := NewCFMemory(cfg, nil)
		clk := sim.NewClock()
		clk.Register(m)
		completions := 0
		for p := 0; p < cfg.Processors; p++ {
			m.StartRead(0, p, 0, func(memory.Block) { completions++ })
		}
		clk.Run(int64(cfg.BlockTime()) + 5)
		if completions != cfg.Processors {
			t.Fatalf("%v: %d completions, want %d", cfg, completions, cfg.Processors)
		}
	}
}

// TestCFMemoryStaggeredStartsNoConflict: accesses can start at ANY slot
// mid-flight of others (Fig. 3.3's example: a write starting at slot 2
// does not interfere with accesses started at slot 0).
func TestCFMemoryStaggeredStartsNoConflict(t *testing.T) {
	cfg := cfg41()
	m := NewCFMemory(cfg, nil)
	clk := sim.NewClock()
	clk.Register(m)
	done := 0
	count := func(memory.Block) { done++ }
	m.StartRead(0, 0, 0, count)
	m.StartRead(0, 1, 1, count)
	clk.Run(2)
	m.StartWrite(2, 3, 0, memory.Block{9, 9, 9, 9}, count)
	clk.Run(10)
	if done != 3 {
		t.Fatalf("%d completions, want 3", done)
	}
}

// TestCFMemorySaturationThroughput: with back-to-back accesses from all
// processors, each processor completes one block every b slots and bank
// utilization is 100% — effective bandwidth equals peak (§3.4.2).
func TestCFMemorySaturationThroughput(t *testing.T) {
	cfg := cfg42()
	m := NewCFMemory(cfg, nil)
	clk := sim.NewClock()
	// Re-issue as soon as the address path frees.
	issuer := sim.TickerFunc(func(tt sim.Slot, ph sim.Phase) {
		if ph != sim.PhaseIssue {
			return
		}
		for p := 0; p < cfg.Processors; p++ {
			if m.CanStart(tt, p) {
				m.StartRead(tt, p, 0, nil)
			}
		}
	})
	clk.Register(issuer)
	clk.RegisterPrio(m, 1) // memory ticks after the issuer
	const slots = 800
	clk.Run(slots)
	// Each processor should complete ~slots/b accesses.
	wantPerProc := slots/int64(cfg.Banks()) - 2
	if m.Completed < wantPerProc*int64(cfg.Processors) {
		t.Fatalf("completed %d accesses, want >= %d", m.Completed, wantPerProc*int64(cfg.Processors))
	}
	// Banks are fully pipelined: accesses per bank ≈ slots/c.
	for i := 0; i < cfg.Banks(); i++ {
		if acc := m.ar.Accesses(i); acc < slots/int64(cfg.BankCycle)-int64(cfg.Banks()) {
			t.Fatalf("bank %d served %d word accesses, want ~%d (full pipeline)",
				i, acc, slots/int64(cfg.BankCycle))
		}
	}
}

// TestCFMemoryInconsistencyFig41 reproduces Fig. 4.1: without address
// tracking, two simultaneous writes to the same block interleave so that
// the final block mixes both writers' data — exactly the motivating
// disaster for Chapter 4.
func TestCFMemoryInconsistencyFig41(t *testing.T) {
	cfg := cfg41()
	m := NewCFMemory(cfg, nil)
	clk := sim.NewClock()
	clk.Register(m)
	// P0 writes "1 2 3 4", P1 writes "11 12 13 14" (a b c d), same slot.
	m.StartWrite(0, 0, 0, memory.Block{1, 2, 3, 4}, nil)
	m.StartWrite(0, 1, 0, memory.Block{11, 12, 13, 14}, nil)
	clk.Run(10)
	got := m.PeekBlock(0)
	// P0 visits banks 0,1,2,3 at slots 0..3; P1 visits 1,2,3,0. P1's
	// writes to banks 1..3 are overwritten by P0 one slot later; P1
	// overwrites bank 0 at slot 3. Result: bank 0 from P1, rest from P0.
	want := memory.Block{11, 2, 3, 4}
	if !got.Equal(want) {
		t.Fatalf("block after conflicting writes = %v, want %v (Fig. 4.1)", got, want)
	}
}

func TestCFMemoryCanStartGating(t *testing.T) {
	cfg := cfg42()
	m := NewCFMemory(cfg, nil)
	clk := sim.NewClock()
	clk.Register(m)
	m.StartRead(0, 0, 0, nil)
	if m.CanStart(0, 0) {
		t.Fatal("CanStart true while access in flight")
	}
	clk.Run(int64(cfg.Banks())) // address path frees after b slots
	// Completion is at β−1 = b+c−2 > b−1 for c>1; but the address path is
	// free at slot b, so the *next* access may begin then even though the
	// final data words are in flight.
	clk.Run(int64(cfg.BankCycle))
	if !m.CanStart(clk.Now(), 0) {
		t.Fatalf("CanStart false at slot %d after address path freed", clk.Now())
	}
}

func TestCFMemoryDoubleStartPanics(t *testing.T) {
	m := NewCFMemory(cfg41(), nil)
	m.StartRead(0, 0, 0, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("second start while busy did not panic")
		}
	}()
	m.StartRead(0, 0, 1, nil)
}

func TestCFMemoryWriteWrongSizePanics(t *testing.T) {
	m := NewCFMemory(cfg41(), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("short write block did not panic")
		}
	}()
	m.StartWrite(0, 0, 0, memory.Block{1}, nil)
}

func TestCFMemoryPokeWrongSizePanics(t *testing.T) {
	m := NewCFMemory(cfg41(), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("short poke did not panic")
		}
	}()
	m.PokeBlock(0, memory.Block{1})
}

func TestCFMemoryTraceRecordsLifecycle(t *testing.T) {
	tr := sim.NewTrace()
	m := NewCFMemory(cfg41(), tr)
	clk := sim.NewClock()
	clk.Register(m)
	m.StartRead(0, 2, 7, nil)
	clk.Run(10)
	if !tr.Contains("P2", "issue read offset 7") {
		t.Fatalf("trace missing issue event:\n%s", tr)
	}
	if !tr.Contains("P2", "complete read offset 7") {
		t.Fatalf("trace missing completion event:\n%s", tr)
	}
}

func TestRenderTimingFig36(t *testing.T) {
	a := NewATSpace(cfg42())
	out := a.RenderTiming(0, 0)
	if !strings.Contains(out, "β=9") {
		t.Fatalf("diagram missing β: %s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 9 { // header + 8 banks
		t.Fatalf("diagram has %d lines, want 9:\n%s", len(lines), out)
	}
	// Bank 0: address at slot 0 (column 0), data at slot 1.
	if !strings.Contains(lines[1], "|AD") {
		t.Fatalf("bank 0 row %q should start with AD", lines[1])
	}
}

func TestRenderTimingC1CombinedMarker(t *testing.T) {
	a := NewATSpace(cfg41())
	out := a.RenderTiming(0, 0)
	if !strings.Contains(out, "B") {
		t.Fatalf("c=1 diagram should mark same-slot address+data with B:\n%s", out)
	}
}

func TestReadTimingEventCount(t *testing.T) {
	a := NewATSpace(cfg42())
	ev := a.ReadTiming(5, 1)
	if len(ev) != 2*a.Banks() {
		t.Fatalf("got %d events, want %d", len(ev), 2*a.Banks())
	}
}
