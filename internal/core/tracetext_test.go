package core

import (
	"fmt"
	"slices"
	"testing"

	"cfm/internal/memory"
	"cfm/internal/sim"
)

// tracedDrive registers a driver that keeps every processor of m busy
// with alternating reads and writes until slot stop, cycling through
// single- and multi-digit offsets, and reports each access it starts.
func tracedDrive(clk *sim.Clock, m *CFMemory, stop sim.Slot, started func(t sim.Slot, p int, k AccessKind, off int)) {
	offsets := []int{0, 9, 10, 12345}
	blk := make(memory.Block, m.Config().Banks())
	n := 0
	clk.Register(sim.TickerFunc(func(t sim.Slot, ph sim.Phase) {
		if ph != sim.PhaseIssue || t >= stop {
			return
		}
		for p := 0; p < m.Config().Processors; p++ {
			if !m.CanStart(t, p) {
				continue
			}
			off := offsets[n%len(offsets)]
			if n++; n%2 == 0 {
				m.StartRead(t, p, off, nil)
				started(t, p, ReadBlock, off)
			} else {
				m.StartWrite(t, p, off, blk, nil)
				started(t, p, WriteBlock, off)
			}
		}
	}))
	clk.Register(m)
}

// TestCFMemoryTraceTextMatchesFormat pins the trace events CFMemory
// builds without fmt to the formats they replace: every issue, complete
// and bank-visit event of a run with double-digit processor and bank
// numbers equals its fmt.Sprintf rendering.
func TestCFMemoryTraceTextMatchesFormat(t *testing.T) {
	for _, cfg := range []Config{
		{Processors: 12, BankCycle: 1, WordWidth: 16},
		{Processors: 11, BankCycle: 2, WordWidth: 16},
	} {
		tr := sim.NewTrace()
		m := NewCFMemory(cfg, tr)
		var want []string
		clk := sim.NewClock()
		tracedDrive(clk, m, 60, func(t0 sim.Slot, p int, k AccessKind, off int) {
			want = append(want,
				sim.Event{Slot: t0, Who: fmt.Sprintf("P%d", p), What: fmt.Sprintf("issue %s offset %d", k, off)}.String(),
				sim.Event{Slot: m.ATSpace().CompletionSlot(t0), Who: fmt.Sprintf("P%d", p),
					What: fmt.Sprintf("complete %s offset %d", k, off)}.String())
			for w := 0; w < cfg.Banks(); w++ {
				want = append(want, sim.Event{Slot: t0 + sim.Slot(w),
					Who:  fmt.Sprintf("Bank%d", m.ATSpace().VisitBank(t0, p, w)),
					What: fmt.Sprintf("%s word (P%d, offset %d)", k, p, off)}.String())
			}
		})
		clk.Run(60 + int64(cfg.BlockTime()))
		var got []string
		for _, e := range tr.Events() {
			got = append(got, e.String())
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("%+v: trace has %d events, the formats give %d; first trace events:\n%v",
				cfg, len(got), len(want), got[:min(len(got), 8)])
		}
		for _, who := range []string{fmt.Sprintf("P%d", cfg.Processors-1), fmt.Sprintf("Bank%d", cfg.Banks()-1)} {
			if len(tr.Filter(who)) == 0 {
				t.Fatalf("%+v: no events by %s", cfg, who)
			}
		}
	}
}

// TestCFMemoryTracedRunAllocsPerEvent checks that recording a trace
// costs at most one allocation per event (its text) once the run is
// warm, plus the trace's own occasional growth.
func TestCFMemoryTracedRunAllocsPerEvent(t *testing.T) {
	cfg := Config{Processors: 12, BankCycle: 1, WordWidth: 16}
	tr := sim.NewTrace()
	m := NewCFMemory(cfg, tr)
	clk := sim.NewClock()
	tracedDrive(clk, m, 1<<62, func(sim.Slot, int, AccessKind, int) {})
	clk.Run(200) // warm-up: size the free lists and staging buffers
	const runs = 50
	before := tr.Len()
	avg := testing.AllocsPerRun(runs, func() { clk.Run(20) })
	// AllocsPerRun makes one extra warm-up call.
	events := float64(tr.Len()-before) / (runs + 1)
	if events < 100 {
		t.Fatalf("only %.0f events per run: guard is vacuous", events)
	}
	if avg > events+1 {
		t.Fatalf("traced run allocates %.1f times per %.1f events, want at most one per event", avg, events)
	}
}
