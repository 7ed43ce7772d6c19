package att

import (
	"runtime"
	"testing"

	"cfm/internal/memory"
	"cfm/internal/sim"
)

// TestUntracedTickSkipsTraceText: an untraced Tick builds no trace text.
// In waves, sixteen processors each start a write of one shared offset
// under LatestWins, so the writes insert, restart, abort and complete
// inside Tick. The untraced Ticks must allocate far less than once per
// event the traced twin records: each event's "P<n>"/"ATT<n>" name and
// argument boxing used to be built before Trace.Add saw the nil trace.
func TestUntracedTickSkipsTraceText(t *testing.T) {
	const m, waves = 16, 8
	blocks := make([]memory.Block, m)
	for p := range blocks {
		blocks[p] = uniform(m, memory.Word(p+1))
	}
	// run returns the heap allocations made inside the engine's Run
	// calls; the writes are started between them.
	run := func(trace *sim.Trace) uint64 {
		tr := NewTracked(m, LatestWins, trace)
		clk := sim.NewClock()
		clk.Register(tr)
		var before, after runtime.MemStats
		var mallocs uint64
		for w := 0; w < waves; w++ {
			for p := 0; p < m; p++ {
				tr.StartWrite(clk.Now(), p, 0, blocks[p], nil)
			}
			runtime.ReadMemStats(&before)
			clk.Run(8 * m)
			runtime.ReadMemStats(&after)
			mallocs += after.Mallocs - before.Mallocs
			for p := 0; p < m; p++ {
				if tr.Busy(p) {
					t.Fatalf("wave %d: P%d still busy after %d slots", w, p, 8*m)
				}
			}
		}
		if tr.AbortedWrites == 0 || tr.CompletedWrites == 0 {
			t.Fatalf("no write conflict: %d completed, %d aborted", tr.CompletedWrites, tr.AbortedWrites)
		}
		return mallocs
	}
	traced := sim.NewTrace()
	run(traced)
	events := traced.Len()
	allocs := run(nil)
	t.Logf("untraced Ticks: %d allocations; traced twin: %d events", allocs, events)
	if allocs*4 > uint64(events) {
		t.Fatalf("untraced Ticks made %d allocations for the %d events the traced twin records", allocs, events)
	}
}
