package sim

import (
	"runtime"
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("Now() = %d, want 0", c.Now())
	}
	if c.SlotsRun() != 0 {
		t.Fatalf("SlotsRun() = %d, want 0", c.SlotsRun())
	}
}

// TestClockIsOneWorkerEngine pins the contract of the one-worker engine
// on a plan that a worker pool would epoch-batch: Stop ends Run after
// the slot that called it, no barrier is crossed and no episode folds,
// no goroutine starts, and Close is a no-op.
func TestClockIsOneWorkerEngine(t *testing.T) {
	const stopAt = 21
	before := runtime.NumGoroutine()
	c := NewClock()
	e := newEpochComp(8, MaskAll)
	e.stopAt, e.stop = stopAt, c.Stop
	c.Register(e)
	c.SetEpochBatch(16)
	if got := c.Run(100); got != stopAt+1 {
		t.Fatalf("Run returned %d after Stop at slot %d, want %d", got, stopAt, stopAt+1)
	}
	if !c.batchable || c.Workers() != 1 {
		t.Fatalf("batchable=%v workers=%d, want a batchable plan on one worker", c.batchable, c.Workers())
	}
	if c.Now() != stopAt+1 || c.SlotsFired() != stopAt+1 {
		t.Fatalf("Now=%d SlotsFired=%d, want both %d", c.Now(), c.SlotsFired(), stopAt+1)
	}
	if c.BarrierCrossings() != 0 || c.Epochs() != 0 || e.epCalls != 0 {
		t.Fatalf("crossings=%d epochs=%d FinishEpoch calls=%d, want all 0",
			c.BarrierCrossings(), c.Epochs(), e.epCalls)
	}
	// Goroutines of earlier tests may still be exiting, so only a rise
	// means this engine started a worker.
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines %d -> %d across the run, want no new one", before, after)
	}
	c.Close()
	if c.pool != nil || c.Now() != stopAt+1 {
		t.Fatalf("Close changed the engine: pool=%v Now=%d", c.pool, c.Now())
	}
	if got := c.Run(10); got != 10 || c.Now() != stopAt+11 {
		t.Fatalf("Run after Close returned %d at Now=%d, want 10 at %d", got, c.Now(), stopAt+11)
	}
}

func TestClockStepAdvancesOneSlot(t *testing.T) {
	c := NewClock()
	c.Step()
	if c.Now() != 1 {
		t.Fatalf("Now() = %d after one Step, want 1", c.Now())
	}
}

func TestClockRunExecutesExactly(t *testing.T) {
	c := NewClock()
	var ticks int
	c.Register(TickerFunc(func(t Slot, ph Phase) {
		if ph == PhaseIssue {
			ticks++
		}
	}))
	n := c.Run(37)
	if n != 37 {
		t.Fatalf("Run returned %d, want 37", n)
	}
	if ticks != 37 {
		t.Fatalf("component saw %d issue phases, want 37", ticks)
	}
}

func TestClockPhaseOrderWithinSlot(t *testing.T) {
	c := NewClock()
	var seen []Phase
	c.Register(TickerFunc(func(t Slot, ph Phase) { seen = append(seen, ph) }))
	c.Step()
	want := []Phase{PhaseIssue, PhaseConnect, PhaseTransfer, PhaseUpdate}
	if len(seen) != len(want) {
		t.Fatalf("saw %d phases, want %d", len(seen), len(want))
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("phase[%d] = %v, want %v", i, seen[i], want[i])
		}
	}
}

func TestClockAllComponentsSeePhaseBeforeNext(t *testing.T) {
	// Both components must see PhaseConnect before either sees
	// PhaseTransfer (switches settle before banks sample).
	c := NewClock()
	var order []string
	mk := func(name string) Ticker {
		return TickerFunc(func(t Slot, ph Phase) {
			order = append(order, name+":"+ph.String())
		})
	}
	c.Register(mk("a"))
	c.Register(mk("b"))
	c.Step()
	want := []string{
		"a:issue", "b:issue",
		"a:connect", "b:connect",
		"a:transfer", "b:transfer",
		"a:update", "b:update",
	}
	if len(order) != len(want) {
		t.Fatalf("got %d entries, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order[%d] = %q, want %q", i, order[i], want[i])
		}
	}
}

func TestClockPriorityOrdering(t *testing.T) {
	c := NewClock()
	var order []string
	c.RegisterPrio(TickerFunc(func(Slot, Phase) { order = append(order, "late") }), 10)
	c.RegisterPrio(TickerFunc(func(Slot, Phase) { order = append(order, "early") }), -5)
	c.Register(TickerFunc(func(Slot, Phase) { order = append(order, "mid") }))
	c.Step()
	// Per phase: early, mid, late. Four phases.
	if len(order) != 12 {
		t.Fatalf("got %d entries, want 12", len(order))
	}
	for i := 0; i < 12; i += 3 {
		if order[i] != "early" || order[i+1] != "mid" || order[i+2] != "late" {
			t.Fatalf("phase group %d = %v, want [early mid late]", i/3, order[i:i+3])
		}
	}
}

func TestClockRegistrationOrderBreaksTies(t *testing.T) {
	c := NewClock()
	var order []string
	c.Register(TickerFunc(func(t Slot, ph Phase) {
		if ph == PhaseIssue {
			order = append(order, "first")
		}
	}))
	c.Register(TickerFunc(func(t Slot, ph Phase) {
		if ph == PhaseIssue {
			order = append(order, "second")
		}
	}))
	c.Step()
	if order[0] != "first" || order[1] != "second" {
		t.Fatalf("tie order = %v, want [first second]", order)
	}
}

func TestClockStopEndsRunAtSlotBoundary(t *testing.T) {
	c := NewClock()
	c.Register(TickerFunc(func(t Slot, ph Phase) {
		if t == 4 && ph == PhaseIssue {
			c.Stop()
		}
	}))
	n := c.Run(100)
	if n != 5 {
		t.Fatalf("Run executed %d slots, want 5 (stop at end of slot 4)", n)
	}
	if c.Now() != 5 {
		t.Fatalf("Now() = %d, want 5", c.Now())
	}
}

func TestClockRunUntil(t *testing.T) {
	c := NewClock()
	done, ok := c.RunUntil(func() bool { return c.Now() >= 10 }, 1000)
	if !ok {
		t.Fatal("RunUntil did not satisfy predicate")
	}
	if done != 10 {
		t.Fatalf("RunUntil executed %d slots, want 10", done)
	}
	_, ok = c.RunUntil(func() bool { return false }, 7)
	if ok {
		t.Fatal("RunUntil reported success for unsatisfiable predicate")
	}
}

func TestPhaseString(t *testing.T) {
	cases := map[Phase]string{
		PhaseIssue:    "issue",
		PhaseConnect:  "connect",
		PhaseTransfer: "transfer",
		PhaseUpdate:   "update",
		Phase(99):     "phase(99)",
	}
	for ph, want := range cases {
		if got := ph.String(); got != want {
			t.Errorf("Phase(%d).String() = %q, want %q", int(ph), got, want)
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws of 100", same)
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d out of range", v)
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestRNGBernoulliExtremes(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestRNGBernoulliRate(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	got := float64(hits) / n
	if got < 0.29 || got > 0.31 {
		t.Fatalf("Bernoulli(0.3) empirical rate %v, want ~0.3", got)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(5)
	a := r.Split()
	b := r.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams produced %d identical draws", same)
	}
}

func TestRNGUniformity(t *testing.T) {
	// Property: Intn(n) covers all residues roughly uniformly.
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		counts := make([]int, 8)
		for i := 0; i < 8000; i++ {
			counts[r.Intn(8)]++
		}
		for _, c := range counts {
			if c < 800 || c > 1200 { // expected 1000 each
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.Add(0, "x", "y") // must not panic
	if tr.Len() != 0 || tr.Events() != nil || tr.String() != "" {
		t.Fatal("nil trace not empty")
	}
	if tr.Contains("x", "y") {
		t.Fatal("nil trace Contains returned true")
	}
	tr.Disable() // must not panic
}

func TestTraceRecordsAndFilters(t *testing.T) {
	tr := NewTrace()
	tr.Add(0, "P0", "issue read block %d", 3)
	tr.Add(1, "Bank1", "serve")
	tr.Add(2, "P0", "receive word %d", 0)
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	p0 := tr.Filter("P0")
	if len(p0) != 2 {
		t.Fatalf("Filter(P0) = %d events, want 2", len(p0))
	}
	if !tr.Contains("P0", "issue read") {
		t.Fatal("Contains(P0, issue read) = false")
	}
	if tr.Contains("Bank1", "issue") {
		t.Fatal("Contains(Bank1, issue) = true, want false")
	}
}

func TestTraceDisable(t *testing.T) {
	tr := NewTrace()
	tr.Add(0, "a", "one")
	tr.Disable()
	tr.Add(1, "a", "two")
	if tr.Len() != 1 {
		t.Fatalf("Len = %d after disable, want 1", tr.Len())
	}
}

func TestTraceEventString(t *testing.T) {
	e := Event{Slot: 7, Who: "P1", What: "abort"}
	if got := e.String(); got != "   7 P1: abort" {
		t.Fatalf("Event.String() = %q", got)
	}
}

func TestTraceStringAndEvents(t *testing.T) {
	tr := NewTrace()
	tr.Add(3, "P1", "did a thing")
	out := tr.String()
	if out != "   3 P1: did a thing\n" {
		t.Fatalf("String() = %q", out)
	}
	if len(tr.Events()) != 1 {
		t.Fatal("Events wrong")
	}
	if tr.Filter("nobody") != nil {
		t.Fatal("Filter of absent who should be empty")
	}
}
