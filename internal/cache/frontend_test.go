package cache

import (
	"bytes"
	"fmt"
	"testing"

	"cfm/internal/consistency"
	"cfm/internal/memory"
	"cfm/internal/sim"
)

// feWorld wires two front-ends over one protocol.
func feWorld(t *testing.T, mode Ordering) (*Frontend, *Frontend, *sim.Clock) {
	t.Helper()
	c := New(Config{Processors: 4, Lines: 4, RetryDelay: 1}, nil)
	clk := sim.NewClock()
	f0 := NewFrontend(c, clk, 0, mode)
	f1 := NewFrontend(c, clk, 2, mode)
	clk.Register(NewFrontendGroup(f0, f1))
	clk.Register(c)
	clk.RegisterPrio(sim.TickerFunc(func(tt sim.Slot, ph sim.Phase) {
		if ph == sim.PhaseUpdate {
			if err := c.CheckCoherence(); err != nil {
				t.Fatalf("slot %d: %v", tt, err)
			}
		}
	}), 10)
	return f0, f1, clk
}

func settleFE(t *testing.T, clk *sim.Clock, fes ...*Frontend) {
	t.Helper()
	pred := func() bool {
		for _, f := range fes {
			if !f.Idle() {
				return false
			}
		}
		return true
	}
	if _, ok := clk.RunUntil(pred, 100000); !ok {
		t.Fatal("front-ends did not drain")
	}
}

func TestStrictOrderSatisfiesSequential(t *testing.T) {
	f0, f1, clk := feWorld(t, StrictOrder)
	f0.Store(0, 0, 1)
	f0.Load(1, 0, nil)
	f0.Store(2, 0, 3)
	f0.Load(0, 0, nil)
	f1.Store(1, 1, 9)
	f1.Load(2, 1, nil)
	settleFE(t, clk, f0, f1)
	e := Execution(f0, f1)
	if err := consistency.Check(consistency.Sequential, e); err != nil {
		t.Fatalf("strict-order execution violates SC: %v", err)
	}
}

// TestBufferedOrderRelaxesSC: with a write buffer, a load performs before
// a program-order-earlier store — the execution violates SC but
// satisfies PC (Condition 2.2), exactly the §2.2.2 relaxation.
func TestBufferedOrderRelaxesSC(t *testing.T) {
	f0, _, clk := feWorld(t, BufferedOrder)
	f0.Store(0, 0, 1)  // enters the write buffer
	f0.Load(1, 0, nil) // bypasses it
	settleFE(t, clk, f0)
	e := Execution(f0)
	if err := consistency.Check(consistency.Processor, e); err != nil {
		t.Fatalf("buffered execution violates PC: %v", err)
	}
	if err := consistency.Check(consistency.Sequential, e); err == nil {
		t.Fatal("buffered execution unexpectedly satisfies SC (load did not bypass store)")
	}
}

// TestBufferedStoresStayInOrder: PC requires stores from one processor
// to be observed in issue order; the FIFO write buffer guarantees it.
func TestBufferedStoresStayInOrder(t *testing.T) {
	f0, _, clk := feWorld(t, BufferedOrder)
	for i := 0; i < 5; i++ {
		f0.Store(i%3, 0, memory.Word(i))
	}
	settleFE(t, clk, f0)
	if err := consistency.Check(consistency.Processor, Execution(f0)); err != nil {
		t.Fatalf("buffered stores violate PC: %v", err)
	}
}

// TestWeakOrderRelaxesPC: the weak front-end drains its buffer out of
// order — store-store reordering violates PC but satisfies WC between
// synchronization points.
func TestWeakOrderRelaxesPC(t *testing.T) {
	f0, _, clk := feWorld(t, WeakOrder)
	f0.Store(0, 0, 1)
	f0.Store(1, 0, 2) // drains before the first (LIFO buffer)
	settleFE(t, clk, f0)
	e := Execution(f0)
	if err := consistency.Check(consistency.Weak, e); err != nil {
		t.Fatalf("weak execution violates WC: %v", err)
	}
	if err := consistency.Check(consistency.Processor, e); err == nil {
		t.Fatal("weak execution unexpectedly satisfies PC (stores did not reorder)")
	}
}

// TestSyncFencesWeakOrder: a Sync drains everything before performing
// and blocks everything after — the execution with syncs satisfies WC.
func TestSyncFencesWeakOrder(t *testing.T) {
	f0, _, clk := feWorld(t, WeakOrder)
	f0.Store(0, 0, 1)
	f0.Store(1, 0, 2)
	f0.Sync(3)
	f0.Store(2, 0, 3)
	f0.Load(0, 0, nil)
	settleFE(t, clk, f0)
	e := Execution(f0)
	if err := consistency.Check(consistency.Weak, e); err != nil {
		t.Fatalf("fenced weak execution violates WC: %v", err)
	}
	// The sync must have performed after both earlier stores and before
	// both later accesses.
	var syncAt, maxBefore, minAfter int64
	minAfter = 1 << 62
	for _, op := range e.Ops {
		switch {
		case op.Kind == consistency.Sync:
			syncAt = op.PerformedAt
		case op.Index < 2 && op.PerformedAt > maxBefore:
			maxBefore = op.PerformedAt
		case op.Index > 2 && op.PerformedAt < minAfter:
			minAfter = op.PerformedAt
		}
	}
	if !(maxBefore < syncAt && syncAt < minAfter) {
		t.Fatalf("sync at %d not between %d and %d", syncAt, maxBefore, minAfter)
	}
}

// TestStoreForwarding: a load of a buffered store's word observes the
// buffered value without a memory access.
func TestStoreForwarding(t *testing.T) {
	f0, _, clk := feWorld(t, BufferedOrder)
	var got memory.Word
	f0.Store(0, 1, 42)
	f0.Load(0, 1, func(v memory.Word) { got = v })
	settleFE(t, clk, f0)
	if got != 42 {
		t.Fatalf("forwarded load = %d, want 42", got)
	}
}

// TestLoadsObserveCommittedStores: after draining, another processor
// sees the buffered stores' values through the coherence protocol.
func TestLoadsObserveCommittedStores(t *testing.T) {
	f0, f1, clk := feWorld(t, BufferedOrder)
	f0.Store(0, 0, 7)
	settleFE(t, clk, f0)
	var got memory.Word
	f1.Load(0, 0, func(v memory.Word) { got = v })
	settleFE(t, clk, f1)
	if got != 7 {
		t.Fatalf("remote load = %d, want 7", got)
	}
}

// TestAllModesProduceCoherentData: whatever the ordering discipline, the
// same program yields the same final memory contents (per-word last
// writer), since coherence is below the ordering layer.
func TestAllModesProduceCoherentData(t *testing.T) {
	for _, mode := range []Ordering{StrictOrder, BufferedOrder, WeakOrder} {
		f0, _, clk := feWorld(t, mode)
		f0.Store(0, 0, 1)
		f0.Store(0, 1, 2)
		f0.Sync(3)
		settleFE(t, clk, f0)
		// Find the coherent value.
		data := f0.c.CachedData(0, 0)
		if data == nil {
			data = f0.c.PeekMemory(0)
		}
		if data[0] != 1 || data[1] != 2 {
			t.Fatalf("mode %v: block = %v", mode, data)
		}
	}
}

func TestOrderingString(t *testing.T) {
	if StrictOrder.String() != "strict" || BufferedOrder.String() != "buffered" || WeakOrder.String() != "weak" {
		t.Fatal("ordering strings wrong")
	}
	mustOrdering(WeakOrder)
	defer func() {
		if recover() == nil {
			t.Fatal("mustOrdering accepted junk")
		}
	}()
	mustOrdering(Ordering(9))
}

// TestReleaseOrderRelaxesWeak: under ReleaseOrder, an ACQUIRE need not
// wait for earlier ordinary stores (still sitting in the write buffer) —
// the execution violates WC's condition 2.3-2 but satisfies RC's 2.4.
func TestReleaseOrderRelaxesWeak(t *testing.T) {
	f0, _, clk := feWorld(t, ReleaseOrder)
	f0.Store(0, 0, 1) // buffered
	f0.Acquire(3)     // performs without draining the buffer
	settleFE(t, clk, f0)
	e := Execution(f0)
	if err := consistency.Check(consistency.Release, e); err != nil {
		t.Fatalf("release-order execution violates RC: %v", err)
	}
	if err := consistency.Check(consistency.Weak, e); err == nil {
		t.Fatal("release-order execution unexpectedly satisfies WC (acquire waited for the store)")
	}
}

// TestReleaseWaitsForPreviousOrdinary: the other half of Condition 2.4 —
// a RELEASE must not perform before earlier ordinary accesses.
func TestReleaseWaitsForPreviousOrdinary(t *testing.T) {
	f0, _, clk := feWorld(t, ReleaseOrder)
	f0.Store(0, 0, 1)
	f0.Store(1, 0, 2)
	f0.Release(3)
	settleFE(t, clk, f0)
	e := Execution(f0)
	if err := consistency.Check(consistency.Release, e); err != nil {
		t.Fatalf("RC violated: %v", err)
	}
	// The release's performed time is after both stores'.
	var releaseAt int64 = -1
	var maxStore int64
	for _, op := range e.Ops {
		switch op.Kind {
		case consistency.Release_:
			releaseAt = op.PerformedAt
		case consistency.Store:
			if op.PerformedAt > maxStore {
				maxStore = op.PerformedAt
			}
		}
	}
	if releaseAt <= maxStore {
		t.Fatalf("release at %d did not wait for stores (max %d)", releaseAt, maxStore)
	}
}

// TestAcquireReleaseAsFullSyncElsewhere: under non-RC disciplines,
// Acquire and Release behave as full Syncs, so the execution satisfies
// WC too.
func TestAcquireReleaseAsFullSyncElsewhere(t *testing.T) {
	f0, _, clk := feWorld(t, WeakOrder)
	f0.Store(0, 0, 1)
	f0.Acquire(3)
	f0.Store(1, 0, 2)
	f0.Release(3)
	settleFE(t, clk, f0)
	if err := consistency.Check(consistency.Weak, Execution(f0)); err != nil {
		t.Fatalf("WC violated with full-sync acquire/release: %v", err)
	}
}

// TestFrontendGroupSaveFailsOnLoadCallback pins where a load callback,
// which nothing can rebuild, is refused: at Checkpoint, whether the load
// is still queued or already in flight. The same program without the
// callback checkpoints and resumes to the same execution.
func TestFrontendGroupSaveFailsOnLoadCallback(t *testing.T) {
	build := func(done func(memory.Word)) (*Frontend, *sim.Clock) {
		c := New(Config{Processors: 4, Lines: 4, RetryDelay: 1}, nil)
		clk := sim.NewClock()
		fe := NewFrontend(c, clk, 0, StrictOrder)
		clk.Register(NewFrontendGroup(fe))
		clk.Register(c)
		fe.Store(0, 0, 1)
		fe.Load(1, 0, done)
		return fe, clk
	}
	loadInFlight := func(fe *Frontend) bool { return fe.busy && fe.pending.kind == consistency.Load }
	fe, clk := build(func(memory.Word) {})
	clk.Run(1)
	if fe.program.Empty() {
		t.Fatal("the load left the program queue in the first slot")
	}
	var buf bytes.Buffer
	if err := clk.Checkpoint(&buf); err == nil {
		t.Fatalf("checkpoint of a queued load with a callback succeeded (%d bytes)", buf.Len())
	}
	if _, ok := clk.RunUntil(func() bool { return loadInFlight(fe) }, 1000); !ok {
		t.Fatal("the load never went in flight")
	}
	buf.Reset()
	if err := clk.Checkpoint(&buf); err == nil {
		t.Fatalf("checkpoint of an in-flight load with a callback succeeded (%d bytes)", buf.Len())
	}

	ref, rclk := build(nil)
	settleFE(t, rclk, ref)
	src, clk := build(nil)
	if _, ok := clk.RunUntil(func() bool { return loadInFlight(src) }, 1000); !ok {
		t.Fatal("the load never went in flight")
	}
	buf.Reset()
	if err := clk.Checkpoint(&buf); err != nil {
		t.Fatalf("checkpoint without callbacks: %v", err)
	}
	dst, dclk := build(nil)
	if err := dclk.Restore(&buf); err != nil {
		t.Fatalf("restore: %v", err)
	}
	settleFE(t, dclk, dst)
	if got, want := fmt.Sprint(dst.Ops), fmt.Sprint(ref.Ops); got != want {
		t.Fatalf("resumed execution %s, want %s", got, want)
	}
}

// TestFrontendIsNotAComponent: a front-end is ticked and checkpointed
// only as a member of a FrontendGroup, so it must not satisfy the
// engine's component interfaces on its own.
func TestFrontendIsNotAComponent(t *testing.T) {
	var fe any = &Frontend{}
	if _, ok := fe.(sim.Ticker); ok {
		t.Fatal("*Frontend implements sim.Ticker; register a FrontendGroup instead")
	}
	if _, ok := fe.(sim.Stater); ok {
		t.Fatal("*Frontend implements sim.Stater; the group checkpoints its members")
	}
}
