package core

import (
	"bytes"
	"strings"
	"testing"

	"cfm/internal/memory"
	"cfm/internal/sim"
)

// checkpointAfter runs eng for slots and returns its checkpoint's byte
// count and error.
func checkpointAfter(t *testing.T, eng sim.Engine, slots int64) (int, error) {
	t.Helper()
	eng.Run(slots)
	var buf bytes.Buffer
	err := eng.Checkpoint(&buf)
	return buf.Len(), err
}

// TestCFMemorySaveFailsOnUnrebindableCallback pins where a completion
// callback that nothing can rebuild is refused: at Checkpoint, not at
// the later Restore, so a run never writes a snapshot no restore accepts.
func TestCFMemorySaveFailsOnUnrebindableCallback(t *testing.T) {
	m := NewCFMemory(cfg42(), nil)
	clk := sim.NewClock()
	clk.Register(m)
	m.StartRead(0, 0, 0, func(memory.Block) {})
	n, err := checkpointAfter(t, clk, 2)
	if err == nil {
		t.Fatalf("checkpoint of an in-flight access with a callback and no rebinder succeeded (%d bytes)", n)
	}
	if !strings.Contains(err.Error(), "SetDoneRebinder") {
		t.Fatalf("checkpoint error %q does not name the missing rebinder", err)
	}
}

// TestCFMemoryRebinderRoundTrip is the other side: with a rebinder
// installed the same checkpoint succeeds, and the restored access
// completes through the rebuilt callback with the block it read.
func TestCFMemoryRebinderRoundTrip(t *testing.T) {
	cfg := cfg42()
	want := make(memory.Block, cfg.Banks())
	for i := range want {
		want[i] = memory.Word(10 + i)
	}
	build := func(got *memory.Block) (*CFMemory, *sim.Clock) {
		m := NewCFMemory(cfg, nil)
		m.PokeBlock(3, want)
		m.SetDoneRebinder(func(proc int, kind AccessKind, offset int, start sim.Slot) func(memory.Block) {
			if proc != 1 || kind != ReadBlock || offset != 3 || start != 0 {
				return nil
			}
			return func(b memory.Block) { *got = b.Clone() }
		})
		clk := sim.NewClock()
		clk.Register(m)
		return m, clk
	}
	var first memory.Block
	src, clk := build(&first)
	src.StartRead(0, 1, 3, func(b memory.Block) { first = b.Clone() })
	clk.Run(2)
	var buf bytes.Buffer
	if err := clk.Checkpoint(&buf); err != nil {
		t.Fatalf("checkpoint with a rebinder installed: %v", err)
	}
	var got memory.Block
	_, dst := build(&got)
	if err := dst.Restore(&buf); err != nil {
		t.Fatalf("restore: %v", err)
	}
	dst.Run(int64(cfg.BlockTime()) + 2)
	if !got.Equal(want) {
		t.Fatalf("restored access delivered %v, want %v", got, want)
	}
}

// TestClusterSaveFailsOnLocalCallback: a local access's callback belongs
// to the caller, and the members' rebinder rebuilds only the
// free-division replies, so saving one fails at Checkpoint.
func TestClusterSaveFailsOnLocalCallback(t *testing.T) {
	cs, clk := newClusterSystem(t)
	cs.LocalRead(0, 1, 2, 0, func(memory.Block) {})
	if n, err := checkpointAfter(t, clk, 2); err == nil {
		t.Fatalf("checkpoint of a local access with a callback succeeded (%d bytes)", n)
	}
	// Without the callback the same access checkpoints.
	cs, clk = newClusterSystem(t)
	cs.LocalRead(0, 1, 2, 0, nil)
	if _, err := checkpointAfter(t, clk, 2); err != nil {
		t.Fatalf("checkpoint of a local access without a callback: %v", err)
	}
}
