package att

import (
	"bytes"
	"testing"
	"testing/quick"

	"cfm/internal/memory"
	"cfm/internal/sim"
)

// uniform returns an m-word block with every word equal to v — writers in
// these tests write uniform blocks so any torn (mixed-version) result is
// immediately visible.
func uniform(m int, v memory.Word) memory.Block {
	b := make(memory.Block, m)
	for i := range b {
		b[i] = v
	}
	return b
}

// isUniform reports whether all words of b are equal, returning the value.
func isUniform(b memory.Block) (memory.Word, bool) {
	for _, w := range b[1:] {
		if w != b[0] {
			return 0, false
		}
	}
	return b[0], true
}

// harness drives a Tracked memory with scripted operations.
type harness struct {
	tr  *Tracked
	clk *sim.Clock
	// script[slot] = operations to issue at that slot.
	script map[sim.Slot][]func(t sim.Slot)
}

func newHarness(m int, pri Priority) *harness {
	h := &harness{tr: NewTracked(m, pri, nil), clk: sim.NewClock(), script: map[sim.Slot][]func(sim.Slot){}}
	h.clk.Register(sim.TickerFunc(func(t sim.Slot, ph sim.Phase) {
		if ph != sim.PhaseIssue {
			return
		}
		for _, f := range h.script[t] {
			f(t)
		}
	}))
	h.clk.Register(h.tr)
	return h
}

func (h *harness) at(slot sim.Slot, f func(t sim.Slot)) {
	h.script[slot] = append(h.script[slot], f)
}

// procForBank returns the processor whose AT-space division reaches bank
// at the given slot (c = 1): p = (bank − t) mod m.
func procForBank(m int, t sim.Slot, bank int) int {
	v := (bank - int(t%sim.Slot(m))) % m
	if v < 0 {
		v += m
	}
	return v
}

func TestProcForBank(t *testing.T) {
	// Sanity for the test helper itself.
	tr := NewTracked(8, LatestWins, nil)
	for tt := sim.Slot(0); tt < 16; tt++ {
		for b := 0; b < 8; b++ {
			p := procForBank(8, tt, b)
			if got := tr.bankAt(tt, p); got != b {
				t.Fatalf("procForBank(%d,%d) = %d but bankAt = %d", tt, b, p, got)
			}
		}
	}
}

func TestWriteAloneCompletesInMSlots(t *testing.T) {
	h := newHarness(8, LatestWins)
	var res *Result
	h.at(0, func(tt sim.Slot) {
		h.tr.StartWrite(tt, 2, 5, uniform(8, 42), func(r Result) { res = &r })
	})
	h.clk.Run(20)
	if res == nil {
		t.Fatal("write never finished")
	}
	if res.Outcome != Completed {
		t.Fatalf("outcome = %v, want Completed", res.Outcome)
	}
	if res.At != 7 {
		t.Fatalf("write completed at slot %d, want 7 (m slots from 0)", res.At)
	}
	if got := h.tr.PeekBlock(5); !got.Equal(uniform(8, 42)) {
		t.Fatalf("memory = %v", got)
	}
}

func TestReadAloneCompletesInMSlots(t *testing.T) {
	h := newHarness(8, LatestWins)
	h.tr.PokeBlock(3, uniform(8, 9))
	var res *Result
	h.at(2, func(tt sim.Slot) {
		h.tr.StartRead(tt, 0, 3, func(r Result) { res = &r })
	})
	h.clk.Run(20)
	if res == nil || res.Outcome != Completed {
		t.Fatal("read did not complete")
	}
	if res.At != 9 {
		t.Fatalf("read completed at %d, want 9", res.At)
	}
	if !res.Block.Equal(uniform(8, 9)) {
		t.Fatalf("read %v", res.Block)
	}
	if res.Restarts != 0 {
		t.Fatalf("unconflicted read restarted %d times", res.Restarts)
	}
}

// TestWriteAbortFig43 reproduces Fig. 4.3: write a issued at slot 0
// starting at bank 1, write b issued at slot 1 starting at bank 4, same
// block. a is aborted by bank 4 at slot 3; b completes; the final block
// is entirely b's.
func TestWriteAbortFig43(t *testing.T) {
	h := newHarness(8, LatestWins)
	pa := procForBank(8, 0, 1) // a starts at bank 1 at slot 0
	pb := procForBank(8, 1, 4) // b starts at bank 4 at slot 1
	var ra, rb *Result
	h.at(0, func(tt sim.Slot) { h.tr.StartWrite(tt, pa, 7, uniform(8, 0xa), func(r Result) { ra = &r }) })
	h.at(1, func(tt sim.Slot) { h.tr.StartWrite(tt, pb, 7, uniform(8, 0xb), func(r Result) { rb = &r }) })
	h.clk.Run(20)
	if ra == nil || ra.Outcome != Aborted {
		t.Fatalf("write a: %+v, want aborted", ra)
	}
	if ra.At != 3 {
		t.Fatalf("write a aborted at slot %d, want 3 (at bank 4)", ra.At)
	}
	if rb == nil || rb.Outcome != Completed {
		t.Fatalf("write b: %+v, want completed", rb)
	}
	if got := h.tr.PeekBlock(7); !got.Equal(uniform(8, 0xb)) {
		t.Fatalf("final block %v, want all b", got)
	}
}

// TestSimultaneousWritesFig44 reproduces Fig. 4.4: writes c and d issued
// at the same slot at banks 1 and 5; c is aborted at slot 4 when it
// reaches bank 5 (d has not passed bank 0 yet when... d proceeds because
// it HAS passed bank 0 and excludes the simultaneous entry). Exactly d
// survives and the block is entirely d's.
func TestSimultaneousWritesFig44(t *testing.T) {
	h := newHarness(8, LatestWins)
	pc := procForBank(8, 0, 1)
	pd := procForBank(8, 0, 5)
	var rc, rd *Result
	h.at(0, func(tt sim.Slot) { h.tr.StartWrite(tt, pc, 7, uniform(8, 0xc), func(r Result) { rc = &r }) })
	h.at(0, func(tt sim.Slot) { h.tr.StartWrite(tt, pd, 7, uniform(8, 0xd), func(r Result) { rd = &r }) })
	h.clk.Run(20)
	if rc == nil || rc.Outcome != Aborted {
		t.Fatalf("write c: %+v, want aborted", rc)
	}
	if rc.At != 4 {
		t.Fatalf("write c aborted at slot %d, want 4 (reaching bank 5)", rc.At)
	}
	if rd == nil || rd.Outcome != Completed {
		t.Fatalf("write d: %+v, want completed", rd)
	}
	if got := h.tr.PeekBlock(7); !got.Equal(uniform(8, 0xd)) {
		t.Fatalf("final block %v, want all d", got)
	}
}

// TestReadRestartFig45 reproduces Fig. 4.5: read e starting at bank 1 at
// slot 0 detects write f (started at bank 3 at slot 0) when reaching bank
// 3, restarts there, and returns f's version.
func TestReadRestartFig45(t *testing.T) {
	h := newHarness(8, LatestWins)
	h.tr.PokeBlock(7, uniform(8, 1)) // old version
	pe := procForBank(8, 0, 1)
	pf := procForBank(8, 0, 3)
	var re *Result
	h.at(0, func(tt sim.Slot) { h.tr.StartRead(tt, pe, 7, func(r Result) { re = &r }) })
	h.at(0, func(tt sim.Slot) { h.tr.StartWrite(tt, pf, 7, uniform(8, 2), nil) })
	h.clk.Run(30)
	if re == nil {
		t.Fatal("read never completed")
	}
	if re.Restarts == 0 {
		t.Fatal("read did not restart despite conflicting write")
	}
	if v, ok := isUniform(re.Block); !ok || v != 2 {
		t.Fatalf("read returned %v, want the new version (all 2)", re.Block)
	}
}

func TestReadOfDifferentOffsetNotDisturbed(t *testing.T) {
	h := newHarness(8, LatestWins)
	h.tr.PokeBlock(1, uniform(8, 5))
	var re *Result
	h.at(0, func(tt sim.Slot) { h.tr.StartRead(tt, 0, 1, func(r Result) { re = &r }) })
	h.at(0, func(tt sim.Slot) { h.tr.StartWrite(tt, 3, 2, uniform(8, 6), nil) })
	h.clk.Run(20)
	if re == nil || re.Restarts != 0 {
		t.Fatalf("read of a different block restarted: %+v", re)
	}
}

func TestWritesDifferentOffsetsAllComplete(t *testing.T) {
	h := newHarness(8, LatestWins)
	completed := 0
	for p := 0; p < 8; p++ {
		p := p
		h.at(0, func(tt sim.Slot) {
			h.tr.StartWrite(tt, p, p, uniform(8, memory.Word(p)), func(r Result) {
				if r.Outcome == Completed {
					completed++
				}
			})
		})
	}
	h.clk.Run(20)
	if completed != 8 {
		t.Fatalf("%d writes completed, want 8", completed)
	}
	for p := 0; p < 8; p++ {
		if got := h.tr.PeekBlock(p); !got.Equal(uniform(8, memory.Word(p))) {
			t.Fatalf("block %d = %v", p, got)
		}
	}
}

// TestWritesExactlyOneWinner is the §4.1.2 guarantee as a property: for
// any set of same-block writes issued within one period, the final block
// is a single writer's data, never a mixture.
func TestWritesExactlyOneWinner(t *testing.T) {
	f := func(seed uint64, nWritersRaw uint8) bool {
		const m = 8
		rng := sim.NewRNG(seed)
		nWriters := 2 + int(nWritersRaw)%5
		h := newHarness(m, LatestWins)
		h.tr.PokeBlock(0, uniform(m, 999))
		used := map[int]bool{}
		for w := 0; w < nWriters; w++ {
			slot := sim.Slot(rng.Intn(m))
			var p int
			for {
				p = rng.Intn(m)
				if !used[p] {
					used[p] = true
					break
				}
			}
			val := memory.Word(w + 1)
			h.at(slot, func(tt sim.Slot) { h.tr.StartWrite(tt, p, 0, uniform(m, val), nil) })
		}
		h.clk.Run(64)
		v, ok := isUniform(h.tr.PeekBlock(0))
		if !ok {
			t.Logf("seed %d: torn block %v", seed, h.tr.PeekBlock(0))
			return false
		}
		// The winner must be one of the writers (someone always wins).
		return v >= 1 && v <= memory.Word(nWriters)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestReadsNeverTorn: concurrent readers of a block being rewritten by
// uniform-block writers always observe a uniform block (version
// consistency, the whole point of §4.1.2).
func TestReadsNeverTorn(t *testing.T) {
	f := func(seed uint64) bool {
		const m = 8
		rng := sim.NewRNG(seed)
		h := newHarness(m, LatestWins)
		h.tr.PokeBlock(0, uniform(m, 100))
		// Half the processors write, half read, at random slots.
		ok := true
		for p := 0; p < m; p++ {
			p := p
			slot := sim.Slot(rng.Intn(2 * m))
			if p%2 == 0 {
				val := memory.Word(p + 1)
				h.at(slot, func(tt sim.Slot) { h.tr.StartWrite(tt, p, 0, uniform(m, val), nil) })
			} else {
				h.at(slot, func(tt sim.Slot) {
					h.tr.StartRead(tt, p, 0, func(r Result) {
						if _, u := isUniform(r.Block); !u {
							ok = false
						}
					})
				})
			}
		}
		h.clk.Run(200)
		if _, u := isUniform(h.tr.PeekBlock(0)); !u {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSwapAloneTakesTwoPhases(t *testing.T) {
	h := newHarness(8, EarliestWins)
	h.tr.PokeBlock(0, uniform(8, 7))
	var res *Result
	h.at(0, func(tt sim.Slot) {
		h.tr.StartSwap(tt, 0, 0, func(old memory.Block) memory.Block {
			return uniform(8, 8)
		}, func(r Result) { res = &r })
	})
	h.clk.Run(30)
	if res == nil || res.Outcome != Completed {
		t.Fatal("swap did not complete")
	}
	if !res.Block.Equal(uniform(8, 7)) {
		t.Fatalf("swap returned %v, want old value", res.Block)
	}
	if res.At != 15 {
		t.Fatalf("swap completed at %d, want 15 (two m-slot phases)", res.At)
	}
	if got := h.tr.PeekBlock(0); !got.Equal(uniform(8, 8)) {
		t.Fatalf("memory %v after swap", got)
	}
}

func TestSwapRequiresEarliestWins(t *testing.T) {
	h := newHarness(8, LatestWins)
	defer func() {
		if recover() == nil {
			t.Fatal("StartSwap in LatestWins mode did not panic")
		}
	}()
	h.tr.StartSwap(0, 0, 0, func(b memory.Block) memory.Block { return b }, nil)
}

// TestSwapChainAtomicity: concurrent pure swaps on one block behave as if
// executed in some sequential order — the returned values plus the final
// block form a permutation chain of {initial, v1, ..., vk}.
func TestSwapChainAtomicity(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		const m = 8
		rng := sim.NewRNG(seed)
		nSwaps := 2 + int(nRaw)%5
		h := newHarness(m, EarliestWins)
		h.tr.PokeBlock(0, uniform(m, 1000))
		returned := make([]memory.Word, 0, nSwaps)
		used := map[int]bool{}
		for i := 0; i < nSwaps; i++ {
			var p int
			for {
				p = rng.Intn(m)
				if !used[p] {
					used[p] = true
					break
				}
			}
			v := memory.Word(i + 1)
			slot := sim.Slot(rng.Intn(2 * m))
			h.at(slot, func(tt sim.Slot) {
				h.tr.StartSwap(tt, p, 0, func(memory.Block) memory.Block {
					return uniform(m, v)
				}, func(r Result) {
					val, u := isUniform(r.Block)
					if !u {
						val = 0xdead
					}
					returned = append(returned, val)
				})
			})
		}
		h.clk.Run(2000)
		if len(returned) != nSwaps {
			t.Logf("seed %d: only %d of %d swaps completed", seed, len(returned), nSwaps)
			return false
		}
		final, u := isUniform(h.tr.PeekBlock(0))
		if !u {
			return false
		}
		// Chain check: {returned values} ∪ {final} must equal
		// {1000, 1, ..., nSwaps} as multisets.
		want := map[memory.Word]int{1000: 1}
		for i := 1; i <= nSwaps; i++ {
			want[memory.Word(i)]++
		}
		got := map[memory.Word]int{final: 1}
		for _, v := range returned {
			got[v]++
		}
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestWriteRestartsOnSwapFig46d: a plain write that detects the write of
// a swap restarts rather than aborts, and eventually completes — the
// final value is the plain write's (it is serialized after the swap).
func TestWriteRestartsOnSwapFig46d(t *testing.T) {
	h := newHarness(8, EarliestWins)
	h.tr.PokeBlock(0, uniform(8, 1))
	var swapDone, writeDone *Result
	// Swap first (issued at slot 0), plain write while the swap's write
	// phase is active (swap write phase runs slots 8..15).
	h.at(0, func(tt sim.Slot) {
		h.tr.StartSwap(tt, 0, 0, func(memory.Block) memory.Block {
			return uniform(8, 2)
		}, func(r Result) { swapDone = &r })
	})
	h.at(9, func(tt sim.Slot) {
		h.tr.StartWrite(tt, 4, 0, uniform(8, 3), func(r Result) { writeDone = &r })
	})
	h.clk.Run(100)
	if swapDone == nil || swapDone.Outcome != Completed {
		t.Fatal("swap did not complete")
	}
	if writeDone == nil || writeDone.Outcome != Completed {
		t.Fatalf("plain write: %+v, want completed (restart, not abort)", writeDone)
	}
	if writeDone.Restarts == 0 {
		t.Fatal("plain write did not restart despite overlapping swap write phase")
	}
	if got := h.tr.PeekBlock(0); !got.Equal(uniform(8, 3)) {
		t.Fatalf("final block %v, want the write's value", got)
	}
}

// TestEarliestWinsWriteWriteAborts (Fig. 4.6f): in swap mode, the LATER
// plain write aborts when it detects an earlier one.
func TestEarliestWinsWriteWriteAborts(t *testing.T) {
	h := newHarness(8, EarliestWins)
	var r1, r2 *Result
	h.at(0, func(tt sim.Slot) { h.tr.StartWrite(tt, 0, 0, uniform(8, 1), func(r Result) { r1 = &r }) })
	h.at(2, func(tt sim.Slot) { h.tr.StartWrite(tt, 4, 0, uniform(8, 2), func(r Result) { r2 = &r }) })
	h.clk.Run(40)
	if r1 == nil || r1.Outcome != Completed {
		t.Fatalf("earlier write: %+v, want completed", r1)
	}
	if r2 == nil || r2.Outcome != Aborted {
		t.Fatalf("later write: %+v, want aborted", r2)
	}
	if got := h.tr.PeekBlock(0); !got.Equal(uniform(8, 1)) {
		t.Fatalf("final block %v, want the earlier write's value", got)
	}
}

// TestSwapSwapConflictRestarts (Fig. 4.6a/b): overlapping same-block
// swaps — staggered by a slot or issued in the same slot — one restarts,
// both eventually complete, atomically.
func TestSwapSwapConflictRestarts(t *testing.T) {
	for _, tc := range []struct {
		name   string
		q      int      // the second swapper (the first is processor 0)
		qStart sim.Slot // its issue slot (the first issues at slot 0)
	}{{"staggered", 3, 1}, {"simultaneous", 4, 0}} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(8, EarliestWins)
			h.tr.PokeBlock(0, uniform(8, 50))
			var done []memory.Word
			mkSwap := func(p int, v memory.Word) func(sim.Slot) {
				return func(tt sim.Slot) {
					h.tr.StartSwap(tt, p, 0, func(memory.Block) memory.Block {
						return uniform(8, v)
					}, func(r Result) {
						old, _ := isUniform(r.Block)
						done = append(done, old)
					})
				}
			}
			h.at(0, mkSwap(0, 51))
			h.at(tc.qStart, mkSwap(tc.q, 52))
			h.clk.Run(300)
			if len(done) != 2 {
				t.Fatalf("%d swaps completed, want 2", len(done))
			}
			final, u := isUniform(h.tr.PeekBlock(0))
			if !u {
				t.Fatalf("torn block %v", h.tr.PeekBlock(0))
			}
			// Chain: {done values, final} == {50, 51, 52}.
			seen := map[memory.Word]bool{final: true, done[0]: true, done[1]: true}
			for _, v := range []memory.Word{50, 51, 52} {
				if !seen[v] {
					t.Fatalf("chain broken: returned %v + final %v", done, final)
				}
			}
		})
	}
}

func TestDoubleStartPanics(t *testing.T) {
	h := newHarness(4, LatestWins)
	h.tr.StartWrite(0, 0, 0, uniform(4, 1), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("second op on busy processor did not panic")
		}
	}()
	h.tr.StartRead(0, 0, 0, nil)
}

func TestTrackedPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"small":    func() { NewTracked(1, LatestWins, nil) },
		"badWrite": func() { NewTracked(4, LatestWins, nil).StartWrite(0, 0, 0, uniform(3, 1), nil) },
		"badPoke":  func() { NewTracked(4, LatestWins, nil).PokeBlock(0, uniform(3, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestOpKindString(t *testing.T) {
	if OpWrite.String() != "write" || OpRead.String() != "read" || OpSwap.String() != "swap" {
		t.Fatal("OpKind strings wrong")
	}
}

func TestTraceRecordsAbort(t *testing.T) {
	tr := sim.NewTrace()
	h := &harness{tr: NewTracked(8, LatestWins, tr), clk: sim.NewClock(), script: map[sim.Slot][]func(sim.Slot){}}
	h.clk.Register(sim.TickerFunc(func(t sim.Slot, ph sim.Phase) {
		if ph != sim.PhaseIssue {
			return
		}
		for _, f := range h.script[t] {
			f(t)
		}
	}))
	h.clk.Register(h.tr)
	h.at(0, func(tt sim.Slot) { h.tr.StartWrite(tt, 0, 0, uniform(8, 1), nil) })
	h.at(1, func(tt sim.Slot) { h.tr.StartWrite(tt, 4, 0, uniform(8, 2), nil) })
	h.clk.Run(30)
	if !tr.Contains("P0", "write abort") {
		t.Fatalf("trace missing abort:\n%s", tr)
	}
}

// TestTrackedSaveFailsOnCompletionCallback: a completion callback has no
// rebinder, so Checkpoint refuses an in-flight operation carrying one;
// the same operation without a callback checkpoints.
func TestTrackedSaveFailsOnCompletionCallback(t *testing.T) {
	for _, done := range []func(Result){func(Result) {}, nil} {
		h := newHarness(4, EarliestWins)
		h.at(0, func(t sim.Slot) { h.tr.StartRead(t, 1, 0, done) })
		h.clk.Run(2)
		var buf bytes.Buffer
		err := h.clk.Checkpoint(&buf)
		if (err == nil) != (done == nil) {
			t.Fatalf("callback %v: checkpoint error %v", done != nil, err)
		}
	}
}
