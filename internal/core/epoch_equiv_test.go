package core

import (
	"bytes"
	"fmt"
	"testing"

	"cfm/internal/flight"
	"cfm/internal/memory"
	"cfm/internal/sim"
)

// driveCFM runs a deterministic access script against a CFMemory on the
// given engine. Accesses are begun only at Run boundaries — never from a
// ticker — so a plan containing nothing but the CFMemory stays
// all-shardable and, on a batching engine, actually batches. The chunk
// lengths are deliberately not multiples of the episode length, so
// accesses stay in flight across episode truncations. The memory
// records its spans into rec.
func driveCFM(eng sim.Engine, cfg Config) (m *CFMemory, tr *sim.Trace, rec *flight.Recorder) {
	tr = sim.NewTrace()
	rec = flight.NewRecorder(0)
	m = NewCFMemory(cfg, tr)
	m.RecordFlight(rec)
	eng.Register(m)
	for blk := 0; blk < 4; blk++ {
		b := make(memory.Block, cfg.Banks())
		for i := range b {
			b[i] = memory.Word(blk*100 + i)
		}
		m.PokeBlock(blk, b)
	}
	now := sim.Slot(0)
	chunk := func(n int64) {
		eng.Run(n)
		now += sim.Slot(n)
	}
	// All processors read concurrently — the headline conflict-free
	// property; a conflict panics inside the (possibly folded) replay.
	for p := 0; p < cfg.Processors; p++ {
		m.StartRead(now, p, p%4, nil)
	}
	chunk(int64(cfg.BlockTime()) + 3)
	// Concurrent writes, flights spanning an episode edge.
	for p := 0; p < cfg.Processors; p++ {
		b := make(memory.Block, cfg.Banks())
		for i := range b {
			b[i] = memory.Word(p*1000 + i)
		}
		m.StartWrite(now, p, (p+1)%4, b, nil)
	}
	chunk(3) // mid-flight truncation
	chunk(int64(cfg.BlockTime()))
	// A quiet tail (the memory parks), then a fresh wave after the park.
	chunk(7)
	for p := 0; p < cfg.Processors; p++ {
		m.StartRead(now, p, (p+2)%4, nil)
	}
	chunk(int64(cfg.BlockTime()) + 2)
	return m, tr, rec
}

// TestCFMemoryEpochEquivalence pins the batched CFMemory against the
// serial oracle: completions, block contents, the order-sensitive trace
// digest, the span stream, and the full snapshot byte stream must all
// come out identical
// when the engine folds whole episodes through FinishEpoch.
func TestCFMemoryEpochEquivalence(t *testing.T) {
	for _, cfg := range []Config{cfg41(), cfg42(), {Processors: 8, BankCycle: 2, WordWidth: 16}} {
		sm, str, srec := driveCFM(sim.NewClock(), cfg)

		pc := sim.NewParallelClock(2)
		pc.SetEpochBatch(4)
		bm, btr, brec := driveCFM(pc, cfg)
		pc.Close()

		if bm.Completed != sm.Completed {
			t.Fatalf("%+v: batched completed %d accesses, serial %d", cfg, bm.Completed, sm.Completed)
		}
		for blk := 0; blk < 4; blk++ {
			if got, want := bm.PeekBlock(blk), sm.PeekBlock(blk); !got.Equal(want) {
				t.Fatalf("%+v: block %d = %v under batching, want %v", cfg, blk, got, want)
			}
		}
		if btr.Digest() != str.Digest() {
			t.Fatalf("%+v: trace digest diverged under batching:\nbatched:\n%s\nserial:\n%s",
				cfg, btr, str)
		}
		// The spans pass FinishEpoch's slot-major merge of the staged
		// bank-service and retire events; the stream must not move.
		if srec.Len() == 0 {
			t.Fatalf("%+v: no spans recorded: the comparison is vacuous", cfg)
		}
		if !bytes.Equal(flight.Encode(brec.Events()), flight.Encode(srec.Events())) {
			t.Fatalf("%+v: span stream diverged under batching:\nbatched: %v\nserial:  %v",
				cfg, brec.Events(), srec.Events())
		}
		benc, senc := sim.NewStateEncoder(), sim.NewStateEncoder()
		bm.SaveState(benc)
		sm.SaveState(senc)
		if benc.Err() != nil || senc.Err() != nil {
			t.Fatalf("%+v: snapshot failed: %v / %v", cfg, benc.Err(), senc.Err())
		}
		if !bytes.Equal(benc.Bytes(), senc.Bytes()) {
			t.Fatalf("%+v: snapshot bytes diverged under batching", cfg)
		}
		// Non-vacuity: the plan must actually have amortized slots into
		// episodes — otherwise this test only ran one-slot episodes.
		if pc.Epochs() >= pc.SlotsFired() {
			t.Fatalf("%+v: plan never batched: %d epochs over %d fired slots", cfg, pc.Epochs(), pc.SlotsFired())
		}
	}
}

// TestCFMemoryBeginDuringFoldPanics pins the begin() guard: a done
// callback that immediately starts the next access would issue into the
// middle of an already-ticked episode; CFMemory must refuse loudly
// rather than corrupt the AT-space schedule.
func TestCFMemoryBeginDuringFoldPanics(t *testing.T) {
	cfg := cfg42()
	pc := sim.NewParallelClock(2)
	pc.SetEpochBatch(4)
	m := NewCFMemory(cfg, nil)
	pc.Register(m)
	defer pc.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("StartRead from a done callback during an epoch fold did not panic")
		}
	}()
	m.StartRead(0, 0, 0, func(memory.Block) {
		m.StartRead(sim.Slot(cfg.BlockTime()), 1, 1, nil)
	})
	pc.Run(int64(cfg.BlockTime()) + 4)
}

// TestCFMemoryDoneChainOneSlotEpisodes: at SetEpochBatch(1) a pool folds
// every slot on its own, where the one-worker walk's last finalizer of
// the slot sits, so a done callback may begin the next access there. A
// chain of five reads, each begun by the previous one's callback, must
// complete on 2 workers exactly as on one.
func TestCFMemoryDoneChainOneSlotEpisodes(t *testing.T) {
	cfg := cfg42()
	const reads = 5
	run := func(eng sim.Engine) (*CFMemory, []sim.Slot) {
		m := NewCFMemory(cfg, nil)
		eng.Register(m)
		var finished []sim.Slot
		var read func(i int, at sim.Slot)
		read = func(i int, at sim.Slot) {
			var done sim.Slot
			done = m.StartRead(at, i%cfg.Processors, i%4, func(memory.Block) {
				finished = append(finished, done)
				if i+1 < reads {
					read(i+1, done+1)
				}
			})
		}
		read(0, 0)
		eng.Run(int64(reads*(cfg.BlockTime()+1)) + 4)
		return m, finished
	}
	sm, want := run(sim.NewClock())
	if len(want) != reads {
		t.Fatalf("one worker completed %d of %d chained reads", len(want), reads)
	}
	pc := sim.NewParallelClock(2)
	pc.SetEpochBatch(1)
	defer pc.Close()
	pm, got := run(pc)
	if fmt.Sprint(got) != fmt.Sprint(want) || pm.Completed != sm.Completed {
		t.Fatalf("2 workers at K=1 completed reads at %v (%d in all), one worker at %v (%d)",
			got, pm.Completed, want, sm.Completed)
	}
	if pc.Epochs() != pc.SlotsFired() {
		t.Fatalf("%d episodes over %d slots: the run did not take one-slot episodes on the pool",
			pc.Epochs(), pc.SlotsFired())
	}
}

// TestPartialSyncScalingShapes pins the two checks of the report's
// engine synchronization scaling entry on its fleet shapes (n128/m16
// and n1024/m128 at rate 0.2), over fewer slots: at 2 and 4 workers,
// one-slot and multi-slot episodes leave the Partial in the state the
// one-worker clock does; a one-slot run (the "per-slot" cells) pays
// exactly one episode and two crossings per slot, the figure the report
// prints; and it crosses the barrier at least 4x as often per slot as
// a batched one.
func TestPartialSyncScalingShapes(t *testing.T) {
	const slots = 400
	fleet := func(n, m int) *Partial {
		return NewPartial(PartialConfig{Processors: n, Modules: m, BlockWords: 2 * (n / m), BankCycle: 2,
			Locality: 0.9, AccessRate: 0.2, RetryMean: 4, Seed: 42})
	}
	state := func(p *Partial) []byte {
		enc := sim.NewStateEncoder()
		p.SaveState(enc)
		if enc.Err() != nil {
			t.Fatal(enc.Err())
		}
		return enc.Bytes()
	}
	for _, sh := range []struct{ n, m int }{{128, 16}, {1024, 128}} {
		serial := fleet(sh.n, sh.m)
		clk := sim.NewClock()
		clk.Register(serial)
		clk.Run(slots)
		want := state(serial)
		for _, w := range []int{2, 4} {
			var perSlot [2]float64
			for mi, k := range []int{1, sim.EpochAuto} {
				p := fleet(sh.n, sh.m)
				pc := sim.NewParallelClock(w)
				pc.SetEpochBatch(k)
				pc.Register(p)
				pc.Run(slots)
				pc.Close()
				if !bytes.Equal(state(p), want) {
					t.Errorf("n%d/m%d, %d workers, epoch batch %d: Partial state diverged from the one-worker clock", sh.n, sh.m, w, k)
				}
				perSlot[mi] = float64(pc.BarrierCrossings()) / slots
				if k == 1 && (pc.Epochs() != slots || pc.BarrierCrossings() != 2*slots) {
					t.Errorf("n%d/m%d, %d workers, epoch batch 1: %d episodes and %d crossings over %d slots, want 1 and 2 per slot",
						sh.n, sh.m, w, pc.Epochs(), pc.BarrierCrossings(), slots)
				}
			}
			if perSlot[0] < 4*perSlot[1] || perSlot[1] == 0 {
				t.Errorf("n%d/m%d, %d workers: %.3f crossings per slot per-slot, %.3f batched; want batched nonzero and at least 4x fewer",
					sh.n, sh.m, w, perSlot[0], perSlot[1])
			}
		}
	}
}
