package sim

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// workerCounts returns the worker counts every differential test sweeps.
func workerCounts() []int {
	return []int{1, 2, 4, runtime.GOMAXPROCS(0)}
}

// countingShardable is a Shardable that counts per-shard ticks and
// accumulates a deterministic checksum in FinishShards.
type countingShardable struct {
	shards int
	prio   int
	ticks  []int64 // per shard
	sum    uint64  // folded serially
}

func newCountingShardable(shards int) *countingShardable {
	return &countingShardable{shards: shards, ticks: make([]int64, shards)}
}

func (c *countingShardable) Tick(t Slot, ph Phase) { SerialTick(c, t, ph) }
func (c *countingShardable) Shards() int           { return c.shards }
func (c *countingShardable) TickShard(t Slot, ph Phase, s int) {
	c.ticks[s]++
}
func (c *countingShardable) FinishShards(t Slot, ph Phase) {
	for s, n := range c.ticks {
		c.sum = c.sum*31 + uint64(s) + uint64(n)
	}
}

func TestParallelClockMatchesClockOnPlainTickers(t *testing.T) {
	for _, w := range workerCounts() {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			run := func(eng Engine) (Slot, int64, []string) {
				var log []string
				for i := 0; i < 3; i++ {
					i := i
					eng.Register(TickerFunc(func(t Slot, ph Phase) {
						log = append(log, fmt.Sprintf("%d@%d/%v", i, t, ph))
					}))
				}
				eng.Run(5)
				return eng.Now(), eng.SlotsRun(), log
			}
			sn, sr, slog := run(NewClock())
			pn, pr, plog := run(NewParallelClock(w))
			if sn != pn || sr != pr {
				t.Fatalf("slots: serial (%d,%d) parallel (%d,%d)", sn, sr, pn, pr)
			}
			if strings.Join(slog, ",") != strings.Join(plog, ",") {
				t.Fatalf("tick order diverged:\nserial   %v\nparallel %v", slog, plog)
			}
		})
	}
}

func TestParallelClockRunsEveryShard(t *testing.T) {
	for _, w := range workerCounts() {
		for _, shards := range []int{1, 2, 3, 7, 16, 33} {
			cs := newCountingShardable(shards)
			pc := NewParallelClock(w)
			pc.Register(cs)
			const slots = 9
			if got := pc.Run(slots); got != slots {
				t.Fatalf("workers=%d shards=%d: ran %d slots, want %d", w, shards, got, slots)
			}
			for s, n := range cs.ticks {
				if n != slots*int64(numPhases) {
					t.Fatalf("workers=%d shards=%d: shard %d ticked %d times, want %d",
						w, shards, s, n, slots*int64(numPhases))
				}
			}
		}
	}
}

func TestParallelClockStop(t *testing.T) {
	for _, w := range workerCounts() {
		pc := NewParallelClock(w)
		pc.Register(newCountingShardable(4)) // force the worker path
		pc.Register(TickerFunc(func(t Slot, ph Phase) {
			if t == 3 && ph == PhaseUpdate {
				pc.Stop()
			}
		}))
		if done := pc.Run(100); done != 4 {
			t.Fatalf("workers=%d: Stop at slot 3 ran %d slots, want 4", w, done)
		}
		if pc.Now() != 4 {
			t.Fatalf("workers=%d: Now() = %d after stop, want 4", w, pc.Now())
		}
	}
}

func TestParallelClockRunUntil(t *testing.T) {
	for _, w := range workerCounts() {
		pc := NewParallelClock(w)
		cs := newCountingShardable(4)
		pc.Register(cs)
		done, ok := pc.RunUntil(func() bool { return pc.Now() >= 7 }, 100)
		if !ok || done != 7 {
			t.Fatalf("workers=%d: RunUntil = (%d,%v), want (7,true)", w, done, ok)
		}
		done, ok = pc.RunUntil(func() bool { return false }, 5)
		if ok || done != 5 {
			t.Fatalf("workers=%d: exhausted RunUntil = (%d,%v), want (5,false)", w, done, ok)
		}
	}
}

func TestParallelClockPropagatesPanic(t *testing.T) {
	for _, w := range workerCounts() {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Fatalf("workers=%d: panic in a shard was swallowed", w)
				} else if !strings.Contains(fmt.Sprint(r), "boom") {
					t.Fatalf("workers=%d: panic value %v lost the original cause", w, r)
				} else if w == 1 && r != "boom" {
					t.Fatalf("one worker re-raised %#v; the component's own value must reach the caller", r)
				}
			}()
			pc := NewParallelClock(w)
			pc.Register(newCountingShardable(4))
			bomb := newCountingShardable(4)
			pc.Register(bomb)
			pc.Register(TickerFunc(func(t Slot, ph Phase) {
				if t == 2 && ph == PhaseConnect {
					panic("boom")
				}
			}))
			pc.Run(10)
		}()
	}
}

// TestRegisterPrioStableOrder is the regression test for the lazy-sort
// fix: registration order must break priority ties even though the sort
// now happens once, at the first Step, instead of on every RegisterPrio.
func TestRegisterPrioStableOrder(t *testing.T) {
	for _, mk := range []struct {
		name string
		eng  func() Engine
	}{
		{"Clock", func() Engine { return NewClock() }},
		{"ParallelClock", func() Engine { return NewParallelClock(2) }},
	} {
		t.Run(mk.name, func(t *testing.T) {
			eng := mk.eng()
			var order []int
			reg := func(id, prio int) {
				eng.RegisterPrio(TickerFunc(func(t Slot, ph Phase) {
					if ph == PhaseIssue {
						order = append(order, id)
					}
				}), prio)
			}
			// Interleave priorities so a non-stable sort would scramble
			// the equal-priority runs.
			reg(0, 1)
			reg(1, 0)
			reg(2, 1)
			reg(3, 0)
			reg(4, 1)
			reg(5, 0)
			eng.Step()
			want := []int{1, 3, 5, 0, 2, 4}
			if fmt.Sprint(order) != fmt.Sprint(want) {
				t.Fatalf("tick order %v, want %v (priority then registration order)", order, want)
			}
			// Registering after a Step must re-sort before the next Step.
			order = nil
			reg(6, 0)
			eng.Step()
			want = []int{1, 3, 5, 6, 0, 2, 4}
			if fmt.Sprint(order) != fmt.Sprint(want) {
				t.Fatalf("after late registration: tick order %v, want %v", order, want)
			}
		})
	}
}

// seqRecorder tags every execution with a global sequence number so the
// fuzzer can check the barrier ordering invariants after the fact.
type seqRecord struct {
	seq   uint64
	slot  Slot
	ph    Phase
	prio  int
	owner int
}

type recordingTicker struct {
	id      int
	prio    int
	counter *atomic.Uint64
	mu      chan struct{} // 1-buffered: serial tickers need no lock, shards do
	out     *[]seqRecord
}

func (r *recordingTicker) record(t Slot, ph Phase) {
	seq := r.counter.Add(1)
	r.mu <- struct{}{}
	*r.out = append(*r.out, seqRecord{seq: seq, slot: t, ph: ph, prio: r.prio, owner: r.id})
	<-r.mu
}

func (r *recordingTicker) Tick(t Slot, ph Phase) { r.record(t, ph) }

type recordingShardable struct {
	recordingTicker
	shards int
}

func (r *recordingShardable) Tick(t Slot, ph Phase)             { SerialTick(r, t, ph) }
func (r *recordingShardable) Shards() int                       { return r.shards }
func (r *recordingShardable) TickShard(t Slot, ph Phase, s int) { r.record(t, ph) }
func (r *recordingShardable) FinishShards(t Slot, ph Phase)     {}

// FuzzShardSchedule feeds the parallel engine arbitrary mixes of
// priorities and shard affinities and asserts the scheduling contract:
// executions are ordered by (slot, phase, priority band) no matter how
// shards interleave inside a band.
func FuzzShardSchedule(f *testing.F) {
	f.Add([]byte{0x01, 0x12, 0x23}, uint8(2), uint8(3))
	f.Add([]byte{0x00, 0x00, 0x00, 0x00}, uint8(4), uint8(2))
	f.Add([]byte{0x31, 0x10, 0x02, 0x23, 0x11}, uint8(3), uint8(5))
	f.Add([]byte{0xff}, uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, spec []byte, workers uint8, slots uint8) {
		if len(spec) == 0 || len(spec) > 24 {
			t.Skip()
		}
		w := int(workers)%8 + 1
		nSlots := int64(slots)%6 + 1
		pc := NewParallelClock(w)
		var counter atomic.Uint64
		mu := make(chan struct{}, 1)
		var records []seqRecord
		total := 0
		for id, b := range spec {
			prio := int(b>>4) % 4
			shards := int(b) % 4 // 0 = plain serial ticker
			base := recordingTicker{id: id, prio: prio, counter: &counter, mu: mu, out: &records}
			if shards == 0 {
				pc.RegisterPrio(&base, prio)
				total += int(nSlots) * int(numPhases)
			} else {
				pc.RegisterPrio(&recordingShardable{recordingTicker: base, shards: shards}, prio)
				total += int(nSlots) * int(numPhases) * shards
			}
		}
		if got := pc.Run(nSlots); got != nSlots {
			t.Fatalf("ran %d slots, want %d", got, nSlots)
		}
		if len(records) != total {
			t.Fatalf("%d executions recorded, want %d", len(records), total)
		}
		// Sort by global sequence number and require (slot, phase, prio)
		// to be non-decreasing: a violation means a later priority band
		// (or phase, or slot) ran before an earlier one finished.
		byHappened := make([]seqRecord, len(records))
		copy(byHappened, records)
		for i := 1; i < len(byHappened); i++ {
			for j := i; j > 0 && byHappened[j].seq < byHappened[j-1].seq; j-- {
				byHappened[j], byHappened[j-1] = byHappened[j-1], byHappened[j]
			}
		}
		prev := byHappened[0]
		for _, r := range byHappened[1:] {
			if r.slot < prev.slot {
				t.Fatalf("slot %d ticked after slot %d", r.slot, prev.slot)
			}
			if r.slot == prev.slot && r.ph < prev.ph {
				t.Fatalf("slot %d: phase %v ticked after phase %v", r.slot, r.ph, prev.ph)
			}
			if r.slot == prev.slot && r.ph == prev.ph && r.prio < prev.prio {
				t.Fatalf("slot %d phase %v: priority band %d ran after band %d (owner %d after %d)",
					r.slot, r.ph, r.prio, prev.prio, r.owner, prev.owner)
			}
			prev = r
		}
	})
}

func TestTraceDigest(t *testing.T) {
	a, b := NewTrace(), NewTrace()
	if a.Digest() != b.Digest() {
		t.Fatal("empty traces must have equal digests")
	}
	var nilTrace *Trace
	if nilTrace.Digest() != a.Digest() {
		t.Fatal("nil trace digest must equal the empty trace digest")
	}
	a.Add(1, "P0", "issue read")
	if a.Digest() == b.Digest() {
		t.Fatal("digest ignored an event")
	}
	b.Add(1, "P0", "issue read")
	if a.Digest() != b.Digest() {
		t.Fatal("identical traces must have equal digests")
	}
	// Order sensitivity.
	c, d := NewTrace(), NewTrace()
	c.Add(1, "P0", "x")
	c.Add(1, "P1", "y")
	d.Add(1, "P1", "y")
	d.Add(1, "P0", "x")
	if c.Digest() == d.Digest() {
		t.Fatal("digest must be order-sensitive")
	}
	// Field-boundary sensitivity: ("ab","c") vs ("a","bc").
	e, g := NewTrace(), NewTrace()
	e.Add(0, "ab", "c")
	g.Add(0, "a", "bc")
	if e.Digest() == g.Digest() {
		t.Fatal("digest must separate Who and What")
	}
}

func TestSerialTickRunsShardsInOrder(t *testing.T) {
	var got []int
	s := &orderShardable{out: &got}
	SerialTick(s, 0, PhaseIssue)
	if fmt.Sprint(got) != fmt.Sprint([]int{0, 1, 2, -1}) {
		t.Fatalf("SerialTick order %v, want shards 0,1,2 then finalizer (-1)", got)
	}
}

type orderShardable struct{ out *[]int }

func (o *orderShardable) Tick(t Slot, ph Phase)             { SerialTick(o, t, ph) }
func (o *orderShardable) Shards() int                       { return 3 }
func (o *orderShardable) TickShard(t Slot, ph Phase, s int) { *o.out = append(*o.out, s) }
func (o *orderShardable) FinishShards(t Slot, ph Phase)     { *o.out = append(*o.out, -1) }
