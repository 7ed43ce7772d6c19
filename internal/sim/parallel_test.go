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

// countingShardable is an epoch-safe Shardable that counts per-shard
// ticks; with no finalizer, a plan of it alone runs on a pool.
type countingShardable struct {
	shards int
	ticks  []int64 // per shard
}

func newCountingShardable(shards int) *countingShardable {
	return &countingShardable{shards: shards, ticks: make([]int64, shards)}
}

func (c *countingShardable) Tick(t Slot, ph Phase) { SerialTick(c, t, ph) }
func (c *countingShardable) Shards() int           { return c.shards }
func (c *countingShardable) EpochSafe() bool       { return true }
func (c *countingShardable) TickShard(t Slot, ph Phase, s int) {
	c.ticks[s]++
}

// TestParallelClockMatchesClockOnPlainTickers: a plan of plain tickers
// runs on one worker at every worker count, in the one-worker order.
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

// TestParallelClockStop: a Stop called from a shard in slot 3 ends the
// run after that slot at every worker count, on a pool of one-slot
// episodes too. The last shard calls it, so on a pool a worker other
// than the caller's does.
func TestParallelClockStop(t *testing.T) {
	for _, w := range workerCounts() {
		pc := NewParallelClock(w)
		pc.SetEpochBatch(1)
		ec := newEpochComp(4, MaskAll)
		ec.stopAt, ec.stopSh, ec.stop = 3, 3, pc.Stop
		pc.Register(ec)
		if done := pc.Run(100); done != 4 {
			t.Fatalf("workers=%d: Stop at slot 3 ran %d slots, want 4", w, done)
		}
		if pc.Now() != 4 {
			t.Fatalf("workers=%d: Now() = %d after stop, want 4", w, pc.Now())
		}
		if w > 1 && pc.Epochs() != 4 {
			t.Fatalf("workers=%d: %d episodes, want 4 on the pool", w, pc.Epochs())
		}
		pc.Close()
	}
}

// TestParallelClockRunUntil: the predicate is checked between slots at
// every worker count, so a pool runs one-slot episodes for the call.
func TestParallelClockRunUntil(t *testing.T) {
	for _, w := range workerCounts() {
		pc := NewParallelClock(w)
		pc.Register(newEpochComp(4, MaskAll))
		done, ok := pc.RunUntil(func() bool { return pc.Now() >= 7 }, 100)
		if !ok || done != 7 {
			t.Fatalf("workers=%d: RunUntil = (%d,%v), want (7,true)", w, done, ok)
		}
		done, ok = pc.RunUntil(func() bool { return false }, 5)
		if ok || done != 5 {
			t.Fatalf("workers=%d: exhausted RunUntil = (%d,%v), want (5,false)", w, done, ok)
		}
		if w > 1 && pc.Epochs() != 12 {
			t.Fatalf("workers=%d: %d episodes, want 12 one-slot episodes on the pool", w, pc.Epochs())
		}
		pc.Close()
	}
}

// TestParallelClockPropagatesPanic: a shard's panic reaches the caller
// at every worker count — unchanged on one worker, wrapped with its
// cause on a pool, where the last shard's owner is not the caller.
func TestParallelClockPropagatesPanic(t *testing.T) {
	for _, w := range workerCounts() {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Fatalf("workers=%d: panic in a shard was swallowed", w)
				} else if !strings.Contains(fmt.Sprint(r), "boom") {
					t.Fatalf("workers=%d: panic value %v lost the original cause", w, r)
				} else if w == 1 && r != "epoch boom" {
					t.Fatalf("one worker re-raised %#v; the component's own value must reach the caller", r)
				}
			}()
			pc := NewParallelClock(w)
			pc.Register(newCountingShardable(4))
			bomb := newEpochComp(4, MaskAll)
			bomb.panicAt, bomb.panicSh = 2, 3
			pc.Register(bomb)
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

// seqRecord tags every execution with a global sequence number so the
// fuzzer can check the ordering invariants after the fact.
type seqRecord struct {
	seq   uint64
	slot  Slot
	ph    Phase
	prio  int
	owner int
	shard int // -1 for a plain ticker
}

type recordingTicker struct {
	id      int
	prio    int
	counter *atomic.Uint64
	mu      chan struct{} // 1-buffered: a pool's workers record concurrently
	out     *[]seqRecord
}

func (r *recordingTicker) record(t Slot, ph Phase, shard int) {
	seq := r.counter.Add(1)
	r.mu <- struct{}{}
	*r.out = append(*r.out, seqRecord{seq: seq, slot: t, ph: ph, prio: r.prio, owner: r.id, shard: shard})
	<-r.mu
}

func (r *recordingTicker) Tick(t Slot, ph Phase) { r.record(t, ph, -1) }

// recordingShardable is epoch-safe: each shard records only its own
// executions (the shared log is the measurement, under its lock).
type recordingShardable struct {
	recordingTicker
	shards int
}

func (r *recordingShardable) Tick(t Slot, ph Phase)             { SerialTick(r, t, ph) }
func (r *recordingShardable) Shards() int                       { return r.shards }
func (r *recordingShardable) EpochSafe() bool                   { return true }
func (r *recordingShardable) TickShard(t Slot, ph Phase, s int) { r.record(t, ph, s) }
func (r *recordingShardable) FinishShards(t Slot, ph Phase)     {}
func (r *recordingShardable) FinishEpoch(from, to Slot)         {}

// FuzzShardSchedule feeds the engine arbitrary mixes of priorities,
// shard counts and plain tickers and asserts the scheduling contract
// after the fact. A plan with a plain ticker, or a one-worker engine,
// runs the one-worker walk: executions are ordered by (slot, phase,
// priority band). A pool runs episodes of up to K slots shard-major:
// every episode's executions precede the next episode's, and each
// (component, shard) pair runs its slots and phases in order.
func FuzzShardSchedule(f *testing.F) {
	f.Add([]byte{0x01, 0x12, 0x23}, uint8(0x0a), uint8(3))
	f.Add([]byte{0x00, 0x00, 0x00, 0x00}, uint8(4), uint8(2))
	f.Add([]byte{0x31, 0x10, 0x02, 0x23, 0x11}, uint8(3), uint8(5))
	f.Add([]byte{0xff}, uint8(0x19), uint8(1))
	f.Fuzz(func(t *testing.T, spec []byte, workers uint8, slots uint8) {
		if len(spec) == 0 || len(spec) > 24 {
			t.Skip()
		}
		w := int(workers)%8 + 1
		k := int(workers>>3)%4 + 1
		nSlots := int64(slots)%6 + 1
		pc := NewParallelClock(w)
		pc.SetEpochBatch(k)
		defer pc.Close()
		var counter atomic.Uint64
		mu := make(chan struct{}, 1)
		var records []seqRecord
		total, plain := 0, false
		for id, b := range spec {
			prio := int(b>>4) % 4
			shards := int(b) % 4 // 0 = plain ticker
			base := recordingTicker{id: id, prio: prio, counter: &counter, mu: mu, out: &records}
			if shards == 0 {
				pc.RegisterPrio(&base, prio)
				total += int(nSlots) * int(numPhases)
				plain = true
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
		byHappened := make([]seqRecord, len(records))
		copy(byHappened, records)
		for i := 1; i < len(byHappened); i++ {
			for j := i; j > 0 && byHappened[j].seq < byHappened[j-1].seq; j-- {
				byHappened[j], byHappened[j-1] = byHappened[j-1], byHappened[j]
			}
		}
		if plain || w == 1 {
			if pc.Epochs() != 0 {
				t.Fatalf("a one-worker plan ran %d episodes on a pool", pc.Epochs())
			}
			// (slot, phase, prio) must be non-decreasing: a violation means
			// a later priority band (or phase, or slot) ran before an
			// earlier one finished.
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
			return
		}
		if want := (nSlots + int64(k) - 1) / int64(k); pc.Epochs() != want {
			t.Fatalf("pool ran %d episodes over %d slots at K=%d, want %d", pc.Epochs(), nSlots, k, want)
		}
		// Episode i covers slots [i*k, (i+1)*k): nothing of a later
		// episode may run before an earlier one settles, and a shard
		// walks its own slots and phases in order.
		last := map[[2]int]seqRecord{}
		prev := byHappened[0]
		for i, r := range byHappened {
			if i > 0 && int(r.slot)/k < int(prev.slot)/k {
				t.Fatalf("slot %d (episode %d) ran after slot %d (episode %d)",
					r.slot, int(r.slot)/k, prev.slot, int(prev.slot)/k)
			}
			key := [2]int{r.owner, r.shard}
			if l, ok := last[key]; ok && (r.slot < l.slot || r.slot == l.slot && r.ph <= l.ph) {
				t.Fatalf("component %d shard %d: slot %d phase %v ran after slot %d phase %v",
					r.owner, r.shard, r.slot, r.ph, l.slot, l.ph)
			}
			last[key] = r
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
