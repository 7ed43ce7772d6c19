package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// epochEvent is one staged, order-sensitive record of the synthetic
// epoch component: the digest fold is sensitive to (slot, phase, shard,
// emission) order, so any batched reordering the engine or the
// component's FinishEpoch merge lets slip is caught.
type epochEvent struct {
	slot Slot
	ph   Phase
	val  uint64
}

// epochComp is the synthetic EpochSafeTicker of the batching tests:
// per-shard multiplicative state (order of cross-shard execution is
// invisible, order within a shard is not) plus a staged event stream
// folded into an order-sensitive digest by the finalizer — serially per
// (slot, phase), batched per episode with the same documented merge
// Partial uses (slot-major cursors over the per-shard streams).
type epochComp struct {
	shards int
	mask   PhaseMask
	state  []uint64
	staged [][]epochEvent
	cursor []int
	digest uint64
	// panicAt triggers a deliberate shard panic (poison-path tests).
	panicAt Slot
	panicSh int
	stopAt  Slot // when >0, call stop() at this slot (shard 0)
	stop    func()
	// quiesceAt > 0 makes the component honestly quiescent from that
	// slot on: TickShard becomes a no-op and Horizon reports
	// HorizonNone, so skip-ahead may (but need not) skip the tail.
	quiesceAt Slot
	finCalls  int64 // FinishShards invocations
	epCalls   int64 // FinishEpoch invocations
	epoched   int64 // slots folded through FinishEpoch
}

func newEpochComp(shards int, mask PhaseMask) *epochComp {
	return &epochComp{
		shards: shards,
		mask:   mask,
		state:  make([]uint64, shards),
		staged: make([][]epochEvent, shards),
		cursor: make([]int, shards),
	}
}

func (e *epochComp) Tick(t Slot, ph Phase) { SerialTick(e, t, ph) }
func (e *epochComp) PhaseMask() PhaseMask  { return e.mask }
func (e *epochComp) Shards() int           { return e.shards }
func (e *epochComp) EpochSafe() bool       { return true }

func (e *epochComp) Horizon(now Slot) Slot {
	if e.quiesceAt > 0 && now >= e.quiesceAt {
		return HorizonNone
	}
	return now
}

func (e *epochComp) TickShard(t Slot, ph Phase, s int) {
	if t == e.panicAt && s == e.panicSh && e.panicAt > 0 {
		panic("epoch boom")
	}
	if e.stopAt > 0 && t == e.stopAt && s == 0 && e.stop != nil {
		e.stop()
	}
	if e.quiesceAt > 0 && t >= e.quiesceAt {
		return // honestly quiescent: ticking here is an observable no-op
	}
	e.state[s] = e.state[s]*1099511628211 + uint64(t)*31 + uint64(ph)*7 + uint64(s) + 1
	e.staged[s] = append(e.staged[s], epochEvent{slot: t, ph: ph, val: e.state[s]})
}

func (e *epochComp) fold(ev epochEvent) {
	e.digest = e.digest*131 + uint64(ev.slot)*17 + uint64(ev.ph)*5 + ev.val
}

// FinishShards drains everything staged this (slot, phase) in ascending
// shard order — the serial fold the batched path must reproduce.
func (e *epochComp) FinishShards(t Slot, ph Phase) {
	e.finCalls++
	for s := range e.staged {
		for _, ev := range e.staged[s] {
			e.fold(ev)
		}
		e.staged[s] = e.staged[s][:0]
	}
}

// FinishEpoch reproduces the serial (slot, phase, shard) fold order
// over the whole episode from the per-shard streams, which are
// (slot, phase)-nondecreasing because each shard runs the episode's
// slots and phases in order.
func (e *epochComp) FinishEpoch(from, to Slot) {
	e.epCalls++
	e.epoched += int64(to - from)
	for s := range e.cursor {
		e.cursor[s] = 0
	}
	for t := from; t < to; t++ {
		for ph := Phase(0); ph < numPhases; ph++ {
			if !e.mask.Has(ph) {
				continue
			}
			e.finCalls++
			for s := range e.staged {
				evs := e.staged[s]
				c := e.cursor[s]
				for c < len(evs) && evs[c].slot == t && evs[c].ph == ph {
					e.fold(evs[c])
					c++
				}
				e.cursor[s] = c
			}
		}
	}
	for s := range e.staged {
		e.staged[s] = e.staged[s][:0]
	}
}

// snapshot summarizes everything observable for differential checks.
func (e *epochComp) snapshot() string {
	return fmt.Sprintf("digest=%d state=%v", e.digest, e.state)
}

// TestEpochBatchEquivalence sweeps (workers, arity, K, shards) against
// the serial oracle: identical digests, states, and clock positions,
// with the run length deliberately not a multiple of K so the final
// episode truncates.
func TestEpochBatchEquivalence(t *testing.T) {
	const slots = 23
	masks := []PhaseMask{MaskAll, MaskOf(PhaseIssue), MaskOf(PhaseConnect, PhaseUpdate)}
	for _, workers := range []int{2, 3, 4} {
		for _, arity := range []int{2, 3, 4} {
			for _, k := range []int{2, 3, 5, 16} {
				for si, shards := range []int{4, 7, 16} {
					mask := masks[si%len(masks)]
					name := fmt.Sprintf("w%d_a%d_k%d_s%d", workers, arity, k, shards)
					t.Run(name, func(t *testing.T) {
						oracle := newEpochComp(shards, mask)
						sc := NewClock()
						sc.Register(oracle)
						sc.Run(slots)

						ec := newEpochComp(shards, mask)
						pc := NewParallelClock(workers)
						pc.SetBarrierArity(arity)
						pc.SetEpochBatch(k)
						pc.Register(ec)
						defer pc.Close()
						if done := pc.Run(slots); done != slots {
							t.Fatalf("batched run executed %d slots, want %d", done, slots)
						}
						if got, want := ec.snapshot(), oracle.snapshot(); got != want {
							t.Fatalf("batched state diverged:\n got %s\nwant %s", got, want)
						}
						if pc.Now() != sc.Now() || pc.SlotsRun() != sc.SlotsRun() {
							t.Fatalf("clock diverged: parallel (%d,%d) serial (%d,%d)",
								pc.Now(), pc.SlotsRun(), sc.Now(), sc.SlotsRun())
						}
						// Non-vacuity: batching must actually have engaged.
						if ec.epCalls == 0 {
							t.Fatal("FinishEpoch never ran — plan did not batch")
						}
						if ec.epoched != slots {
							t.Fatalf("episodes covered %d slots, want %d", ec.epoched, slots)
						}
						wantEpochs := int64((slots + k - 1) / k)
						if pc.Epochs() != wantEpochs {
							t.Fatalf("Epochs() = %d, want %d (K=%d over %d slots)", pc.Epochs(), wantEpochs, k, slots)
						}
						if pc.BarrierCrossings() != 2*wantEpochs {
							t.Fatalf("BarrierCrossings() = %d, want %d (2 per episode)",
								pc.BarrierCrossings(), 2*wantEpochs)
						}
					})
				}
			}
		}
	}
}

// TestEpochEpisodeTruncation pins the boundary policy: a Run budget
// cuts the final episode, so engine state between runs always sits on
// an episode boundary and chunked budgets land on the same digests.
func TestEpochEpisodeTruncation(t *testing.T) {
	oracle := newEpochComp(8, MaskAll)
	sc := NewClock()
	sc.Register(oracle)
	sc.Run(7)

	ec := newEpochComp(8, MaskAll)
	pc := NewParallelClock(2)
	pc.SetEpochBatch(5)
	pc.Register(ec)
	defer pc.Close()
	if done := pc.Run(7); done != 7 {
		t.Fatalf("Run(7) executed %d slots", done)
	}
	if pc.Now() != 7 {
		t.Fatalf("Now() = %d, want 7", pc.Now())
	}
	if pc.Epochs() != 2 {
		t.Fatalf("Epochs() = %d, want 2 (episodes [0,5) and [5,7))", pc.Epochs())
	}
	if ec.snapshot() != oracle.snapshot() {
		t.Fatalf("truncated episode diverged:\n got %s\nwant %s", ec.snapshot(), oracle.snapshot())
	}
	// A second chunked budget continues bit-identically.
	oracle2 := newEpochComp(8, MaskAll)
	sc2 := NewClock()
	sc2.Register(oracle2)
	sc2.Run(20)
	if done := pc.Run(13); done != 13 {
		t.Fatalf("Run(13) executed %d slots", done)
	}
	if ec.snapshot() != oracle2.snapshot() {
		t.Fatalf("chunked budgets diverged:\n got %s\nwant %s", ec.snapshot(), oracle2.snapshot())
	}
}

// TestEpochBatchDisabled pins SetEpochBatch(1): the classic
// slot-at-a-time body, one bookkeeping round per slot.
func TestEpochBatchDisabled(t *testing.T) {
	ec := newEpochComp(8, MaskAll)
	pc := NewParallelClock(2)
	pc.SetEpochBatch(1)
	pc.Register(ec)
	defer pc.Close()
	pc.Run(9)
	if ec.epCalls != 0 {
		t.Fatalf("FinishEpoch ran %d times with batching disabled", ec.epCalls)
	}
	if pc.Epochs() != 9 {
		t.Fatalf("Epochs() = %d, want 9 single-slot rounds", pc.Epochs())
	}
}

// TestEpochNonBatchablePlan: one plain serial ticker anywhere in the
// plan must force the classic body (and still match the serial oracle).
func TestEpochNonBatchablePlan(t *testing.T) {
	run := func(eng Engine) (string, []Slot) {
		ec := newEpochComp(6, MaskAll)
		var serialSeen []Slot
		eng.Register(ec)
		eng.Register(TickerFunc(func(t Slot, ph Phase) {
			if ph == PhaseUpdate {
				serialSeen = append(serialSeen, t)
			}
		}))
		eng.Run(11)
		return ec.snapshot(), serialSeen
	}
	wantSnap, wantSeen := run(NewClock())
	pc := NewParallelClock(2)
	defer pc.Close()
	gotSnap, gotSeen := run(pc)
	if gotSnap != wantSnap {
		t.Fatalf("mixed plan diverged:\n got %s\nwant %s", gotSnap, wantSnap)
	}
	if fmt.Sprint(gotSeen) != fmt.Sprint(wantSeen) {
		t.Fatalf("serial ticker saw %v, want %v", gotSeen, wantSeen)
	}
	if pc.batchable {
		t.Fatal("plan with a serial ticker compiled as batchable")
	}
	if pc.Epochs() != 11 {
		t.Fatalf("Epochs() = %d, want 11 classic rounds", pc.Epochs())
	}
}

// TestEpochStopResolvesAtEpisodeEdge pins the documented Stop
// granularity under batching: a Stop fired mid-episode takes effect
// when the episode settles, never mid-episode and never later.
func TestEpochStopResolvesAtEpisodeEdge(t *testing.T) {
	ec := newEpochComp(8, MaskAll)
	pc := NewParallelClock(2)
	pc.SetEpochBatch(4)
	ec.stopAt = 6 // inside episode [4, 8)
	ec.stop = pc.Stop
	pc.Register(ec)
	defer pc.Close()
	if done := pc.Run(100); done != 8 {
		t.Fatalf("Stop at slot 6 under K=4 ran %d slots, want 8 (episode edge)", done)
	}
	if pc.Now() != 8 {
		t.Fatalf("Now() = %d after episode-edge stop, want 8", pc.Now())
	}
	// And the executed prefix is still bit-identical to serial.
	oracle := newEpochComp(8, MaskAll)
	sc := NewClock()
	sc.Register(oracle)
	sc.Run(8)
	if ec.snapshot() != oracle.snapshot() {
		t.Fatalf("stopped run diverged:\n got %s\nwant %s", ec.snapshot(), oracle.snapshot())
	}
}

// TestEpochSkipAheadAtEpisodeEdges: under batching the horizon fold
// runs only at episode boundaries, so a fleet that quiesces mid-episode
// fires a few extra (provably no-op) slots and then jumps — with
// observables identical to the dense serial oracle, and a real jump
// covering most of the run.
func TestEpochSkipAheadAtEpisodeEdges(t *testing.T) {
	mk := func() *epochComp {
		e := newEpochComp(8, MaskAll)
		e.quiesceAt = 20 // quiesces INSIDE episode [16, 24)
		return e
	}
	oracle := mk() // dense serial reference
	sc := NewClock()
	sc.Register(oracle)
	sc.Run(100)

	ec := mk()
	pc := NewParallelClock(2)
	pc.SetEpochBatch(8)
	pc.SetSkipAhead(true)
	pc.Register(ec)
	defer pc.Close()
	if done := pc.Run(100); done != 100 {
		t.Fatalf("skip-ahead batched run executed %d slots, want 100", done)
	}
	if ec.snapshot() != oracle.snapshot() {
		t.Fatalf("skip-ahead under batching diverged from dense serial:\n got %s\nwant %s",
			ec.snapshot(), oracle.snapshot())
	}
	if pc.Now() != sc.Now() || pc.SlotsRun() != sc.SlotsRun() {
		t.Fatalf("clock diverged: parallel (%d,%d) serial (%d,%d)",
			pc.Now(), pc.SlotsRun(), sc.Now(), sc.SlotsRun())
	}
	if pc.Jumps() == 0 {
		t.Fatal("no jump happened — skip-ahead test is vacuous")
	}
	// The fold runs at episode edges: slots up to the end of the episode
	// containing the quiesce point fire (24 with K=8), the rest jump.
	if pc.SlotsFired() != 24 {
		t.Fatalf("fired %d slots, want 24 (jump at the [16,24) episode edge)", pc.SlotsFired())
	}
}

// TestEpochPoisonPropagation: a panic inside a batched episode must
// poison the tree barrier, unwind every worker, and re-raise the
// original value on the caller — same contract as the classic body.
func TestEpochPoisonPropagation(t *testing.T) {
	for _, workers := range []int{2, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: shard panic under batching was swallowed", workers)
				}
				if !strings.Contains(fmt.Sprint(r), "epoch boom") {
					t.Fatalf("workers=%d: panic %v lost the original cause", workers, r)
				}
			}()
			ec := newEpochComp(8, MaskAll)
			ec.panicAt = 9
			ec.panicSh = 5
			pc := NewParallelClock(workers)
			pc.SetEpochBatch(4)
			pc.Register(ec)
			pc.Run(50)
		}()
	}
}

// TestWorkersAutoDecisionTable pins the WorkersAuto resolution: the
// shard-width bar for turning on worker goroutines drops from
// autoSerialShards to autoEpochSerialShards when the compiled plan
// epoch-batches (the per-slot coordination tax is amortized over whole
// episodes), and stays at the classic bar when batching is off or the
// plan has serial work.
func TestWorkersAutoDecisionTable(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		// The table is only meaningful when "go parallel" differs from
		// "stay serial"; widen temporarily on single-CPU hosts.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	gmp := runtime.GOMAXPROCS(0)
	cases := []struct {
		name      string
		shards    int
		addSerial bool
		epochK    int // EpochAuto or an explicit SetEpochBatch value
		want      int
	}{
		{"batchable_at_epoch_bar", autoEpochSerialShards, false, EpochAuto, gmp},
		{"batchable_below_epoch_bar", autoEpochSerialShards - 1, false, EpochAuto, 1},
		{"batchable_batching_disabled", autoSerialShards - 1, false, 1, 1},
		{"serial_below_classic_bar", autoSerialShards - 1, true, EpochAuto, 1},
		{"serial_at_classic_bar", autoSerialShards, true, EpochAuto, gmp},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pc := NewParallelClock(WorkersAuto)
			if tc.epochK != EpochAuto {
				pc.SetEpochBatch(tc.epochK)
			}
			pc.Register(newEpochComp(tc.shards, MaskAll))
			if tc.addSerial {
				pc.Register(TickerFunc(func(Slot, Phase) {}))
			}
			defer pc.Close()
			pc.Run(2)
			if pc.workers != tc.want {
				t.Fatalf("WorkersAuto with %d shards (serial=%v, K=%d) resolved to %d workers, want %d (batchable=%v)",
					tc.shards, tc.addSerial, tc.epochK, pc.workers, tc.want, pc.batchable)
			}
		})
	}
}

// TestBarrierSpinsTunable covers the idle-engine regression: with a
// tiny spin bound every parked worker must reach the cond-block path
// (sleeping on the pool gate) shortly after a run returns — an idle
// engine consumes no CPU.
func TestBarrierSpinsTunable(t *testing.T) {
	const workers = 4
	pc := NewParallelClock(workers)
	pc.cfgSpins = 1 // force the cond-block path almost immediately
	pc.Register(newEpochComp(8, MaskAll))
	defer pc.Close()
	pc.Run(12)
	if pc.pool.spins != 1 {
		t.Fatalf("pool built with spins=%d, want the tuned 1", pc.pool.spins)
	}
	// Between runs the workers park on the pool gate; with spins=1 they
	// must all end up blocked on the condition variable.
	deadline := time.Now().Add(5 * time.Second)
	for pc.pool.bar.sleeping() != workers-1 {
		if time.Now().After(deadline) {
			t.Fatalf("idle engine: %d/%d workers blocked on the cond path; the rest are spinning",
				pc.pool.bar.sleeping(), workers-1)
		}
		time.Sleep(time.Millisecond)
	}
	// The engine still runs correctly after the sleep/wake cycle.
	if done := pc.Run(5); done != 5 {
		t.Fatalf("post-sleep run executed %d slots", done)
	}
}

// TestBarrierArityShapesPool pins the tunable and the automatic pick.
func TestBarrierArityShapesPool(t *testing.T) {
	if pickArity(2) != 2 || pickArity(4) != 2 || pickArity(5) != 3 || pickArity(9) != 3 || pickArity(10) != 4 {
		t.Fatalf("pickArity thresholds moved: %d %d %d %d %d",
			pickArity(2), pickArity(4), pickArity(5), pickArity(9), pickArity(10))
	}
	pc := NewParallelClock(6)
	pc.SetBarrierArity(4)
	pc.Register(newEpochComp(12, MaskAll))
	defer pc.Close()
	pc.Run(3)
	if pc.pool.arity != 4 {
		t.Fatalf("pool arity %d, want the tuned 4", pc.pool.arity)
	}
	// Retuning rebuilds the pool on the next run.
	pc.SetBarrierArity(2)
	pc.Run(3)
	if pc.pool.arity != 2 {
		t.Fatalf("pool arity %d after retune, want 2", pc.pool.arity)
	}
}

// TestTreeNodePadding pins the cache-line layout at runtime (the
// structlayout cfmlint pass pins it statically).
func TestTreeNodePadding(t *testing.T) {
	if sz := unsafe.Sizeof(treeNode{}); sz%64 != 0 || sz == 0 {
		t.Fatalf("treeNode is %d bytes; want a nonzero multiple of the 64-byte cache line", sz)
	}
}

// FuzzEpochSchedule drives arbitrary (component mix, workers, arity, K,
// chunked budgets) through the batched engine against the serial
// oracle. Specs build a fleet of epoch-safe shardables with varying
// shard counts and phase masks; one spec bit can add a plain serial
// ticker, flipping the plan to the classic body — both paths must match
// the oracle exactly.
func FuzzEpochSchedule(f *testing.F) {
	f.Add([]byte{0x13, 0x25}, uint8(2), uint8(2), uint8(4), uint8(23), false)
	f.Add([]byte{0x07}, uint8(4), uint8(4), uint8(16), uint8(40), false)
	f.Add([]byte{0x31, 0x11, 0x02}, uint8(3), uint8(3), uint8(3), uint8(10), true)
	f.Add([]byte{0xff, 0xfe}, uint8(8), uint8(2), uint8(2), uint8(7), false)
	f.Fuzz(func(t *testing.T, spec []byte, workers, arity, k, slots uint8, addSerial bool) {
		if len(spec) == 0 || len(spec) > 12 {
			t.Skip()
		}
		w := int(workers)%7 + 2  // 2..8
		ar := int(arity)%3 + 2   // 2..4
		kk := int(k)%17 + 2      // 2..18
		n := int64(slots)%50 + 1 // 1..50
		mid := n / 2

		mkFleet := func(eng Engine) []*epochComp {
			var fleet []*epochComp
			for _, b := range spec {
				shards := int(b)%5 + 1
				mask := PhaseMask(b>>4) & MaskAll
				if mask == 0 {
					mask = MaskAll
				}
				c := newEpochComp(shards, mask)
				fleet = append(fleet, c)
				eng.RegisterPrio(c, int(b)%3)
			}
			if addSerial {
				eng.Register(TickerFunc(func(Slot, Phase) {}))
			}
			return fleet
		}
		snap := func(fleet []*epochComp) string {
			var sb strings.Builder
			for _, c := range fleet {
				sb.WriteString(c.snapshot())
				sb.WriteByte('\n')
			}
			return sb.String()
		}

		sc := NewClock()
		oracle := mkFleet(sc)
		sc.Run(n)

		pc := NewParallelClock(w)
		pc.SetBarrierArity(ar)
		pc.SetEpochBatch(kk)
		fleet := mkFleet(pc)
		defer pc.Close()
		// Chunked budgets: episode truncation at mid must be invisible.
		done := pc.Run(mid)
		done += pc.Run(n - mid)
		if done != n {
			t.Fatalf("chunked runs executed %d slots, want %d", done, n)
		}
		if got, want := snap(fleet), snap(oracle); got != want {
			t.Fatalf("spec=%x w=%d arity=%d K=%d slots=%d serial=%v diverged:\n got %s\nwant %s",
				spec, w, ar, kk, n, addSerial, got, want)
		}
		if !addSerial {
			// The all-shardable plan must actually have batched (unless a
			// 1-slot chunk degenerated every episode, which K>=2 and n>=2
			// avoid for the second chunk when n-mid >= 2).
			if n-mid >= 2 && pc.Epochs() >= pc.SlotsFired() && pc.SlotsFired() > 2 {
				t.Fatalf("batchable plan never amortized: epochs=%d fired=%d", pc.Epochs(), pc.SlotsFired())
			}
		}
	})
}
