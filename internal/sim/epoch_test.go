package sim

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
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
	stopAt  Slot // when >0, call stop() at this slot (shard stopSh)
	stopSh  int
	stop    func()
	// onFold, when set, runs at the start of every FinishShards and
	// FinishEpoch: on worker 0, with every shard of the fold ticked.
	onFold func()
	// notSafe makes EpochSafe report false, so a plan holding the
	// component cannot run on a pool.
	notSafe bool
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
func (e *epochComp) EpochSafe() bool       { return !e.notSafe }

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
	if e.stopAt > 0 && t == e.stopAt && s == e.stopSh && e.stop != nil {
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
	if e.onFold != nil {
		e.onFold()
	}
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
	if e.onFold != nil {
		e.onFold()
	}
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
// episode truncates. K = 1 is SetEpochBatch(1): one-slot episodes, each
// folded by its own FinishEpoch at two crossings.
func TestEpochBatchEquivalence(t *testing.T) {
	const slots = 23
	masks := []PhaseMask{MaskAll, MaskOf(PhaseIssue), MaskOf(PhaseConnect, PhaseUpdate)}
	for _, workers := range []int{2, 3, 4} {
		for _, arity := range []int{2, 3, 4} {
			for _, k := range []int{1, 2, 3, 5, 16} {
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

// TestEpochMixedPhaseMasks batches two epoch-safe components of one
// priority band whose phase masks differ: A ticks in Issue and Transfer
// with 8 shards, B in Transfer alone with 24. Cut per phase segment, A's
// shards would fall to one worker in Issue and to another in Transfer,
// and two workers would tick one shard concurrently inside an episode.
// Every (component, shard) pair must have exactly one owner, and the
// batched run must equal the serial one in digests and per-shard state.
func TestEpochMixedPhaseMasks(t *testing.T) {
	const slots = 61
	build := func(eng Engine) []*epochComp {
		a := newEpochComp(8, MaskOf(PhaseIssue, PhaseTransfer))
		b := newEpochComp(24, MaskOf(PhaseTransfer))
		eng.Register(a)
		eng.Register(b)
		return []*epochComp{a, b}
	}
	sc := NewClock()
	oracle := build(sc)
	sc.Run(slots)
	for _, workers := range []int{2, 4} {
		for rep := 0; rep < 5; rep++ {
			pc := NewParallelClock(workers)
			fleet := build(pc)
			pc.Run(slots)
			pc.Close()
			for i, c := range fleet {
				if got, want := c.snapshot(), oracle[i].snapshot(); got != want {
					t.Fatalf("workers=%d rep %d: component %d diverged from serial:\n got %s\nwant %s",
						workers, rep, i, got, want)
				}
				if c.epCalls == 0 {
					t.Fatalf("workers=%d: component %d never folded an episode — plan did not batch", workers, i)
				}
			}
			owners := map[[2]int]int{}
			for w, list := range pc.workLists {
				for _, wk := range list {
					ci := 0
					if wk.s == fleet[1] {
						ci = 1
					}
					for s := wk.lo; s < wk.hi; s++ {
						owners[[2]int{ci, s}]++
					}
				}
				if len(list) == 0 {
					t.Fatalf("workers=%d: worker %d owns no shard", workers, w)
				}
			}
			if len(owners) != 8+24 {
				t.Fatalf("workers=%d: %d (component, shard) pairs have an owner, want 32", workers, len(owners))
			}
			for pair, n := range owners {
				if n != 1 {
					t.Fatalf("workers=%d: pair %v has %d owners, want 1", workers, pair, n)
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

// TestEpochNonBatchablePlan pins the rule that a pool runs only
// batchable plans: a plan with a plain ticker, or with a Shardable that
// is not EpochSafe, runs on one worker whatever worker count the engine
// was given. It starts no goroutine, crosses no barrier, counts no
// episode, and leaves the state the one-worker clock does.
func TestEpochNonBatchablePlan(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		// WorkersAuto would pick one worker anyway; widen so that only
		// the rule keeps the pool off.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	const slots = 11
	// Each plan is wide enough that WorkersAuto would pool it if it
	// batched; build returns the plan's observable state.
	plans := []struct {
		name  string
		build func(eng Engine) (state func() string)
	}{
		{"plain ticker", func(eng Engine) func() string {
			ec := newEpochComp(autoSerialShards, MaskAll)
			var seen []Slot
			eng.Register(ec)
			eng.Register(TickerFunc(func(t Slot, ph Phase) {
				if ph == PhaseUpdate {
					seen = append(seen, t)
				}
			}))
			return func() string { return fmt.Sprint(ec.snapshot(), seen) }
		}},
		{"shardable not epoch-safe", func(eng Engine) func() string {
			ec := newEpochComp(autoSerialShards, MaskAll)
			closed := newEpochComp(4, MaskOf(PhaseTransfer))
			closed.notSafe = true
			eng.Register(ec)
			eng.Register(closed)
			return func() string { return ec.snapshot() + " " + closed.snapshot() }
		}},
	}
	for _, plan := range plans {
		sc := NewClock()
		want := plan.build(sc)
		sc.Run(slots)
		for _, workers := range []int{2, 4, WorkersAuto} {
			pc := NewParallelClock(workers)
			got := plan.build(pc)
			// Goroutines of earlier tests may still be exiting, so only a
			// rise means this engine started a worker.
			before := runtime.NumGoroutine()
			pc.Run(slots)
			if after := runtime.NumGoroutine(); after > before {
				t.Fatalf("%s, workers=%d: goroutines %d -> %d across the run, want no new one",
					plan.name, workers, before, after)
			}
			if pc.batchable || pc.pool.n != 1 {
				t.Fatalf("%s, workers=%d: batchable=%v on a %d-worker pool, want one worker",
					plan.name, workers, pc.batchable, pc.pool.n)
			}
			if pc.Epochs() != 0 || pc.BarrierCrossings() != 0 {
				t.Fatalf("%s, workers=%d: %d episodes, %d crossings; want none",
					plan.name, workers, pc.Epochs(), pc.BarrierCrossings())
			}
			if got() != want() {
				t.Fatalf("%s, workers=%d: diverged from one worker:\n got %s\nwant %s",
					plan.name, workers, got(), want())
			}
			pc.Close()
		}
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

// TestEpochSkipAheadFromQuiescentStart: a skip-ahead run that starts
// inside a quiescent stretch jumps before its first slot at every worker
// count, so a 2-worker pool — one-slot or multi-slot episodes — fires
// and jumps exactly as one worker does.
func TestEpochSkipAheadFromQuiescentStart(t *testing.T) {
	run := func(workers, k int) (string, int64, int64) {
		e := newEpochComp(8, MaskAll)
		e.quiesceAt = 5
		pc := NewParallelClock(workers)
		pc.SetEpochBatch(k)
		pc.SetSkipAhead(true)
		pc.Register(e)
		defer pc.Close()
		pc.Run(5) // dense up to the quiescent stretch
		if done := pc.Run(100); done != 100 {
			t.Fatalf("workers=%d K=%d: Run(100) from a quiescent slot executed %d slots", workers, k, done)
		}
		return e.snapshot(), pc.SlotsFired(), pc.Jumps()
	}
	wantSnap, wantFired, wantJumps := run(1, EpochAuto)
	if wantFired != 5 || wantJumps != 1 {
		t.Fatalf("one worker fired %d slots in %d jumps, want 5 in 1", wantFired, wantJumps)
	}
	for _, k := range []int{1, 8} {
		snap, fired, jumps := run(2, k)
		if snap != wantSnap || fired != wantFired || jumps != wantJumps {
			t.Fatalf("2 workers K=%d: fired %d slots in %d jumps (state %s), want one worker's %d in %d (state %s)",
				k, fired, jumps, snap, wantFired, wantJumps, wantSnap)
		}
	}
}

// TestEpochBackToBackCallsStress drives a 2-worker engine and the
// one-worker oracle through the same several hundred back-to-back
// Run(1), Run(k), RunUntil, Step and Stop calls: on a batchable plan at
// K=4 and at K=1, which run on the pool, and on a plan with a plain
// ticker, which runs on one worker. Consecutive calls relaunch the pool
// while the previous run's workers are still leaving it — under -race
// this checks that nothing a launch writes is read by those workers.
func TestEpochBackToBackCallsStress(t *testing.T) {
	for _, tc := range []struct {
		name   string
		serial bool
		k      int
	}{
		{"serial=false", false, 4},
		{"serial=true", true, 4},
		{"epoch-batch=1", false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serial, k := tc.serial, tc.k
			build := func(eng *ParallelClock) (*epochComp, *[]Slot) {
				e := newEpochComp(8, MaskAll)
				e.stop = eng.Stop
				eng.Register(e)
				seen := new([]Slot)
				if serial {
					eng.Register(TickerFunc(func(t Slot, ph Phase) {
						if ph == PhaseUpdate {
							*seen = append(*seen, t)
						}
					}))
				}
				return e, seen
			}
			oracle, pool := NewClock(), NewParallelClock(2)
			pool.SetEpochBatch(k)
			defer pool.Close()
			oe, oseen := build(oracle)
			pe, pseen := build(pool)
			rng := NewRNG(21)
			for op := 0; op < 400; op++ {
				var want, got int64
				switch rng.Intn(5) {
				case 0:
					want, got = oracle.Run(1), pool.Run(1)
				case 1:
					n := int64(rng.Intn(3 * k))
					want, got = oracle.Run(n), pool.Run(n)
				case 2:
					target := oracle.Now() + Slot(rng.Intn(6))
					var wantHit, gotHit bool
					want, wantHit = oracle.RunUntil(func() bool { return oracle.Now() >= target }, 4)
					got, gotHit = pool.RunUntil(func() bool { return pool.Now() >= target }, 4)
					if wantHit != gotHit {
						t.Fatalf("op %d: RunUntil hit %v on the pool, %v on one worker", op, gotHit, wantHit)
					}
				case 3:
					oracle.Step()
					pool.Step()
				case 4:
					// Stop from inside slot now+at: one worker ends the run
					// after that slot, a pool at its episode edge; the
					// oracle then catches up to the pool's slot.
					at := Slot(1 + rng.Intn(2*k))
					oe.stopAt, pe.stopAt = oracle.Now()+at, pool.Now()+at
					got = pool.Run(20)
					if got <= int64(at) || got > int64(at)+int64(k) || (serial && got != int64(at)+1) {
						t.Fatalf("op %d: Stop in slot +%d ended the pool run after %d slots", op, at, got)
					}
					want = oracle.Run(int64(at) + 1)
					oe.stopAt, pe.stopAt = 0, 0
					want += oracle.Run(got - want)
				}
				if got != want || pool.Now() != oracle.Now() || pool.SlotsRun() != oracle.SlotsRun() {
					t.Fatalf("op %d: pool ran %d to slot %d (%d run), one worker %d to slot %d (%d run)",
						op, got, pool.Now(), pool.SlotsRun(), want, oracle.Now(), oracle.SlotsRun())
				}
			}
			if pe.snapshot() != oe.snapshot() || fmt.Sprint(*pseen) != fmt.Sprint(*oseen) {
				t.Fatalf("pool diverged from one worker:\n got %s\nwant %s", pe.snapshot(), oe.snapshot())
			}
			if serial {
				if pool.Epochs() != 0 {
					t.Fatalf("a plan with a plain ticker ran %d episodes on a pool", pool.Epochs())
				}
			} else if pool.Epochs() == 0 || pe.epCalls == 0 {
				t.Fatalf("vacuous: %d episodes, %d FinishEpoch calls", pool.Epochs(), pe.epCalls)
			}
		})
	}
}

// TestEpochPoisonPropagation: a panic inside a batched episode must
// poison the tree barrier, unwind every worker, and re-raise the
// original value on the caller — same contract as one-slot episodes.
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

// TestWorkersAutoDecisionTable pins the WorkersAuto resolution: a plan
// with serial work never gets a pool, and for a batchable plan the
// shard-width bar for turning on worker goroutines is
// autoEpochSerialShards with multi-slot episodes and the higher
// ("classic") autoSerialShards with one-slot episodes.
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
		{"batchable_one_slot_at_classic_bar", autoSerialShards, false, 1, gmp},
		{"serial_below_classic_bar", autoSerialShards - 1, true, EpochAuto, 1},
		{"serial_at_classic_bar", autoSerialShards, true, EpochAuto, 1},
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

// TestBarrierPureSpinPolicy pins the one spin rule: a barrier waiter
// spins purely only while the workers inside runs, summed over every
// engine of the process, number at most min(GOMAXPROCS, NumCPU). Each
// case starts its engines at once; each reads the rule from its
// component's first fold on worker 0 once every engine is inside its
// run, and all must equal a serial run. The cases with more Ps than CPUs pin the
// NumCPU half of the bound. The count falls back to 0 after the runs
// and after runs whose worker panicked (the poisoned path).
func TestBarrierPureSpinPolicy(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const slots = 5
	oracle := newEpochComp(8, MaskAll)
	sc := NewClock()
	sc.Register(oracle)
	sc.Run(slots)
	for _, tc := range []struct {
		name    string
		procs   int
		workers []int // one engine each, all running at once
	}{
		{"lone 2-worker pool", 2, []int{2}},
		{"two 2-worker pools", 2, []int{2, 2}},
		{"one worker beside a 2-worker pool", 2, []int{1, 2}},
		{"2-worker pool on one P", 1, []int{2}},
		{"lone 3-worker pool", 3, []int{3}}, // an odd tree
		{"lone 2-worker pool, more Ps than CPUs", runtime.NumCPU() + 1, []int{2}},
		{"pool larger than the CPUs", runtime.NumCPU() + 1, []int{runtime.NumCPU() + 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runtime.GOMAXPROCS(tc.procs)
			total := 0
			for _, w := range tc.workers {
				total += w
			}
			want := total <= min(tc.procs, runtime.NumCPU())
			var inside, read, done sync.WaitGroup
			inside.Add(len(tc.workers))
			read.Add(len(tc.workers))
			got := make([]bool, len(tc.workers))
			comps := make([]*epochComp, len(tc.workers))
			for i, w := range tc.workers {
				comps[i] = newEpochComp(8, MaskAll)
				pc := NewParallelClock(w)
				pc.Register(comps[i])
				probed := false
				comps[i].onFold = func() {
					if probed {
						return
					}
					probed = true
					inside.Done()
					inside.Wait()
					got[i] = spinsPurely()
					read.Done()
					read.Wait()
				}
				done.Add(1)
				go func() {
					defer done.Done()
					defer pc.Close()
					pc.Run(slots)
				}()
			}
			done.Wait()
			for i, w := range tc.workers {
				if got[i] != want {
					t.Errorf("%d-worker engine among %v on GOMAXPROCS %d, NumCPU %d: spins purely %v, want %v",
						w, tc.workers, tc.procs, runtime.NumCPU(), got[i], want)
				}
				if comps[i].snapshot() != oracle.snapshot() {
					t.Errorf("%d-worker engine diverged from serial:\n got %s\nwant %s", w, comps[i].snapshot(), oracle.snapshot())
				}
			}
			if n := runWorkers.Load(); n != 0 {
				t.Fatalf("%d workers still counted inside runs after every run returned", n)
			}
		})
	}
	t.Run("panicked runs", func(t *testing.T) {
		runtime.GOMAXPROCS(2)
		for _, w := range []int{1, 2} {
			ec := newEpochComp(8, MaskAll)
			ec.panicAt, ec.panicSh = 2, 7 // shard 7 is the last worker's
			pc := NewParallelClock(w)
			pc.Register(ec)
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%d workers: the shard panic did not reach the caller", w)
					}
				}()
				pc.Run(slots)
			}()
			pc.Close()
			if n := runWorkers.Load(); n != 0 {
				t.Fatalf("%d workers still counted inside runs after a %d-worker run panicked", n, w)
			}
		}
	})
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

// BenchmarkTreeBarrierCrossing is the barrier's own number: one op is
// one crossing of a two-worker tree, counted as one run's two workers,
// so it has the pure spin phase a lone pool that fits the machine gets.
func BenchmarkTreeBarrierCrossing(b *testing.B) {
	if min(runtime.GOMAXPROCS(0), runtime.NumCPU()) < 2 {
		b.Skip("fewer than 2 Ps or CPUs: a two-worker pool would not spin")
	}
	defer leaveRun(enterRun(2))
	var bar treeBarrier
	bar.init(2, pickArity(2), defaultBarrierSpins)
	done := make(chan struct{})
	go func() {
		var sense uint64
		for i := 0; i < b.N; i++ {
			bar.await(1, &sense)
		}
		close(done)
	}()
	var sense uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bar.await(0, &sense)
	}
	b.StopTimer()
	<-done
}

// FuzzEpochSchedule drives arbitrary (component mix, workers, arity, K,
// chunked budgets) through the batched engine against the serial
// oracle. Specs build a fleet of epoch-safe shardables with varying
// shard counts and phase masks; one spec bit can add a plain serial
// ticker, which puts the plan on one worker — both must match the
// oracle exactly.
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
		if addSerial {
			if pc.Epochs() != 0 {
				t.Fatalf("a plan with a plain ticker ran %d episodes on a pool", pc.Epochs())
			}
		} else if n-mid >= 2 && pc.Epochs() >= pc.SlotsFired() && pc.SlotsFired() > 2 {
			// The all-shardable plan must actually have batched (unless a
			// 1-slot chunk degenerated every episode, which K>=2 and n>=2
			// avoid for the second chunk when n-mid >= 2).
			t.Fatalf("batchable plan never amortized: epochs=%d fired=%d", pc.Epochs(), pc.SlotsFired())
		}
	})
}
