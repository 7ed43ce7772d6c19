package att

import (
	"testing"

	"cfm/internal/sim"
)

// lockHarness runs a Locker where each requesting processor holds the
// lock for holdSlots and releases, repeating rounds times.
type lockHarness struct {
	tr     *Tracked
	lk     *Locker
	clk    *sim.Clock
	rounds []int // remaining acquisitions per processor
	relAt  []sim.Slot

	order      []int // processors in acquisition order
	maxHolders int   // max concurrently held (mutual exclusion check)
}

func newLockHarness(m, holdSlots int, contenders []int, rounds int) *lockHarness {
	h := &lockHarness{
		tr:     NewTracked(m, EarliestWins, nil),
		clk:    sim.NewClock(),
		rounds: make([]int, m),
		relAt:  make([]sim.Slot, m),
	}
	h.lk = NewLocker(h.tr, 0)
	for _, p := range contenders {
		h.rounds[p] = rounds
		h.lk.Request(p)
	}
	h.lk.OnAcquire = func(p int, t sim.Slot) {
		h.order = append(h.order, p)
		h.relAt[p] = t + sim.Slot(holdSlots)
	}
	driver := sim.TickerFunc(func(t sim.Slot, ph sim.Phase) {
		if ph != sim.PhaseIssue {
			return
		}
		holders := 0
		for p := 0; p < m; p++ {
			if h.lk.Holding(p) {
				holders++
			}
		}
		if holders > h.maxHolders {
			h.maxHolders = holders
		}
		for p := 0; p < m; p++ {
			if h.lk.Holding(p) && t >= h.relAt[p] {
				h.rounds[p]--
				h.lk.Release(p)
				if h.rounds[p] > 0 {
					h.lk.Request(p)
				}
			}
		}
	})
	h.clk.Register(driver)
	h.clk.Register(h.lk)
	h.clk.Register(h.tr)
	return h
}

func TestLockerSingleAcquire(t *testing.T) {
	h := newLockHarness(8, 4, []int{2}, 1)
	h.clk.Run(200)
	if len(h.order) != 1 || h.order[0] != 2 {
		t.Fatalf("acquisition order %v, want [2]", h.order)
	}
	// After release the lock block must read free.
	if h.tr.PeekBlock(0)[0] != 0 {
		t.Fatalf("lock word %d after release, want 0", h.tr.PeekBlock(0)[0])
	}
}

func TestLockerUncontendedLatency(t *testing.T) {
	// An uncontended acquire is one atomic swap: 2m slots.
	h := newLockHarness(8, 1, []int{0}, 1)
	var acquiredAt sim.Slot = -1
	h.lk.OnAcquire = func(p int, tt sim.Slot) { acquiredAt = tt }
	h.clk.Run(100)
	if acquiredAt != 15 {
		t.Fatalf("uncontended acquire at slot %d, want 15 (swap latency 2m)", acquiredAt)
	}
}

func TestLockerMutualExclusion(t *testing.T) {
	h := newLockHarness(8, 3, []int{0, 2, 5, 7}, 3)
	h.clk.Run(20000)
	if h.maxHolders > 1 {
		t.Fatalf("observed %d simultaneous holders", h.maxHolders)
	}
	if got := len(h.order); got != 12 {
		t.Fatalf("%d acquisitions, want 12 (4 procs × 3 rounds)", got)
	}
	// Everyone got the lock the right number of times.
	counts := map[int]int{}
	for _, p := range h.order {
		counts[p]++
	}
	for _, p := range []int{0, 2, 5, 7} {
		if counts[p] != 3 {
			t.Fatalf("P%d acquired %d times, want 3 (order %v)", p, counts[p], h.order)
		}
	}
}

func TestLockerAllProcessorsContend(t *testing.T) {
	contenders := []int{0, 1, 2, 3, 4, 5, 6, 7}
	h := newLockHarness(8, 2, contenders, 2)
	h.clk.Run(60000)
	if h.maxHolders > 1 {
		t.Fatalf("observed %d simultaneous holders", h.maxHolders)
	}
	if got := len(h.order); got != 16 {
		t.Fatalf("%d acquisitions, want 16", got)
	}
}

func TestLockerHoldingAndReleasePanics(t *testing.T) {
	tr := NewTracked(8, EarliestWins, nil)
	lk := NewLocker(tr, 0)
	if lk.Holding(0) {
		t.Fatal("Holding true before any acquire")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Release without holding did not panic")
		}
	}()
	lk.Release(0)
}

func TestLockerRequiresEarliestWins(t *testing.T) {
	tr := NewTracked(8, LatestWins, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("NewLocker on LatestWins memory did not panic")
		}
	}()
	NewLocker(tr, 0)
}

// TestLockerNoHotSpotProperty: spinning processors never force ATT-level
// restarts on the release write beyond bounded interference — concretely,
// the release always completes and the system makes progress even with
// every other processor spinning (the §4.2.2 claim that busy-waiting
// creates no contention for the lock holder).
func TestLockerSpinnersDoNotStarveRelease(t *testing.T) {
	h := newLockHarness(8, 1, []int{0, 1, 2, 3, 4, 5, 6, 7}, 1)
	slots := h.clk.Run(60000)
	if len(h.order) != 8 {
		t.Fatalf("%d acquisitions after %d slots, want 8", len(h.order), slots)
	}
}

// TestLockersOnDifferentBlocksIndependent: two locks on different blocks
// never interfere — their holders coexist (the no-false-sharing property
// of block-granular locks).
func TestLockersOnDifferentBlocksIndependent(t *testing.T) {
	tr := NewTracked(8, EarliestWins, nil)
	lkA := NewLocker(tr, 0)
	lkB := NewLocker(tr, 1)
	clk := sim.NewClock()
	clk.Register(lkA)
	clk.Register(lkB)
	clk.Register(tr)
	lkA.Request(0)
	lkB.Request(1)
	if _, ok := clk.RunUntil(func() bool { return lkA.Holding(0) && lkB.Holding(1) }, 5000); !ok {
		t.Fatalf("independent locks did not coexist (A held: %v, B held: %v)",
			lkA.Holding(0), lkB.Holding(1))
	}
}

// TestLockerSpinPathLeavesReleaseUndelayed drives the §4.2.2 busy-wait
// loop itself: each hold lasts far longer than a swap (2m slots), so a
// losing swap completes while the lock is still held and its processor
// spins on reads of the lock block. The claim under test is that the
// spinning costs the holder nothing: every release write completes in
// the uncontended write time, whatever the number of spinners.
func TestLockerSpinPathLeavesReleaseUndelayed(t *testing.T) {
	const m, rounds = 8, 2
	const hold = 20 * m // ten swaps' time
	type release struct {
		latency  sim.Slot
		spinners int
	}
	run := func(contenders []int) ([]release, *lockHarness) {
		h := newLockHarness(m, hold, contenders, rounds)
		var rels []release
		relAt := make([]sim.Slot, m)
		inFlight := make([]bool, m)
		spinAt := make([]int, m)
		// Registered after the harness, so it sees each slot's release
		// writes already issued.
		h.clk.Register(sim.TickerFunc(func(t sim.Slot, ph sim.Phase) {
			if ph != sim.PhaseIssue {
				return
			}
			for p := 0; p < m; p++ {
				switch {
				case inFlight[p] && h.lk.state[p] != lockUnlock:
					inFlight[p] = false
					rels = append(rels, release{latency: t - relAt[p], spinners: spinAt[p]})
				case !inFlight[p] && h.lk.state[p] == lockUnlock:
					inFlight[p], relAt[p], spinAt[p] = true, t, 0
					for q := 0; q < m; q++ {
						if h.lk.state[q] == lockSpinning || h.lk.state[q] == lockReading {
							spinAt[p]++
						}
					}
				}
			}
		}))
		done := func() bool {
			for p := 0; p < m; p++ {
				if h.rounds[p] > 0 || inFlight[p] {
					return false
				}
			}
			return true
		}
		if _, ok := h.clk.RunUntil(done, 100000); !ok {
			t.Fatalf("contenders %v: lock rounds did not finish", contenders)
		}
		if h.maxHolders > 1 {
			t.Fatalf("contenders %v: observed %d simultaneous holders", contenders, h.maxHolders)
		}
		if got, want := len(h.order), len(contenders)*rounds; got != want {
			t.Fatalf("contenders %v: %d acquisitions, want %d", contenders, got, want)
		}
		return rels, h
	}

	alone, h := run([]int{3})
	if h.tr.CompletedReads != 0 {
		t.Fatalf("a lone contender issued %d spin reads", h.tr.CompletedReads)
	}
	// The watcher sees a write issued at slot t done at t+m: it visits
	// each of the m banks once and completes in slot t+m−1.
	const base = sim.Slot(m)
	for _, r := range alone {
		if r.latency != base {
			t.Fatalf("uncontended release took %d slots, want %d", r.latency, base)
		}
	}
	for _, contenders := range [][]int{{0, 2, 5, 7}, {0, 1, 2, 3, 4, 5, 6, 7}} {
		rels, h := run(contenders)
		if h.tr.CompletedReads == 0 {
			t.Fatalf("contenders %v: no spin read completed; the spin path never ran", contenders)
		}
		most := 0
		for _, r := range rels {
			if r.latency != base {
				t.Fatalf("contenders %v: a release with %d spinners took %d slots, uncontended %d",
					contenders, r.spinners, r.latency, base)
			}
			if r.spinners > most {
				most = r.spinners
			}
		}
		if most < len(contenders)-1 {
			t.Fatalf("contenders %v: at most %d spinners at a release, want %d", contenders, most, len(contenders)-1)
		}
	}
}
