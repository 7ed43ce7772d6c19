package core

import (
	"bytes"
	"fmt"
	"testing"

	"cfm/internal/flight"
	"cfm/internal/sim"
)

// bruteHorizon is the horizon by definition: the earliest eventSlot or
// next arrival over every processor, clamped to now. A busy processor
// draws its arrivals only when it acts, so its nextArrival may lie
// before now; the next arrival is then the one an eager sweep would
// hold, replayed on a copy of the processor's stream. It reads no cached
// bound.
func bruteHorizon(p *Partial, now sim.Slot) sim.Slot {
	h := sim.HorizonNone
	for j := range p.state {
		a, r := p.nextArrival[j], p.rngs[j]
		for a < now {
			a += sim.Slot(p.thinkTime(&r))
		}
		h = min(h, p.eventSlot(j), a)
	}
	return max(h, now)
}

// boundPartial is a Partial whose Horizon the engine calls through a
// check: with check set, every call must equal bruteHorizon; without it,
// Horizon is bruteHorizon itself, the per-processor fold that predates
// the per-set bounds, which leaves setNext as TickShard marks it.
type boundPartial struct {
	*Partial
	t      *testing.T
	check  bool
	checks int
}

func (b *boundPartial) Horizon(now sim.Slot) sim.Slot {
	want := bruteHorizon(b.Partial, now)
	if !b.check {
		return want
	}
	b.checks++
	got := b.Partial.Horizon(now)
	if got != want {
		b.t.Errorf("slot %d: Horizon = %d, brute-force minimum of eventSlot and next arrival = %d", now, got, want)
	}
	return got
}

// boundMode is one engine setting of the set-bound test.
type boundMode struct {
	workers int  // 1, or 2 with EpochAuto batching
	skip    bool // skip-ahead
	cut     bool // checkpoint at mid-run and restore into a fresh rig
	check   bool // Partial's own Horizon, checked; else bruteHorizon
}

func (m boundMode) String() string {
	return fmt.Sprintf("workers=%d/skip=%v/cut=%v/check=%v", m.workers, m.skip, m.cut, m.check)
}

// boundResult is what one run leaves behind.
type boundResult struct {
	completed, retries, latency, local, remote int64
	spans                                      uint64
	fired, jumps                               int64
	checks                                     int
}

// boundSteps are the Run lengths the driver cycles through: single slots,
// and lengths that end mid-episode and span several.
var boundSteps = []int64{1, 3, 16, 37, 5, 1, 1}

// runBound drives a Partial for slots slots in mode m. After every Run it
// calls Horizon itself as well, so the dense runs refresh the set bounds
// too and their TickShards take the early return.
func runBound(t *testing.T, cfg PartialConfig, m boundMode, slots int64) boundResult {
	t.Helper()
	build := func() (*sim.ParallelClock, *boundPartial, *flight.Recorder) {
		pc := sim.NewParallelClock(m.workers)
		pc.SetSkipAhead(m.skip)
		p := NewPartial(cfg)
		rec := flight.NewRecorder(1 << 14)
		p.RecordFlight(rec)
		b := &boundPartial{Partial: p, t: t, check: m.check}
		pc.Register(b)
		pc.AttachState("flight", rec)
		return pc, b, rec
	}
	pc, b, rec := build()
	checks := 0
	cut := m.cut
	for i := 0; pc.Now() < sim.Slot(slots); i++ {
		pc.Run(min(boundSteps[i%len(boundSteps)], slots-int64(pc.Now())))
		b.Horizon(pc.Now())
		if cut && pc.Now() >= sim.Slot(slots/2) {
			cut = false
			var buf bytes.Buffer
			if err := pc.Checkpoint(&buf); err != nil {
				t.Fatalf("%v: checkpoint: %v", m, err)
			}
			pc.Close()
			checks += b.checks
			pc, b, rec = build()
			if err := pc.Restore(&buf); err != nil {
				t.Fatalf("%v: restore: %v", m, err)
			}
		}
	}
	pc.Close()
	p := b.Partial
	return boundResult{
		completed: p.Completed, retries: p.Retries, latency: p.TotalLatency,
		local: p.LocalAcc, remote: p.RemoteAcc, spans: rec.Digest(),
		fired: pc.SlotsFired(), jumps: pc.Jumps(), checks: checks + b.checks,
	}
}

// boundConfig is the Fig 3.14/3.15 machine (β = 17) at n processors in m
// clusters.
func boundConfig(n, m int, rate float64, seed uint64) PartialConfig {
	return PartialConfig{Processors: n, Modules: m, BlockWords: 16, BankCycle: 2,
		Locality: 0.9, AccessRate: rate, RetryMean: 4, Seed: seed}
}

// placedConfig is a 64/8 machine with a Homes placement: processors of
// contention set 0 and every fifth processor are idle (set 0 is idle
// throughout), and every job runs three clusters from its home.
func placedConfig() PartialConfig {
	placed := boundConfig(64, 8, 0.02, 11)
	placed.Homes = make([]int, placed.Processors)
	for p := range placed.Homes {
		switch {
		case p%placed.ClusterSize() == 0 || p%5 == 0:
			placed.Homes[p] = -1
		default:
			placed.Homes[p] = (placed.Cluster(p) + 3) % placed.Modules
		}
	}
	return placed
}

// TestPartialSetBound pins the per-set event bound behind Partial's
// skip-ahead sweep. Horizon must equal the brute-force minimum of
// eventSlot and next arrival after every Run and at every engine fold;
// the simulation and its spans must equal the dense run's whatever the
// bounds let TickShard skip; and a skip-ahead run must fire and jump
// exactly where a run on the brute-force horizon does. Each shape runs skip-ahead off and on,
// on one worker and on two with EpochAuto batching, straight through and
// cut by a checkpoint/restore at mid-run.
func TestPartialSetBound(t *testing.T) {
	base, placed := boundConfig, placedConfig()
	shapes := []struct {
		name  string
		cfg   PartialConfig
		slots int64
		jumps bool // the skip-ahead run must jump at least once
	}{
		{"64/8/r=0.001", base(64, 8, 0.001, 7), 8000, true},
		{"128/16/r=0.05", base(128, 16, 0.05, 5), 1500, false},
		{"1024/128/r=0.04", base(1024, 128, 0.04, 3), 600, false},
		{"64/8/homes", placed, 3000, true},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			dense := runBound(t, sh.cfg, boundMode{workers: 1}, sh.slots)
			if dense.completed == 0 {
				t.Fatal("no access completed: the comparison is vacuous")
			}
			for _, workers := range []int{1, 2} {
				for _, skip := range []bool{false, true} {
					ref := runBound(t, sh.cfg, boundMode{workers: workers, skip: skip}, sh.slots)
					for _, cut := range []bool{false, true} {
						m := boundMode{workers: workers, skip: skip, cut: cut, check: true}
						got := runBound(t, sh.cfg, m, sh.slots)
						if got.checks == 0 {
							t.Fatalf("%v: Horizon was never checked", m)
						}
						if g, w := got.completed, dense.completed; g != w {
							t.Errorf("%v: completed %d, dense %d", m, g, w)
						}
						if g, w := [4]int64{got.retries, got.latency, got.local, got.remote},
							[4]int64{dense.retries, dense.latency, dense.local, dense.remote}; g != w {
							t.Errorf("%v: retries, latency, local, remote = %v, dense %v", m, g, w)
						}
						if got.spans != dense.spans {
							t.Errorf("%v: span digest %x, dense %x", m, got.spans, dense.spans)
						}
						if got.fired != ref.fired || got.jumps != ref.jumps {
							t.Errorf("%v: fired %d slots in %d jumps, brute-force horizon %d in %d",
								m, got.fired, got.jumps, ref.fired, ref.jumps)
						}
						if skip && sh.jumps && got.jumps == 0 {
							t.Errorf("%v: no jump: the skip-ahead comparison is vacuous", m)
						}
					}
				}
			}
		})
	}
}
