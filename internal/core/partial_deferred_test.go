package core

import (
	"bytes"
	"fmt"
	"testing"

	"cfm/internal/flight"
	"cfm/internal/sim"
)

// eagerPartial is the oracle of the deferred-arrival test: a Partial
// that draws every processor's arrivals through the slot after every
// fold. At every slot boundary each busy processor has then drawn its
// arrivals through the last finished slot, which is the state of a
// sweep that ticked a processor at each of its arrivals. It draws with
// its own loop, not settle, so a fault in settle cannot hide in it.
type eagerPartial struct{ *Partial }

func (e eagerPartial) FinishShards(t sim.Slot, ph sim.Phase) {
	e.Partial.FinishShards(t, ph)
	e.drawThrough(t)
}

func (e eagerPartial) FinishEpoch(from, to sim.Slot) {
	e.Partial.FinishEpoch(from, to)
	e.drawThrough(to - 1)
}

func (e eagerPartial) drawThrough(t sim.Slot) {
	for j := range e.nextArrival {
		e.arrive(j, t)
	}
}

// deferredRig is one engine running one Partial, deferred or eager.
type deferredRig struct {
	pc  *sim.ParallelClock
	p   *Partial
	rec *flight.Recorder
}

func newDeferredRig(cfg PartialConfig, workers int, skip, eager bool) deferredRig {
	pc := sim.NewParallelClock(workers)
	pc.SetSkipAhead(skip)
	p := NewPartial(cfg)
	rec := flight.NewRecorder(1 << 14)
	p.RecordFlight(rec)
	if eager {
		pc.Register(eagerPartial{p})
	} else {
		pc.Register(p)
	}
	pc.AttachState("flight", rec)
	return deferredRig{pc: pc, p: p, rec: rec}
}

// deferred counts the processors holding an arrival through the last
// finished slot that they have not drawn yet.
func (r deferredRig) deferred() int {
	n := 0
	for _, a := range r.p.nextArrival {
		if a <= r.p.finished {
			n++
		}
	}
	return n
}

func (r deferredRig) checkpoint(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.pc.Checkpoint(&buf); err != nil {
		t.Fatalf("checkpoint at slot %d: %v", r.pc.Now(), err)
	}
	return buf.Bytes()
}

// TestPartialDeferredArrivals pins the deferred arrivals of Partial's
// sweep: a busy processor draws its arrivals when it next acts, not at
// each arrival's slot. The oracle is the same Partial with every
// arrival drawn through each folded slot (eagerPartial), the state of
// the eager sweep. At every cut the two checkpoints, which
// carry SlotsFired and Jumps, must be byte-identical; at mid-run the
// deferred run is restored into a fresh rig and checkpointed again at
// once; at the end the counters and the flight digest must match. Each
// shape runs on one worker and on two with EpochAuto batching, dense
// and skip-ahead.
func TestPartialDeferredArrivals(t *testing.T) {
	shapes := []struct {
		name  string
		cfg   PartialConfig
		slots int64
	}{
		{"1024/128/r=0.2", boundConfig(1024, 128, 0.2, 3), 600},
		{"4096/512/r=0.04", boundConfig(4096, 512, 0.04, 9), 400},
		{"64/8/homes", placedConfig(), 3000},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			seen := 0 // deferred arrivals met at the cuts, over every mode
			for _, workers := range []int{1, 2} {
				for _, skip := range []bool{false, true} {
					mode := fmt.Sprintf("workers=%d/skip=%v", workers, skip)
					seen += runDeferred(t, mode, sh.cfg, sh.slots, workers, skip)
				}
			}
			if seen == 0 {
				t.Fatal("no processor deferred an arrival at any cut: the comparison is vacuous")
			}
		})
	}
}

// runDeferred drives a deferred and an eager rig in lockstep and returns
// how many deferred arrivals the deferred run held at its cuts.
func runDeferred(t *testing.T, mode string, cfg PartialConfig, slots int64, workers int, skip bool) int {
	t.Helper()
	got := newDeferredRig(cfg, workers, skip, false)
	want := newDeferredRig(cfg, workers, skip, true)
	defer func() { got.pc.Close(); want.pc.Close() }()
	cuts := []sim.Slot{sim.Slot(slots / 4), sim.Slot(slots / 2), sim.Slot(3 * slots / 4)}
	restoreAt := cuts[1]
	seen := 0
	compare := func(what string) {
		t.Helper()
		if g, w := got.checkpoint(t), want.checkpoint(t); !bytes.Equal(g, w) {
			t.Fatalf("%s: checkpoint %s at slot %d differs from the eager sweep's (%d vs %d bytes)",
				mode, what, got.pc.Now(), len(g), len(w))
		}
	}
	for i := 0; got.pc.Now() < sim.Slot(slots); i++ {
		n := min(boundSteps[i%len(boundSteps)], slots-int64(got.pc.Now()))
		got.pc.Run(n)
		want.pc.Run(n)
		if g, w := got.pc.Now(), want.pc.Now(); g != w {
			t.Fatalf("%s: deferred run at slot %d, eager run at %d", mode, g, w)
		}
		if len(cuts) == 0 || got.pc.Now() < cuts[0] {
			continue
		}
		cuts = cuts[1:]
		seen += got.deferred()
		compare("at a cut")
		if got.pc.Now() >= restoreAt && restoreAt >= 0 {
			restoreAt = -1
			snap := got.checkpoint(t)
			got.pc.Close()
			got = newDeferredRig(cfg, workers, skip, false)
			if err := got.pc.Restore(bytes.NewReader(snap)); err != nil {
				t.Fatalf("%s: restore: %v", mode, err)
			}
			compare("right after a restore")
		}
	}
	if restoreAt >= 0 {
		t.Fatalf("%s: the run never reached the restore cut", mode)
	}
	g, w := got.p, want.p
	if gc, wc := [5]int64{g.Completed, g.Retries, g.TotalLatency, g.LocalAcc, g.RemoteAcc},
		[5]int64{w.Completed, w.Retries, w.TotalLatency, w.LocalAcc, w.RemoteAcc}; gc != wc {
		t.Errorf("%s: completed, retries, latency, local, remote = %v, eager %v", mode, gc, wc)
	}
	if gd, wd := got.rec.Digest(), want.rec.Digest(); gd != wd {
		t.Errorf("%s: flight digest %x, eager %x", mode, gd, wd)
	}
	if gf, wf := [2]int64{got.pc.SlotsFired(), got.pc.Jumps()}, [2]int64{want.pc.SlotsFired(), want.pc.Jumps()}; gf != wf {
		t.Errorf("%s: fired and jumps = %v, eager %v", mode, gf, wf)
	}
	compare("at the end")
	return seen
}
