package network

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"cfm/internal/metrics"
	"cfm/internal/sim"
)

// occupancyRecount is the from-scratch view of the network's derived
// occupancy state, counted over the queues themselves.
type occupancyRecount struct {
	occ     []uint64 // per-column input bitmaps, the layout of BufferedOmega.occ
	full    []int    // queues at capacity, per column
	queued  []int    // packets buffered, per column
	backlog int      // packets in the source queues
}

func recountOccupancy(b *BufferedOmega) occupancyRecount {
	k, terms := b.o.Columns(), b.cfg.Terminals
	words := (terms + 63) / 64
	r := occupancyRecount{occ: make([]uint64, k*words), full: make([]int, k), queued: make([]int, k)}
	for i := range b.inject {
		r.backlog += b.inject[i].Len()
	}
	for j := 0; j < k; j++ {
		for pos := 0; pos < terms; pos++ {
			var feed *sim.Queue[Packet]
			if j == 0 {
				feed = &b.inject[unshuffle(pos, k)]
			} else {
				feed = b.colQ(j-1, unshuffle(pos, k))
			}
			if feed.Len() > 0 {
				r.occ[j*words+pos/64] |= 1 << (pos % 64)
			}
			q := b.colQ(j, pos)
			r.queued[j] += q.Len()
			if q.Len() >= b.cfg.QueueCap {
				r.full[j]++
			}
		}
	}
	return r
}

// checkOccupancy compares the incrementally kept state — bitmaps, full
// counts, occupancy counts, the accessors and all four gauge families —
// with a recount.
func checkOccupancy(t *testing.T, b *BufferedOmega, reg *metrics.Registry, at string) occupancyRecount {
	t.Helper()
	r := recountOccupancy(b)
	if !slices.Equal(b.occ, r.occ) {
		t.Fatalf("%s: occupancy bitmaps %x, recount %x", at, b.occ, r.occ)
	}
	if !slices.Equal(b.full, r.full) || !slices.Equal(b.FullQueues(), r.full) {
		t.Fatalf("%s: full counts %v, recount %v", at, b.full, r.full)
	}
	if !slices.Equal(b.colCount, r.queued) || b.injectCount != r.backlog {
		t.Fatalf("%s: counts %v/%d, recount %v/%d", at, b.colCount, b.injectCount, r.queued, r.backlog)
	}
	total := 0
	for _, n := range r.queued {
		total += n
	}
	if b.QueuedPackets() != total || b.SourceBacklog() != r.backlog {
		t.Fatalf("%s: QueuedPackets %d, SourceBacklog %d; recount %d, %d",
			at, b.QueuedPackets(), b.SourceBacklog(), total, r.backlog)
	}
	if reg == nil {
		return r
	}
	if v := reg.Gauge("net_queued_packets").Value(); v != int64(total) {
		t.Fatalf("%s: net_queued_packets %d, recount %d", at, v, total)
	}
	if v := reg.Gauge("net_source_backlog").Value(); v != int64(r.backlog) {
		t.Fatalf("%s: net_source_backlog %d, recount %d", at, v, r.backlog)
	}
	for j := range r.queued {
		if v := reg.Gauge(fmt.Sprintf(`net_stage_queued{stage="%d"}`, j)).Value(); v != int64(r.queued[j]) {
			t.Fatalf("%s: stage %d queued gauge %d, recount %d", at, j, v, r.queued[j])
		}
		if v := reg.Gauge(fmt.Sprintf(`net_stage_full_queues{stage="%d"}`, j)).Value(); v != int64(r.full[j]) {
			t.Fatalf("%s: stage %d full gauge %d, recount %d", at, j, v, r.full[j])
		}
	}
	return r
}

// TestBufferedOmegaIncrementalOccupancy checks, after every slot, that
// the occupancy bitmaps, the full-queue counts and the gauges the sweep
// keeps incrementally equal a recount over the queues: through a
// saturating hot spot, then a Rate 0 drain to empty, on one and two
// workers, and across a checkpoint/restore taken mid-saturation.
func TestBufferedOmegaIncrementalOccupancy(t *testing.T) {
	cfg := BufferedConfig{Terminals: 16, QueueCap: 4, ServiceTime: 2, Rate: 0.3,
		HotFraction: 0.4, HotModule: 5, Seed: 23}
	const hotSlots, restoreAt, drainBudget = 1500, 700, 5000
	for _, tc := range []struct {
		workers int
		restore bool
	}{{1, false}, {2, false}, {1, true}, {2, true}} {
		t.Run(fmt.Sprintf("workers=%d/restore=%v", tc.workers, tc.restore), func(t *testing.T) {
			build := func() (*BufferedOmega, *metrics.Registry, *sim.ParallelClock) {
				b := NewBufferedOmega(cfg)
				reg := metrics.New()
				b.Instrument(reg)
				clk := sim.NewParallelClock(tc.workers)
				clk.Register(b)
				t.Cleanup(clk.Close)
				return b, reg, clk
			}
			b, reg, clk := build()
			maxFull := make([]int, b.o.Columns())
			for s := 1; s <= hotSlots; s++ {
				clk.Run(1)
				r := checkOccupancy(t, b, reg, fmt.Sprintf("hot slot %d", s))
				for j, n := range r.full {
					maxFull[j] = max(maxFull[j], n)
				}
				if tc.restore && s == restoreAt {
					var buf bytes.Buffer
					if err := clk.Checkpoint(&buf); err != nil {
						t.Fatalf("checkpoint: %v", err)
					}
					b, reg, clk = build()
					if err := clk.Restore(&buf); err != nil {
						t.Fatalf("restore: %v", err)
					}
					checkOccupancy(t, b, nil, "restored")
				}
			}
			for j, n := range maxFull {
				if n == 0 {
					t.Fatalf("column %d never held a full queue: the hot spot did not saturate", j)
				}
			}
			b.cfg.Rate = 0
			for s := 1; ; s++ {
				if s > drainBudget {
					t.Fatalf("network not drained after %d slots", drainBudget)
				}
				clk.Run(1)
				r := checkOccupancy(t, b, reg, fmt.Sprintf("drain slot %d", s))
				if r.backlog == 0 && b.QueuedPackets() == 0 {
					break
				}
			}
			if slices.ContainsFunc(b.occ, func(w uint64) bool { return w != 0 }) {
				t.Fatalf("drained network keeps occupancy bits %x", b.occ)
			}
		})
	}
}
