//cfm:wallclock-ok benchmark harness: host time is the measured quantity and never reaches simulation state

package main

import (
	"time"
)

// Host-speed normalization. On a shared host the same binary runs up to
// 40% slower for seconds at a time (co-tenants on the same cores), which
// moves every percentile of a whole run. The benchmark therefore times a
// fixed reference kernel — the probe, part of the benchmark and never of
// the program — just before and just after every measured operation, and
// reports each operation's time divided by the median probe around it,
// scaled by probeNominal so the value reads as time on a quiet reference
// host. A slowdown that hits the operation and its probes alike cancels;
// a change to the simulator does not touch the probe.

// probeNominal is the probe time the results are scaled to: 1 ms. The
// probe's median on the reference host (baseline.json) is about 1.06 ms.
const probeNominal = 1e6 // ns

// probeKernel is the probe's working set: 256 KiB, cache-resident like
// the fleets' hot per-processor arrays.
type probeKernel struct {
	table [1 << 15]uint64
	sink  uint64 // keeps the loads live
}

// run executes the kernel once — a xorshift walk of read-modify-writes
// over the table — and returns its duration.
func (k *probeKernel) run() time.Duration {
	t0 := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	const mask = len(k.table) - 1
	for i := 0; i < 400_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x) & mask
		k.table[j] += x
		k.sink += k.table[(j*7)&mask]
	}
	return time.Since(t0)
}

// timings records measured durations, each between two probes: probes
// 2i and 2i+1 ran just before and just after d[i].
type timings struct {
	d, probes []float64 // ns
	kernel    *probeKernel
}

func (t *timings) probe() {
	if t.kernel == nil {
		t.kernel = new(probeKernel)
	}
	t.probes = append(t.probes, float64(t.kernel.run()))
}

func (t *timings) add(d time.Duration) { t.d = append(t.d, float64(d)) }

// probeWindow is how many neighbouring operations on each side lend their
// probes to an operation's host-speed estimate. Slow phases last seconds,
// so the window stays within one; the median over it shrugs off a single
// probe that a stray interrupt or runtime background work slowed.
const probeWindow = 1

// normalized returns each duration in reference-host nanoseconds: divided
// by the median probe of its window, times probeNominal.
func (t *timings) normalized() []float64 {
	out := make([]float64, len(t.d))
	for i, d := range t.d {
		lo, hi := 2*max(0, i-probeWindow), min(len(t.probes), 2*(i+probeWindow+1))
		out[i] = d * probeNominal / median(t.probes[lo:hi])
	}
	return out
}
