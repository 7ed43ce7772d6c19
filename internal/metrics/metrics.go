// Package metrics is the simulation observatory's registry: named
// counters, gauges, and histograms that every subsystem reports into,
// plus a slot-sampled time-series recorder and exporters (Prometheus
// text exposition, JSONL dumps, a live HTTP endpoint).
//
// Two rules make the registry safe inside the cycle engine:
//
//  1. Nil fast path. A nil *Registry hands out nil handles, and every
//     handle method is a no-op on a nil receiver — exactly the nil
//     *sim.Trace idiom — so instrumented hot paths cost one predictable
//     branch when observability is off (the <2% engine-bench budget).
//  2. Determinism. Handle updates from simulation code must happen
//     either in single-threaded engine contexts (serial tickers,
//     FinishShards finalizers, both of which the engines run in a fixed
//     order) or as per-shard staged deltas folded by the finalizer in
//     ascending shard order. Counter/Gauge use atomics so that even a
//     misplaced concurrent Add is a commutative, race-free operation
//     whose final snapshot is still identical at any worker count; the
//     determinism matrix (matrix_test.go at the repository root)
//     verifies snapshots bit for bit against the serial Clock.
//
// Metric names may embed Prometheus labels directly, e.g.
// "net_stage_queued{stage=\"2\"}"; the exposition writer splits the
// family name off the label set. Histogram names must be label-free.
package metrics

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric handle. The nil Counter
// discards updates, so components hold handles unconditionally.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add increases the counter. Safe on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increases the counter by one. Safe on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Name returns the metric name ("" on a nil receiver).
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Gauge is a last-value metric handle. The nil Gauge discards updates.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Set stores the gauge value. Safe on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by a delta. Safe on a nil receiver.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Name returns the metric name ("" on a nil receiver).
func (g *Gauge) Name() string {
	if g == nil {
		return ""
	}
	return g.name
}

// Histogram counts integer observations into fixed-width bins (floor
// division, so negative observations bin correctly). The nil Histogram
// discards observations. Observe is mutex-guarded, so goroutine-
// concurrent recorders (the binding runtime) may share one handle.
type Histogram struct {
	name  string
	width int64

	mu         sync.Mutex
	bins       map[int64]int64
	count, sum int64
}

// Observe records one observation. Safe on a nil receiver.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.bins[floorDiv(v, h.width)]++
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// ObserveAll records every value of vs under one lock: the bins, count
// and sum equal those of one Observe per value. A run of values that
// share a bin touches the map once. Safe on a nil receiver.
func (h *Histogram) ObserveAll(vs []int64) {
	if h == nil || len(vs) == 0 {
		return
	}
	h.mu.Lock()
	bin, run, sum := floorDiv(vs[0], h.width), int64(0), int64(0)
	for _, v := range vs {
		if b := floorDiv(v, h.width); b != bin {
			h.bins[bin] += run
			bin, run = b, 0
		}
		run++
		sum += v
	}
	h.bins[bin] += run
	h.count += int64(len(vs))
	h.sum += sum
	h.mu.Unlock()
}

// Name returns the metric name ("" on a nil receiver).
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// floorDiv divides rounding toward negative infinity, so bin low edges
// are correct for negative observations too.
func floorDiv(v, w int64) int64 {
	q := v / w
	if v%w != 0 && (v < 0) != (w < 0) {
		q--
	}
	return q
}

// Registry is the central metric store. The nil *Registry is valid and
// hands out nil handles, making instrumentation free when off.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns (creating on first use) the named counter. A nil
// registry returns a nil handle. Repeated calls share one handle, so
// several components may aggregate into one metric.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating on first use) the named gauge. A nil registry
// returns a nil handle.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating on first use) the named histogram with the
// given bin width (>= 1; a repeat call keeps the first width). A nil
// registry returns a nil handle.
func (r *Registry) Histogram(name string, binWidth int64) *Histogram {
	if r == nil {
		return nil
	}
	if binWidth < 1 {
		binWidth = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{name: name, width: binWidth, bins: make(map[int64]int64)}
		r.hists[name] = h
	}
	return h
}

// NameValue is one (metric, value) pair of a snapshot.
type NameValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistValue is one histogram of a snapshot: bin low edges (ascending)
// with their counts, plus the observation count and sum.
type HistValue struct {
	Name     string  `json:"name"`
	BinWidth int64   `json:"bin_width"`
	Count    int64   `json:"count"`
	Sum      int64   `json:"sum"`
	Edges    []int64 `json:"edges"`
	Counts   []int64 `json:"counts"`
}

// Snapshot is a point-in-time copy of every metric, sorted by name — a
// deterministic value: two runs that performed the same simulation work
// produce byte-identical snapshots regardless of engine or worker count.
type Snapshot struct {
	Counters   []NameValue `json:"counters"`
	Gauges     []NameValue `json:"gauges"`
	Histograms []HistValue `json:"histograms"`
}

// Snapshot captures the registry. Safe on a nil receiver (empty
// snapshot).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters = append(s.Counters, NameValue{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, NameValue{Name: name, Value: g.Value()})
	}
	for name, h := range r.hists {
		h.mu.Lock()
		hv := HistValue{Name: name, BinWidth: h.width, Count: h.count, Sum: h.sum}
		keys := make([]int64, 0, len(h.bins))
		for k := range h.bins {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			hv.Edges = append(hv.Edges, k*h.width)
			hv.Counts = append(hv.Counts, h.bins[k])
		}
		h.mu.Unlock()
		s.Histograms = append(s.Histograms, hv)
	}
	slices.SortFunc(s.Counters, byName)
	slices.SortFunc(s.Gauges, byName)
	slices.SortFunc(s.Histograms, histByName)
	return s
}

// byName and histByName order a snapshot's entries by metric name, which
// is unique within each kind. They are named functions, not literals, so
// the sampler's tick path builds no closure.
func byName(a, b NameValue) int { return strings.Compare(a.Name, b.Name) }

func histByName(a, b HistValue) int { return strings.Compare(a.Name, b.Name) }

// Digest returns an order-sensitive 64-bit FNV-1a hash over the
// snapshot — same construction as sim.Trace.Digest, with the 0xff field
// separator, so equal digests mean equal snapshots modulo hash
// collisions. Sorting in Snapshot makes the digest independent of the
// order metrics were registered or updated.
func (s Snapshot) Digest() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mixBytes := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v >> (8 * i) & 0xff
			h *= prime64
		}
	}
	mixStr := func(str string) {
		for i := 0; i < len(str); i++ {
			h ^= uint64(str[i])
			h *= prime64
		}
		h ^= 0xff // field separator outside the byte alphabet
		h *= prime64
	}
	for _, nv := range s.Counters {
		mixStr(nv.Name)
		mixBytes(uint64(nv.Value))
	}
	for _, nv := range s.Gauges {
		mixStr(nv.Name)
		mixBytes(uint64(nv.Value))
	}
	for _, hv := range s.Histograms {
		mixStr(hv.Name)
		mixBytes(uint64(hv.BinWidth))
		mixBytes(uint64(hv.Count))
		mixBytes(uint64(hv.Sum))
		for i := range hv.Edges {
			mixBytes(uint64(hv.Edges[i]))
			mixBytes(uint64(hv.Counts[i]))
		}
	}
	return h
}
