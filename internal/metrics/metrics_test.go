package metrics

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"cfm/internal/sim"
)

func TestNilRegistryAndHandles(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", 4)
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry must hand out nil handles, got %v %v %v", c, g, h)
	}
	// All handle methods must be no-ops, not panics.
	c.Add(3)
	c.Inc()
	g.Set(9)
	g.Add(-2)
	h.Observe(17)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatalf("nil handles must read 0")
	}
	if c.Name() != "" || g.Name() != "" || h.Name() != "" {
		t.Fatalf("nil handles must have empty names")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot must be empty: %+v", snap)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := New()
	if r.Counter("x") != r.Counter("x") {
		t.Fatal("Counter must return the same handle for the same name")
	}
	if r.Gauge("x") != r.Gauge("x") {
		t.Fatal("Gauge must return the same handle for the same name")
	}
	if r.Histogram("x", 2) != r.Histogram("x", 8) {
		t.Fatal("Histogram must return the same handle for the same name")
	}
	r.Counter("x").Add(2)
	r.Counter("x").Inc()
	if got := r.Counter("x").Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	r.Gauge("x").Set(7)
	r.Gauge("x").Add(-3)
	if got := r.Gauge("x").Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestHistogramFloorBinning(t *testing.T) {
	r := New()
	h := r.Histogram("lat", 4)
	for _, v := range []int64{-5, -4, -1, 0, 3, 4, 7} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("want 1 histogram, got %d", len(snap.Histograms))
	}
	hv := snap.Histograms[0]
	// -5 → bin [-8,-4); -4,-1 → [-4,0); 0,3 → [0,4); 4,7 → [4,8).
	wantEdges := []int64{-8, -4, 0, 4}
	wantCounts := []int64{1, 2, 2, 2}
	if len(hv.Edges) != len(wantEdges) {
		t.Fatalf("edges = %v, want %v", hv.Edges, wantEdges)
	}
	for i := range wantEdges {
		if hv.Edges[i] != wantEdges[i] || hv.Counts[i] != wantCounts[i] {
			t.Fatalf("bin %d = (%d,%d), want (%d,%d)",
				i, hv.Edges[i], hv.Counts[i], wantEdges[i], wantCounts[i])
		}
	}
	if hv.Count != 7 || hv.Sum != 4 {
		t.Fatalf("count/sum = %d/%d, want 7/4", hv.Count, hv.Sum)
	}
}

func TestSnapshotSortedAndDigestStable(t *testing.T) {
	build := func(order []string) Snapshot {
		r := New()
		for _, name := range order {
			r.Counter(name).Add(int64(len(name)))
		}
		r.Gauge("g2").Set(2)
		r.Gauge("g1").Set(1)
		r.Histogram("h", 2).Observe(5)
		return r.Snapshot()
	}
	a := build([]string{"beta", "alpha", "gamma"})
	b := build([]string{"gamma", "beta", "alpha"})
	if a.Digest() != b.Digest() {
		t.Fatalf("digest must be independent of registration order: %x != %x", a.Digest(), b.Digest())
	}
	for i := 1; i < len(a.Counters); i++ {
		if a.Counters[i-1].Name >= a.Counters[i].Name {
			t.Fatalf("counters not sorted: %v", a.Counters)
		}
	}
	// A value change must change the digest.
	r := New()
	r.Counter("alpha").Add(6) // alpha differs from build()'s len("alpha") = 5
	r.Counter("beta").Add(4)
	r.Counter("gamma").Add(5)
	r.Gauge("g1").Set(1)
	r.Gauge("g2").Set(2)
	r.Histogram("h", 2).Observe(5)
	if r.Snapshot().Digest() == a.Digest() {
		t.Fatal("digest must distinguish different counter values")
	}
}

func TestDigestSeparatesNameFromValue(t *testing.T) {
	// Counter "a" = x vs counter "b" = y contributing identically would
	// be a separator bug, mirroring the trace ("ab","c")/("a","bc") case.
	r1 := New()
	r1.Counter("ab").Add(1)
	r2 := New()
	r2.Counter("a").Add(1)
	r2.Counter("b").Add(0)
	if r1.Snapshot().Digest() == r2.Snapshot().Digest() {
		t.Fatal("digest must separate metric boundaries")
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := New()
	r.Counter("cfm_bank_conflicts_total").Add(3)
	r.Counter(`net_stage_queued{stage="0"}`).Add(4)
	r.Counter(`net_stage_queued{stage="1"}`).Add(5)
	r.Gauge("net_queued_packets").Set(12)
	r.Histogram("bind_wait_rounds", 2).Observe(1)
	r.Histogram("bind_wait_rounds", 2).Observe(3)
	got := Prometheus(r.Snapshot())
	want := `# TYPE cfm_bank_conflicts_total counter
cfm_bank_conflicts_total 3
# TYPE net_stage_queued counter
net_stage_queued{stage="0"} 4
net_stage_queued{stage="1"} 5
# TYPE net_queued_packets gauge
net_queued_packets 12
# TYPE bind_wait_rounds histogram
bind_wait_rounds_bucket{le="1"} 1
bind_wait_rounds_bucket{le="3"} 2
bind_wait_rounds_bucket{le="+Inf"} 2
bind_wait_rounds_sum 4
bind_wait_rounds_count 2
`
	if got != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// Byte stability: a second snapshot renders identically.
	if again := Prometheus(r.Snapshot()); again != got {
		t.Fatal("exposition must be byte-stable across snapshots")
	}
}

func TestSeriesJSONLStable(t *testing.T) {
	samples := []Sample{
		{Slot: 0, Values: map[string]int64{"b": 2, "a": 1}},
		{Slot: 10, Values: map[string]int64{"a": 3, "b": 4}},
	}
	var b1, b2 strings.Builder
	if err := WriteSeriesJSONL(&b1, samples); err != nil {
		t.Fatal(err)
	}
	if err := WriteSeriesJSONL(&b2, samples); err != nil {
		t.Fatal(err)
	}
	want := "{\"slot\":0,\"values\":{\"a\":1,\"b\":2}}\n{\"slot\":10,\"values\":{\"a\":3,\"b\":4}}\n"
	if b1.String() != want {
		t.Fatalf("jsonl = %q, want %q", b1.String(), want)
	}
	if b1.String() != b2.String() {
		t.Fatal("jsonl must be byte-stable")
	}
}

func TestWriteTraceJSONL(t *testing.T) {
	tr := sim.NewTrace()
	tr.Add(3, "P0", "issue read")
	tr.Add(4, "Bank1", "busy")
	var b strings.Builder
	if err := WriteTraceJSONL(&b, tr); err != nil {
		t.Fatal(err)
	}
	want := "{\"slot\":3,\"who\":\"P0\",\"what\":\"issue read\"}\n{\"slot\":4,\"who\":\"Bank1\",\"what\":\"busy\"}\n"
	if b.String() != want {
		t.Fatalf("trace jsonl = %q, want %q", b.String(), want)
	}
	var empty strings.Builder
	if err := WriteTraceJSONL(&empty, nil); err != nil {
		t.Fatal(err)
	}
	if empty.Len() != 0 {
		t.Fatal("nil trace must write nothing")
	}
}

func TestSamplerRecordsEveryN(t *testing.T) {
	r := New()
	c := r.Counter("work")
	eng := sim.NewClock()
	// A tiny component doing one unit of work per slot in PhaseIssue.
	eng.Register(sim.TickerFunc(func(t sim.Slot, ph sim.Phase) {
		if ph == sim.PhaseIssue {
			c.Inc()
		}
	}))
	s := NewSampler(r, 5)
	s.Attach(eng)
	eng.Run(11) // slots 0..10; samples at 0, 5, 10
	if len(s.Samples) != 3 {
		t.Fatalf("samples = %d, want 3", len(s.Samples))
	}
	wantSlots := []int64{0, 5, 10}
	wantVals := []int64{1, 6, 11} // sampler runs in PhaseUpdate, after the slot's work
	for i, sm := range s.Samples {
		if sm.Slot != wantSlots[i] || sm.Values["work"] != wantVals[i] {
			t.Fatalf("sample %d = slot %d val %d, want slot %d val %d",
				i, sm.Slot, sm.Values["work"], wantSlots[i], wantVals[i])
		}
	}
	slots, vals := s.Series("work")
	for i := range wantSlots {
		if slots[i] != wantSlots[i] || vals[i] != wantVals[i] {
			t.Fatalf("Series mismatch at %d: (%d,%d)", i, slots[i], vals[i])
		}
	}
}

func TestServeMetricsEndpoint(t *testing.T) {
	r := New()
	r.Counter("hits").Add(7)
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := "# TYPE hits counter\nhits 7\n"; string(body) != want {
		t.Fatalf("/metrics = %q, want %q", body, want)
	}
	for _, path := range []string{"/debug/vars", "/debug/pprof/"} {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d", path, resp.StatusCode)
		}
	}
}

func TestFloorDiv(t *testing.T) {
	cases := []struct{ v, w, want int64 }{
		{7, 4, 1}, {4, 4, 1}, {3, 4, 0}, {0, 4, 0},
		{-1, 4, -1}, {-4, 4, -1}, {-5, 4, -2}, {-8, 4, -2},
	}
	for _, c := range cases {
		if got := floorDiv(c.v, c.w); got != c.want {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", c.v, c.w, got, c.want)
		}
	}
}

// histState returns the registry's snapshot digest and SaveState bytes.
func histState(t *testing.T, r *Registry) (uint64, []byte) {
	t.Helper()
	enc := sim.NewStateEncoder()
	r.SaveState(enc)
	if err := enc.Err(); err != nil {
		t.Fatal(err)
	}
	return r.Snapshot().Digest(), enc.Bytes()
}

// TestHistogramObserveAllMatchesObserve binds ObserveAll to one Observe
// per value: runs of one bin, alternating bins, negative and zero
// values, and values at the int64 extremes, at several bin widths.
func TestHistogramObserveAllMatchesObserve(t *testing.T) {
	var nilHist *Histogram
	nilHist.ObserveAll([]int64{1, 2}) // must not panic
	batches := [][]int64{
		nil,
		{0},
		{17, 17, 17, 18, 33, 34, 34, 0, 0, -1, -1, -17, -18, 16},
		{-1000, -999, -1, 0, 999, 1000, 1001, 1999, 2000, -2001},
		{math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1, 0, math.MinInt64},
		{5, 5, 5, 5, 5, 5, 5, 5},
	}
	long := make([]int64, 500)
	for i := range long {
		long[i] = int64(i*i%97) - 40 + int64(i/50)*17
	}
	batches = append(batches, long)
	for _, width := range []int64{1, 17, 1000} {
		bulk, single := New(), New()
		hb, hs := bulk.Histogram("h", width), single.Histogram("h", width)
		for i, vs := range batches {
			hb.ObserveAll(vs)
			for _, v := range vs {
				hs.Observe(v)
			}
			db, bb := histState(t, bulk)
			ds, bs := histState(t, single)
			if db != ds || !bytes.Equal(bb, bs) {
				t.Fatalf("width %d, batch %d: ObserveAll snapshot %+v, per-value Observe %+v",
					width, i, bulk.Snapshot().Histograms, single.Snapshot().Histograms)
			}
		}
	}
}

// TestHistogramObserveAllAllocFree guards the latency fold: observing a
// batch whose bins already exist allocates nothing.
func TestHistogramObserveAllAllocFree(t *testing.T) {
	h := New().Histogram("h", 17)
	vs := []int64{17, 17, 18, 34, 51, 17, 0, -3}
	h.ObserveAll(vs) // creates the bins
	if n := testing.AllocsPerRun(100, func() { h.ObserveAll(vs) }); n != 0 {
		t.Errorf("ObserveAll allocates %v/op, want 0", n)
	}
	var nilHist *Histogram
	if n := testing.AllocsPerRun(100, func() { nilHist.ObserveAll(vs) }); n != 0 {
		t.Errorf("disabled ObserveAll allocates %v/op, want 0", n)
	}
}
