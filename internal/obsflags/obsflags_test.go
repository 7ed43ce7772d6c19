package obsflags

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"cfm/internal/flight"
	"cfm/internal/metrics"
	"cfm/internal/sim"
)

func TestUnsetFlagsStayDisabled(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	ob := Flags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if ob.Wanted() {
		t.Fatal("no flags set, but Wanted() = true")
	}
	if err := ob.Open(false); err != nil {
		t.Fatal(err)
	}
	if ob.Reg != nil || ob.Sampler != nil || ob.Trace != nil {
		t.Fatal("Open(false) with no flags must leave everything nil")
	}
	ob.Attach(sim.NewClock()) // must not panic
	if err := ob.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestUnobservedAttachIsConcurrencySafe: with observation off Attach
// writes nothing, so independent runs sharing one Observatory (the
// report's catalog entries on a worker pool) may call it at once. Run
// under -race.
func TestUnobservedAttachIsConcurrencySafe(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	ob := Flags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := ob.Open(false); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ob.Attach(sim.NewClock())
			}
		}()
	}
	wg.Wait()
	if ob.attached != 0 || ob.engines != nil || ob.Reg != nil || ob.Sampler != nil ||
		ob.Trace != nil || ob.Flight != nil || ob.Status != nil {
		t.Fatalf("unobserved Attach changed the observatory: attached %d, %d engines", ob.attached, len(ob.engines))
	}
}

func TestMetricsOutFormats(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		file, want string
	}{
		{"out.prom", "# TYPE hits counter\nhits 3\n"},
		{"out.jsonl", `{"slot":0,"values":{"hits":3}}` + "\n"},
	} {
		fs := flag.NewFlagSet("x", flag.ContinueOnError)
		ob := Flags(fs)
		path := filepath.Join(dir, tc.file)
		if err := fs.Parse([]string{"-metrics-out", path, "-sample", "10"}); err != nil {
			t.Fatal(err)
		}
		if err := ob.Open(false); err != nil {
			t.Fatal(err)
		}
		ob.Reg.Counter("hits").Add(3)
		ob.Sampler.Tick(0, sim.PhaseUpdate)
		if err := ob.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("%s: got %q, want %q", tc.file, got, tc.want)
		}
	}
}

func TestTraceOut(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	ob := Flags(fs)
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := fs.Parse([]string{"-trace-out", path}); err != nil {
		t.Fatal(err)
	}
	if err := ob.Open(false); err != nil {
		t.Fatal(err)
	}
	if ob.Trace == nil {
		t.Fatal("-trace-out must allocate the trace")
	}
	ob.Trace.AddEvent(sim.Event{Slot: 4, Who: "P1", What: "read"})
	if err := ob.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"slot":4,"who":"P1","what":"read"}` + "\n"
	if string(got) != want {
		t.Errorf("trace file: got %q, want %q", got, want)
	}
}

func TestHeatRows(t *testing.T) {
	ob := &Observatory{}
	if labels, rows := ob.HeatRows("x", "module", true); labels != nil || rows != nil {
		t.Fatal("nil sampler must yield no rows")
	}

	reg := metrics.New()
	c0 := reg.Counter(`conf{module="0"}`)
	c1 := reg.Counter(`conf{module="1"}`)
	ob.Sampler = metrics.NewSampler(reg, 10)
	for i, add := range []int64{0, 3, 1} {
		c0.Add(add)
		c1.Add(2 * add)
		ob.Sampler.Tick(sim.Slot(10*i), sim.PhaseUpdate)
	}

	labels, rows := ob.HeatRows("conf", "module", true)
	if len(labels) != 2 || labels[0] != "module 0" || labels[1] != "module 1" {
		t.Fatalf("labels = %v", labels)
	}
	// Cumulative 0,3,4 differenced back to per-interval 0,3,1.
	if got := rows[0]; got[0] != 0 || got[1] != 3 || got[2] != 1 {
		t.Errorf("diffed row 0 = %v, want [0 3 1]", got)
	}
	if got := rows[1]; got[0] != 0 || got[1] != 6 || got[2] != 2 {
		t.Errorf("diffed row 1 = %v, want [0 6 2]", got)
	}

	// Without differencing the cumulative values come through as-is.
	labels, rows = ob.HeatRows("conf", "module", false)
	if len(labels) != 2 || rows[0][2] != 4 || rows[1][2] != 8 {
		t.Errorf("raw rows = %v %v", rows[0], rows[1])
	}

	if l, r := ob.HeatRows("absent", "module", false); l != nil || r != nil {
		t.Errorf("absent family must yield no rows, got %v %v", l, r)
	}
}

func TestHTTPEndpoint(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	ob := Flags(fs)
	if err := fs.Parse([]string{"-http", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	if err := ob.Open(false); err != nil {
		t.Fatal(err)
	}
	if ob.srv == nil || !strings.Contains(ob.srv.Addr, "127.0.0.1") {
		t.Fatalf("server not started: %+v", ob.srv)
	}
	if err := ob.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSpansOutFormats(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		file string
		want string // a substring the chosen format must contain
	}{
		{"spans.jsonl", `{"slot":3,"id":"0000000200000003","stage":"issue","actor":2,"arg":0}`},
		{"spans.json", `"traceEvents"`},
	} {
		fs := flag.NewFlagSet("x", flag.ContinueOnError)
		ob := Flags(fs)
		path := filepath.Join(dir, tc.file)
		if err := fs.Parse([]string{"-spans-out", path, "-spans-limit", "64"}); err != nil {
			t.Fatal(err)
		}
		if !ob.Wanted() {
			t.Fatal("-spans-out set, but Wanted() = false")
		}
		if err := ob.Open(false); err != nil {
			t.Fatal(err)
		}
		if ob.Flight == nil || ob.Flight.Cap() != 64 {
			t.Fatalf("-spans-limit 64: recorder = %+v", ob.Flight)
		}
		ob.Flight.Emit(flight.ComposeID(2, 3), 3, flight.StageIssue, 2, 0)
		if err := ob.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(got), tc.want) {
			t.Errorf("%s: got %q, want substring %q", tc.file, got, tc.want)
		}
	}
}

func TestAttachRegistersFlightState(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	ob := Flags(fs)
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := fs.Parse([]string{"-spans-out", path}); err != nil {
		t.Fatal(err)
	}
	if err := ob.Open(false); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewClock()
	ob.Attach(eng)
	ob.Flight.Emit(1, 0, flight.StageIssue, 0, 0)
	// The recorder must round-trip through the engine checkpoint: that is
	// what AttachState("flight", ...) is for.
	var buf strings.Builder
	if err := eng.Checkpoint(&writerTo{&buf}); err != nil {
		t.Fatal(err)
	}
	ob.Flight.Reset()
	if err := eng.Restore(strings.NewReader(buf.String())); err != nil {
		t.Fatal(err)
	}
	if ob.Flight.Len() != 1 {
		t.Fatalf("flight events after restore = %d, want 1", ob.Flight.Len())
	}
	if err := ob.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAttachFurtherEngineEmptiesFlight: two engines attached in sequence
// both restart at slot 0, so their span IDs, which compose (actor, slot),
// would collide in one ring. The -spans-out export must hold the last
// run alone: no span ID with two issue events.
func TestAttachFurtherEngineEmptiesFlight(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	ob := Flags(fs)
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := fs.Parse([]string{"-spans-out", path}); err != nil {
		t.Fatal(err)
	}
	if err := ob.Open(false); err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		eng := sim.NewClock()
		eng.Register(sim.TickerFunc(func(t sim.Slot, ph sim.Phase) {
			if ph == sim.PhaseIssue && t%4 == 0 {
				ob.Flight.Emit(flight.ComposeID(3, t), t, flight.StageIssue, 3, int64(run))
			}
		}))
		ob.Attach(eng)
		eng.Run(40)
	}
	if err := ob.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	issues := map[string]int{}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	for _, line := range lines {
		if !strings.Contains(line, `"stage":"issue"`) || !strings.HasSuffix(line, `"arg":1}`) {
			t.Fatalf("export holds an event of the first run: %s", line)
		}
		issues[line[strings.Index(line, `"id":`):strings.Index(line, `,"stage"`)]]++
	}
	if len(lines) != 10 || len(issues) != 10 {
		t.Fatalf("export holds %d events over %d span IDs, want the last run's 10 issues", len(lines), len(issues))
	}
}

// writerTo adapts a strings.Builder to io.Writer (Checkpoint wants one).
type writerTo struct{ b *strings.Builder }

func (w *writerTo) Write(p []byte) (int, error) { return w.b.Write(p) }

func TestCloseStampsEngineCounters(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	ob := Flags(fs)
	path := filepath.Join(t.TempDir(), "m.prom")
	if err := fs.Parse([]string{"-metrics-out", path}); err != nil {
		t.Fatal(err)
	}
	if err := ob.Open(false); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewClock()
	eng.SetSkipAhead(true)
	next := sim.Slot(0)
	eng.Register(&sim.FuncTicker{
		OnTick: func(t sim.Slot, ph sim.Phase) {
			if ph == sim.PhaseIssue && t == next {
				next += 25
			}
		},
		NextEvent: func(now sim.Slot) sim.Slot {
			if next < now {
				return now
			}
			return next
		},
	})
	ob.Attach(eng)
	eng.Run(100)
	if err := ob.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(got), "engine_slots_skipped_total") ||
		!strings.Contains(string(got), "engine_jumps_total") {
		t.Fatalf("Close must stamp engine counters into the exposition:\n%s", got)
	}
	if strings.Contains(string(got), "engine_slots_skipped_total 0\n") {
		t.Fatalf("skip-ahead run stamped zero skipped slots:\n%s", got)
	}
}

// shardedLoad is a minimal epoch-safe fleet member so the parallel
// engine batches slots into episodes under EpochAuto.
type shardedLoad struct {
	vals []int64
}

func (s *shardedLoad) Tick(t sim.Slot, ph sim.Phase)            { sim.SerialTick(s, t, ph) }
func (s *shardedLoad) Shards() int                              { return len(s.vals) }
func (s *shardedLoad) TickShard(_ sim.Slot, _ sim.Phase, i int) { s.vals[i]++ }
func (s *shardedLoad) EpochSafe() bool                          { return true }

// TestCloseExcludesSyncCounters pins the -metrics-out contract: the
// exported exposition carries only counters derivable from checkpointed
// clock state (skipped, jumps), never the engine's process-lifetime
// synchronization counters — a resumed run only counts post-resume
// barrier work, so stamping crossings/epochs would break the
// byte-identity between a resumed and an uninterrupted run. Those live
// on /statusz and the /metrics scrape instead (see internal/metrics).
func TestCloseExcludesSyncCounters(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	ob := Flags(fs)
	path := filepath.Join(t.TempDir(), "m.prom")
	if err := fs.Parse([]string{"-metrics-out", path}); err != nil {
		t.Fatal(err)
	}
	if err := ob.Open(false); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewParallelClock(2)
	defer eng.Close()
	eng.Register(&shardedLoad{vals: make([]int64, 8)})
	ob.Attach(eng)
	eng.Run(40)
	if eng.BarrierCrossings() == 0 || eng.Epochs() == 0 {
		t.Fatalf("parallel run reported no synchronization: crossings=%d epochs=%d",
			eng.BarrierCrossings(), eng.Epochs())
	}
	if err := ob.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"engine_barrier_crossings_total", "engine_epochs_total"} {
		if strings.Contains(string(got), name) {
			t.Fatalf("%s leaked into the -metrics-out exposition (it is not resumable):\n%s", name, got)
		}
	}
	for _, name := range []string{"engine_slots_skipped_total", "engine_jumps_total"} {
		if !strings.Contains(string(got), name) {
			t.Fatalf("Close must still stamp %s into the exposition:\n%s", name, got)
		}
	}
}
