// The determinism matrix: every entry of the scenario table runs under
// every engine mode — uninterrupted, and cut, checkpointed, restored and
// finished — and every observation must equal the dense serial oracle's,
// byte for byte. Parallelism, skip-ahead, epoch batching and resuming
// may only change wall time, never a simulated observable; snapshots
// plus the table's construction code ARE the simulation state.
package cfm_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"sync"
	"testing"

	"cfm"
	"cfm/internal/sim"
)

// engineMode is one engine configuration of the matrix.
type engineMode struct {
	name string
	skip bool
	mk   func() *cfm.ParallelClock
}

// mode builds the engineMode of a worker count, an episode bound k and a
// barrier arity (0 leaves each at the engine's default), dense or
// skip-ahead.
func mode(name string, workers, k, arity int, skip bool) engineMode {
	if skip {
		name += "-skip"
	}
	return engineMode{name, skip, func() *cfm.ParallelClock {
		eng := cfm.NewParallelClock(workers)
		if k > 0 {
			eng.SetEpochBatch(k)
		}
		if arity > 0 {
			eng.SetBarrierArity(arity)
		}
		eng.SetSkipAhead(skip)
		return eng
	}}
}

// equivWorkers is the worker-count sweep.
func equivWorkers() []int {
	return []int{1, 2, 4, runtime.GOMAXPROCS(0)}
}

// engineModes are the uninterrupted modes: serial skip-ahead; the worker
// sweep, dense and skip-ahead; and pinned epoch batches (workers, K,
// arity), dense and skip-ahead. The sweep already batches wherever the
// EpochAuto default allows; the pins force shapes the auto path never
// picks — K = 1 is the per-slot body on plans that could batch — and on
// plans that cannot batch they re-prove the per-slot body under tuned
// barriers.
func engineModes() []engineMode {
	modes := []engineMode{mode("serial", 1, 0, 0, true)}
	seen := map[int]bool{}
	for _, w := range equivWorkers() {
		if !seen[w] {
			seen[w] = true
			modes = append(modes, mode(fmt.Sprintf("w%d", w), w, 0, 0, false), mode(fmt.Sprintf("w%d", w), w, 0, 0, true))
		}
	}
	for _, b := range [][3]int{{2, 1, 2}, {2, 4, 2}, {4, 16, 4}, {3, 3, 3}} {
		name := fmt.Sprintf("w%d-k%d-a%d", b[0], b[1], b[2])
		modes = append(modes, mode(name, b[0], b[1], b[2], false), mode(name, b[0], b[1], b[2], true))
	}
	return modes
}

// resumeModes are the checkpoint → restore modes, each checkpointing and
// restoring under itself: serial and two workers, dense and skip-ahead,
// plus two workers batched at K = 3 — so the cuts are rarely episode
// multiples and every checkpoint takes the episode-truncation path
// (episodes never span a Run budget, so the batched engine must land on
// the cut exactly).
func resumeModes() []engineMode {
	return []engineMode{
		mode("serial", 1, 0, 0, false), mode("serial", 1, 0, 0, true),
		mode("parallel", 2, 0, 0, false), mode("parallel", 2, 0, 0, true),
		mode("parallel-epoch", 2, 3, 0, false), mode("parallel-epoch", 2, 3, 0, true),
	}
}

// crossRestores checkpoint under one engine and restore into another:
// snapshots are engine-neutral because the fleet is serialized in
// canonical (priority, registration) order, and epoch batching is
// invisible to them because episodes end at Run-budget boundaries.
func crossRestores() [][2]engineMode {
	serial, parallel := mode("serial", 1, 0, 0, false), mode("parallel", 2, 0, 0, false)
	batched := mode("batched", 3, 4, 0, false)
	return [][2]engineMode{{serial, parallel}, {parallel, serial}, {serial, batched}, {batched, serial}}
}

// fleet wraps a scenario's engine and remembers every component the
// scenario registers, so an observation can include the snapshot bytes
// of the whole fleet without each entry listing them. (The attached
// registry, trace and recorder are observed through their own fields.)
type fleet struct {
	cfm.Engine
	staters []sim.Stater
}

func (f *fleet) Register(t sim.Ticker) {
	f.note(t)
	f.Engine.Register(t)
}

func (f *fleet) RegisterPrio(t sim.Ticker, prio int) {
	f.note(t)
	f.Engine.RegisterPrio(t, prio)
}

func (f *fleet) note(t sim.Ticker) {
	if s, ok := t.(sim.Stater); ok {
		f.staters = append(f.staters, s)
	}
}

// observation completes observe's report with the FNV-1a hash of every
// remembered component's snapshot bytes.
func (f *fleet) observation(observe func() observation) observation {
	o := observe()
	h := fnv.New64a()
	for _, s := range f.staters {
		enc := sim.NewStateEncoder()
		s.SaveState(enc)
		h.Write(enc.Bytes())
		if err := enc.Err(); err != nil {
			h.Write([]byte(err.Error()))
		}
	}
	o.State = h.Sum64()
	return o
}

// runScenario runs sc on eng from construction to the end, then retires
// eng's worker pool.
func runScenario(sc scenario, eng *cfm.ParallelClock) observation {
	defer eng.Close()
	fl := &fleet{Engine: eng}
	finish, observe := sc.build(fl)
	finish()
	return fl.observation(observe)
}

type oracleRun struct {
	obs   observation
	total int64
}

// oracles caches each entry's oracle run: the run is a pure function of
// the entry, and the w1 mode re-runs the very same engine every time.
var oracles sync.Map // name → func() oracleRun

// oracleOf returns sc's observation on the dense one-worker engine and
// the slot it ends at, after checking the run is not vacuous.
func oracleOf(t *testing.T, sc scenario) (observation, int64) {
	t.Helper()
	run, _ := oracles.LoadOrStore(sc.name, sync.OnceValue(func() oracleRun {
		eng := cfm.NewClock()
		obs := runScenario(sc, eng)
		return oracleRun{obs, int64(eng.Now())}
	}))
	r := run.(func() oracleRun)()
	switch {
	case r.obs.Vacuous != "":
		t.Fatalf("scenario is vacuous: %s", r.obs.Vacuous)
	case r.obs.Spans != nil && len(r.obs.Spans) <= 8:
		t.Fatal("scenario recorded no span events; the span comparison is vacuous")
	case r.obs.Exposition != "" && !strings.Contains(r.obs.Exposition, "# TYPE"):
		t.Fatalf("exposition looks empty:\n%s", r.obs.Exposition)
	case r.total < 3:
		t.Fatalf("scenario too short to cut: %d slots", r.total)
	}
	return r.obs, r.total
}

// mismatch describes the first observable in which got differs from
// want, or returns "".
func mismatch(want, got observation) string {
	switch {
	case got.Counters != want.Counters:
		return fmt.Sprintf("counters\noracle %s\ngot    %s", want.Counters, got.Counters)
	case got.Registry != want.Registry:
		return fmt.Sprintf("registry digest %016x, oracle %016x", got.Registry, want.Registry)
	case got.Trace != want.Trace:
		return fmt.Sprintf("trace digest %016x, oracle %016x", got.Trace, want.Trace)
	case !bytes.Equal(got.Spans, want.Spans):
		return fmt.Sprintf("span stream (%d bytes, oracle %d)", len(got.Spans), len(want.Spans))
	case got.Exposition != want.Exposition:
		return "Prometheus exposition, " + diffHint(want.Exposition, got.Exposition)
	case got.Series != want.Series:
		return "sampled series, " + diffHint(want.Series, got.Series)
	case got.State != want.State:
		return fmt.Sprintf("component snapshot hash %016x, oracle %016x", got.State, want.State)
	}
	return ""
}

// cuts returns the cut slots of an entry that ends at total: the first
// slot, the middle, the last slot before the end, and its extra cuts.
func cuts(sc scenario, total int64) []int64 {
	var out []int64
	seen := map[int64]bool{}
	for _, c := range append([]int64{1, total / 2, total - 1}, sc.extraCuts...) {
		if c > 0 && c < total && !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// checkpointAt builds sc on a fresh engine, runs it to the cut, and
// returns the checkpoint bytes.
func checkpointAt(t *testing.T, sc scenario, mk func() *cfm.ParallelClock, cut int64) []byte {
	t.Helper()
	eng := mk()
	defer eng.Close()
	sc.build(eng)
	eng.Run(cut)
	var buf bytes.Buffer
	if err := eng.Checkpoint(&buf); err != nil {
		t.Fatalf("checkpoint at slot %d: %v", cut, err)
	}
	return buf.Bytes()
}

// resume restores ckpt into a freshly built engine, checks it resumes at
// the cut, and finishes the run.
func resume(t *testing.T, sc scenario, mk func() *cfm.ParallelClock, ckpt []byte, cut int64) observation {
	t.Helper()
	eng := mk()
	defer eng.Close()
	fl := &fleet{Engine: eng}
	var finish func()
	var observe func() observation
	if _, err := cfm.Restore(bytes.NewReader(ckpt), func() cfm.Engine {
		finish, observe = sc.build(fl)
		return fl
	}); err != nil {
		t.Fatalf("restore at slot %d: %v", cut, err)
	}
	if now := int64(eng.Now()); now != cut {
		t.Fatalf("restored engine resumed at slot %d, checkpoint was cut at %d", now, cut)
	}
	finish()
	return fl.observation(observe)
}

// forEachScenario runs body on every table entry, in parallel subtests,
// with the entry's oracle observation and end slot.
func forEachScenario(t *testing.T, body func(t *testing.T, sc scenario, want observation, total int64)) {
	for _, sc := range scenarios() {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			want, total := oracleOf(t, sc)
			body(t, sc, want, total)
		})
	}
}

// TestEquivalenceMatrix runs every entry uninterrupted under every
// engine mode. On a sparse entry each skip-ahead mode must also fire
// fewer than half the slots it runs.
func TestEquivalenceMatrix(t *testing.T) {
	forEachScenario(t, func(t *testing.T, sc scenario, want observation, total int64) {
		for _, m := range engineModes() {
			eng := m.mk()
			if d := mismatch(want, runScenario(sc, eng)); d != "" {
				t.Errorf("%s diverged from the dense serial oracle: %s", m.name, d)
			}
			if fired, run := eng.SlotsFired(), eng.SlotsRun(); sc.sparse && m.skip && fired >= run/2 {
				t.Errorf("%s skip-ahead is vacuous: fired %d of %d slots", m.name, fired, run)
			}
		}
	})
}

// TestResumeEquivalence cuts every entry at each of its cut slots under
// each resume mode, restores the checkpoint into a freshly built engine
// of the same mode, and finishes it.
func TestResumeEquivalence(t *testing.T) {
	forEachScenario(t, func(t *testing.T, sc scenario, want observation, total int64) {
		for _, m := range resumeModes() {
			for _, cut := range cuts(sc, total) {
				got := resume(t, sc, m.mk, checkpointAt(t, sc, m.mk, cut), cut)
				if d := mismatch(want, got); d != "" {
					t.Errorf("%s, cut at slot %d: resumed run diverged from the oracle: %s", m.name, cut, d)
				}
			}
		}
	})
}

// TestCrossEngineRestore checkpoints every entry mid-run under one
// engine and finishes it under another.
func TestCrossEngineRestore(t *testing.T) {
	forEachScenario(t, func(t *testing.T, sc scenario, want observation, total int64) {
		cut := total / 2
		for _, pair := range crossRestores() {
			from, to := pair[0], pair[1]
			got := resume(t, sc, to.mk, checkpointAt(t, sc, from.mk, cut), cut)
			if d := mismatch(want, got); d != "" {
				t.Errorf("%s → %s, cut at slot %d: resumed run diverged from the oracle: %s", from.name, to.name, cut, d)
			}
		}
	})
}

// Named views. Before the matrix, each scenario and each observable had
// a test of its own. Those test names stay, as views of the table, so
// every test ID the suite reported before still runs the scenario it
// named. A view runs its entries once more under a single mode of the
// matrix; the matrix above is the proof.

// widest is the mode furthest from the oracle: every CPU, batched, skipping.
func widest() engineMode { return mode("widest", runtime.GOMAXPROCS(0), 16, 4, true) }

// view checks the named entries against their oracles under m.
func view(t *testing.T, m engineMode, names ...string) {
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			sc := scenarioNamed(t, name)
			want, _ := oracleOf(t, sc)
			if d := mismatch(want, runScenario(sc, m.mk())); d != "" {
				t.Fatalf("%s diverged from the dense serial oracle: %s", m.name, d)
			}
		})
	}
}

func TestEquivConventionalFig313(t *testing.T)    { view(t, widest(), "ConventionalFig313") }
func TestEquivPartialFig314(t *testing.T)         { view(t, widest(), "PartialFig314") }
func TestEquivPartialFig315(t *testing.T)         { view(t, widest(), "PartialFig315") }
func TestEquivCFMemoryTraced(t *testing.T)        { view(t, widest(), "CFMemoryTraced") }
func TestEquivCacheCoherenceTraffic(t *testing.T) { view(t, widest(), "CacheCoherenceTraffic") }
func TestEquivBufferedOmega(t *testing.T)         { view(t, widest(), "BufferedOmega") }
func TestEquivClusterSystem(t *testing.T)         { view(t, widest(), "ClusterSystem") }
func TestEquivIdleWakeBanks(t *testing.T)         { view(t, widest(), "IdleWakeBanks") }
func TestEquivIdleWakeOmegaColumns(t *testing.T)  { view(t, widest(), "IdleWakeOmegaColumns") }

func TestEquivPartialIndexMap(t *testing.T) {
	view(t, widest(), "PartialOnePerCluster", "PartialSingleModule", "PartialHomes")
}

func TestEquivRandomWorkloads(t *testing.T) {
	for _, sc := range randomScenarios() {
		view(t, widest(), sc.name)
	}
}

func TestMetricsSerialParallelIdentical(t *testing.T) {
	view(t, mode("widest", runtime.GOMAXPROCS(0), 0, 0, false), "Observatory")
}

func TestMetricsSkipAheadIdentical(t *testing.T) {
	view(t, mode("serial", 1, 0, 0, true), "Observatory")
}

// TestSpanStreamEquivalence keeps the subtest names of the span
// battery, whose scenarios are now these entries.
func TestSpanStreamEquivalence(t *testing.T) {
	for _, v := range [][2]string{
		{"BufferedOmegaHotSpot", "BufferedOmega"},
		{"CacheCoherence", "CacheCoherenceTraffic"},
		{"ConventionalFig313", "ConventionalFig313Sampled"},
		{"PartialFig314", "PartialFig314"},
	} {
		t.Run(v[0], func(t *testing.T) { view(t, widest(), v[1]) })
	}
}

// TestSkipAheadActuallySkips runs the sparse entries skip-ahead on one
// worker and at each worker count of the sweep.
func TestSkipAheadActuallySkips(t *testing.T) {
	check := func(t *testing.T, m engineMode) {
		for _, sc := range scenarios() {
			if !sc.sparse {
				continue
			}
			eng := m.mk()
			runScenario(sc, eng)
			if fired, run := eng.SlotsFired(), eng.SlotsRun(); fired >= run/2 {
				t.Errorf("%s: skip-ahead is vacuous: fired %d of %d slots", sc.name, fired, run)
			}
		}
	}
	t.Run("serial", func(t *testing.T) { check(t, mode("serial", 1, 0, 0, true)) })
	for _, w := range equivWorkers() {
		t.Run(fmt.Sprintf("workers%d", w), func(t *testing.T) { check(t, mode("parallel", w, 0, 0, true)) })
	}
}
