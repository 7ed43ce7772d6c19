package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"

	"cfm/internal/sim"
)

func quickOptions(t *testing.T, workload string, trace bool) options {
	t.Helper()
	g, err := parseGoldens(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	return options{workload: workload, seed: goldenSeed, trace: trace, quick: true, goldens: g}
}

// buildExperiments builds cmd/experiments for the paper_suite runs.
func buildExperiments(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, "cfm/cmd/experiments").CombinedOutput(); err != nil {
		t.Fatalf("building cmd/experiments: %v\n%s", err, out)
	}
	return bin
}

func metricNames(specs []metricSpec) map[string]string {
	m := map[string]string{}
	for _, s := range specs {
		m[s.name] = s.unit
	}
	return m
}

// TestQuickRuns is the smoke run of every workload, untraced and traced:
// each must reproduce its golden at the golden seed (traced digests are
// checked against the untraced ones inside the run) and print exactly the
// declared metrics with their units.
func TestQuickRuns(t *testing.T) {
	experiments := buildExperiments(t)
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			w, trace := w, trace
			name := w + "/untraced"
			if trace {
				name = w + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				if w == "paper_suite" {
					t.Parallel() // a child process; overlaps the in-process workloads
				}
				o := quickOptions(t, w, trace)
				o.experiments = experiments
				if trace && w == "observed_mix" {
					o.traceOut = t.TempDir()
				}
				res, err := runWorkload(o)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := metricNames(endToEnd)
				if trace {
					want = metricNames(perLayer)
				}
				got := map[string]string{}
				for k, m := range res.Metrics {
					got[k] = m.Unit
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("printed metrics %v, declared %v", got, want)
				}
				if !trace {
					for k, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", k, m.Value)
						}
					}
				}
				if o.traceOut != "" {
					b, err := os.ReadFile(filepath.Join(o.traceOut, w+".trace.json"))
					if err != nil {
						t.Fatal(err)
					}
					var ct struct{ TraceEvents []chromeEvent }
					if err := json.Unmarshal(b, &ct); err != nil || len(ct.TraceEvents) < 100 {
						t.Fatalf("chrome trace: %d events, %v", len(ct.TraceEvents), err)
					}
				}
			})
		}
	}
}

// TestSpecMatchesBenchmarkJSON holds the declared workloads and metrics
// to the ones BENCHMARK.json publishes, in order.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var ws []string
	for _, w := range spec.Workloads {
		ws = append(ws, w.Name)
	}
	if !reflect.DeepEqual(ws, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, cfmbench runs %v", ws, workloadNames)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, cfmbench prints %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), cfmbench %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestPerturbedGoldenFails: a golden that no longer matches the simulated
// output fails every iteration.
func TestPerturbedGoldenFails(t *testing.T) {
	o := quickOptions(t, "fleet_serial", false)
	o.goldens["fleet_serial"] += "0"
	res, err := runWorkload(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("perturbed golden: correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
	}
}

// TestTracedDigestEqualsUntraced runs each engine fleet with and without
// the timing wrappers: the simulated output and the checkpoint bytes must
// be the same.
func TestTracedDigestEqualsUntraced(t *testing.T) {
	for _, s := range engineSpecs {
		slots := min(s.slots, 500)
		var digests, ckpts [2]string
		for i, tr := range []*tracer{nil, newTracer()} {
			r := s.build(s.newEngine(), 7, tr)
			r.eng.Run(slots)
			var buf bytes.Buffer
			if err := r.eng.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}
			closeEngine(r.eng)
			digests[i], ckpts[i] = r.digest(), shortHash(buf.Bytes())
		}
		if digests[0] != digests[1] || ckpts[0] != ckpts[1] {
			t.Errorf("%s: untraced %s state=%s, traced %s state=%s", s.name, digests[0], ckpts[0], digests[1], ckpts[1])
		}
	}
}

// optionalInterfaces lists which optional engine interfaces v satisfies.
func optionalInterfaces(v any) []bool {
	_, shard := v.(sim.Shardable)
	_, fin := v.(sim.ShardFinalizer)
	_, es := v.(sim.EpochSafeTicker)
	_, ef := v.(sim.EpochFinisher)
	_, hz := v.(sim.Horizoner)
	_, pk := v.(sim.Parker)
	_, st := v.(sim.Stater)
	_, pm := v.(sim.PhaseMasker)
	_, pa := v.(sim.PhaseAware)
	return []bool{shard, fin, es, ef, hz, pk, st, pm, pa}
}

// TestWrappersKeepInterfaces: a timing wrapper satisfies exactly the
// optional engine interfaces of the component it wraps, so the engine
// compiles the same plan for a traced fleet.
func TestWrappersKeepInterfaces(t *testing.T) {
	tr := newTracer()
	r := buildMix(sim.NewClock(), 1, tr)
	comps := []any{r.partial, r.mem, r.net, r.proto, r.att, r.sampler, &sim.FuncTicker{}}
	for _, c := range comps {
		w := tr.wrap("x", c.(sim.Ticker))
		if got, want := optionalInterfaces(w), optionalInterfaces(c); !reflect.DeepEqual(got, want) {
			t.Errorf("%T wrapped as %T: interfaces %v, want %v", c, w, got, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, med, q3 := quartiles(xs); q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, med, q3 := quartiles([]float64{16, 1, 8, 2, 4}); q1 != 1.5 || med != 4 || q3 != 12 {
		t.Fatalf("quartiles = %v %v %v, want 1.5 4 12", q1, med, q3)
	}
}

func TestJudge(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 90}
	slower := []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}
	noisy := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}
	for _, c := range []struct {
		a, b  []float64
		want  string
		bound float64
	}{
		{parent, faster, "gain", 0.1},
		{parent, parent, "within bound", 0.1},
		{parent, slower, "REGRESSION", 0.1},
		{noisy, parent, "unresolved", 0.1},
		{parent, slower, "no claim", 0},
	} {
		if got, _ := judge(c.a, c.b, true, c.bound); got != c.want {
			t.Errorf("judge(%v, %v, bound %v) = %q, want %q", c.a, c.b, c.bound, got, c.want)
		}
	}
}

func TestSectionMetric(t *testing.T) {
	for line, want := range map[string]string{
		"## Figs 3.14/3.15 — partially conflict-free efficiency\n":                      "suite.fig3_14_15_s",
		"## Engine synchronization scaling (combining-tree barrier + epoch batching)\n": "suite.sync_scaling_s",
		"## Extensions (§3.3, §7.2, §2.2 — beyond the published evaluation)\n":          "suite.extensions_s",
		"## Something new\n": "suite.unattributed_s",
	} {
		if got := sectionMetric(line); got != want {
			t.Errorf("sectionMetric(%q) = %q, want %q", line, got, want)
		}
	}
}
