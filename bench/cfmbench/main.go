// Command cfmbench measures how fast the simulator runs on the host: five
// stationary workloads, end-to-end numbers with tracing off, per-layer
// numbers from a separate -trace run, and a digest check of every
// simulated output. See bench/README.md for the recipe and the metric
// definitions.
//
//	cfmbench -workload fleet_serial -seed 42 -seconds 20 -trace 0
//	cfmbench -compare before.jsonl after.jsonl
//
// Each workload runs in its own child process, started by re-executing
// this binary with -child, so peak RSS and GC state are per workload. The
// last line of standard output is the result as one JSON object.
//
//cfm:wallclock-ok benchmark harness: host time is the measured quantity and never reaches simulation state
package main

import (
	"bufio"
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metricSpec declares one printed metric. BENCHMARK.json declares the same
// names and units (a test holds the two together); the bounds live only
// there.
type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics a user of the simulator sees, printed by every
// workload with -trace 0. An iteration is the workload's unit of work: a
// fixed slot count of an engine fleet, or one whole cmd/experiments run.
var endToEnd = []metricSpec{
	{"iter_ms_p50", "ms"},
	{"iter_ms_p90", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// suiteSections maps each `## ` section of cmd/experiments (its title up
// to " — " or " (") to its per-layer metric.
var suiteSections = []struct{ title, metric string }{
	{"Table 3.1", "suite.table3_1_s"},
	{"Table 3.3", "suite.table3_3_s"},
	{"Table 3.4", "suite.table3_4_s"},
	{"Table 3.5", "suite.table3_5_s"},
	{"Fig 2.1", "suite.fig2_1_s"},
	{"Fig 3.6", "suite.fig3_6_s"},
	{"Fig 3.13", "suite.fig3_13_s"},
	{"Figs 3.14/3.15", "suite.fig3_14_15_s"},
	{"Figs 3.9/3.10", "suite.fig3_9_10_s"},
	{"Chapter 4", "suite.ch4_att_s"},
	{"Fig 5.4", "suite.fig5_4_s"},
	{"Fig 5.5", "suite.fig5_5_s"},
	{"Tables 5.5/5.6", "suite.table5_5_6_s"},
	{"Chapter 6", "suite.ch6_binding_s"},
	{"Extensions", "suite.extensions_s"},
	{"Engine synchronization scaling", "suite.sync_scaling_s"},
}

// perLayer are the -trace 1 metrics. Every workload prints all of them; a
// layer the workload does not run reads 0.
var perLayer = append([]metricSpec{
	{"sim.engine_self_ns_per_slot", "ns"},
	{"sim.par_work_frac", "ratio"},
	{"sim.fold_frac", "ratio"},
	{"sim.crossings_per_slot", "1/slot"},
	{"sim.epochs_per_slot", "1/slot"},
	{"sim.fired_frac", "ratio"},
	{"sim.horizon_ns_per_slot", "ns"},
	{"sim.state.encode_mb_per_s", "MB/s"},
	{"sim.state.decode_mb_per_s", "MB/s"},
	{"sim.state.ckpt_kb", "KB"},
	{"sim.trace.events_per_slot", "1/slot"},
	{"sim.trace.add_ns", "ns"},
	{"core.partial.tick_ns_per_proc_slot", "ns"},
	{"core.partial.fold_ns_per_slot", "ns"},
	{"core.partial.accesses_per_slot", "1/slot"},
	{"core.partial.useful_frac", "ratio"},
	{"core.cfmemory.tick_ns_per_slot", "ns"},
	{"core.cfmemory.accesses_per_slot", "1/slot"},
	{"network.buffered.tick_ns_per_slot", "ns"},
	{"network.buffered.queued_packets", "count"},
	{"cache.protocol.tick_ns_per_slot", "ns"},
	{"cache.protocol.ops_per_slot", "1/slot"},
	{"att.tracked.tick_ns_per_slot", "ns"},
	{"att.tracked.abort_frac", "ratio"},
	{"flight.events_per_slot", "1/slot"},
	{"flight.emit_ns", "ns"},
	{"flight.dropped_frac", "ratio"},
	{"metrics.sampler_ns_per_sample", "ns"},
	{"metrics.snapshot_ns", "ns"},
	{"bench.driver_ns_per_slot", "ns"},
	{"host.allocs_per_slot", "1/slot"},
	{"host.alloc_bytes_per_slot", "B/slot"},
	{"host.iter_ms_p10", "ms"},
	{"host.probe_ms", "ms"},
	{"host.raw_iter_ms_p50", "ms"},
	{"trace.overhead_frac", "ratio"},
}, suiteMetricSpecs()...)

// suiteMetricSpecs declares suite.unattributed_s and one metric per section.
func suiteMetricSpecs() []metricSpec {
	out := []metricSpec{{"suite.unattributed_s", "s"}}
	for _, s := range suiteSections {
		out = append(out, metricSpec{s.metric, "s"})
	}
	return out
}

// workloadNames lists the workloads in the order -workload all runs them.
var workloadNames = []string{"fleet_serial", "fleet_par2", "sparse_skip", "observed_mix", "paper_suite"}

// goldenSeed is the seed the committed goldens were recorded at.
const goldenSeed = 42

//go:embed golden.json
var goldenJSON []byte

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options configure one workload run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// quick runs two iterations and two set-ups, whatever seconds says:
	// the smoke mode of the tests.
	quick       bool
	experiments string // built cmd/experiments binary (paper_suite)
	traceOut    string // directory for Chrome trace JSON of -trace runs
	goldens     map[string]string
}

// checks counts verified operations — set-ups, iterations, suite runs —
// and the ones whose simulated output did not match its reference.
type checks struct {
	attempted, failed int
}

// verify counts one operation, failed unless got equals every want.
func (c *checks) verify(what, got string, wants ...string) {
	c.attempted++
	for _, want := range wants {
		if got != want {
			c.failed++
			if c.failed <= 3 {
				fmt.Fprintf(os.Stderr, "cfmbench: %s: digest mismatch\n  got  %s\n  want %s\n", what, got, want)
			}
			return
		}
	}
}

// newResult fills a result from the checks and the measured metrics,
// declaring every metric of specs (absent ones read 0).
func newResult(c checks, specs []metricSpec, vals map[string]float64) result {
	r := result{Correct: c.failed == 0 && c.attempted > 0, Attempted: c.attempted, Failed: c.failed,
		Metrics: make(map[string]metric, len(specs))}
	for _, s := range specs {
		r.Metrics[s.name] = metric{Value: vals[s.name], Unit: s.unit}
	}
	return r
}

func main() {
	var o options
	fs := flag.NewFlagSet("cfmbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	fs.Uint64Var(&o.seed, "seed", goldenSeed, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "seconds each run measures")
	traceFlag := fs.Int("trace", 0, "1: print the per-layer metrics of a traced run instead of the end-to-end ones")
	fs.BoolVar(&o.quick, "quick", false, "smoke run: two iterations per workload")
	fs.StringVar(&o.experiments, "experiments", "", "path of a built cmd/experiments binary (paper_suite)")
	fs.StringVar(&o.traceOut, "trace-out", "", "directory to write the Chrome trace of a -trace run into")
	child := fs.Bool("child", false, "run the workload in this process (set by the parent)")
	record := fs.String("record", "", "append each result, with its workload, seed and host, to this JSONL file")
	compare := fs.Bool("compare", false, "summarize one record file, or compare two: cfmbench -compare a.jsonl [b.jsonl]")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark declaration holding the bounds -compare applies")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *compare {
		os.Exit(runCompare(os.Stdout, *spec, fs.Args()))
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "cfmbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = *traceFlag == 1
	g, err := parseGoldens(goldenJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cfmbench:", err)
		os.Exit(2)
	}
	o.goldens = g

	if *child {
		res, err := runWorkload(o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cfmbench:", err)
			os.Exit(2)
		}
		b, _ := json.Marshal(res) // a result holds only finite numbers and strings
		fmt.Println(string(b))
		if !res.Correct {
			os.Exit(1)
		}
		return
	}
	names := workloadNames
	if o.workload != "all" {
		names = []string{o.workload}
	}
	code := 0
	for _, w := range names {
		o.workload = w
		res, line, err := runChild(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cfmbench: %s: %v\n", w, err)
			os.Exit(2)
		}
		if *record != "" {
			if err := appendRecord(*record, o, res); err != nil {
				fmt.Fprintln(os.Stderr, "cfmbench:", err)
				os.Exit(2)
			}
		}
		if len(names) > 1 {
			fmt.Printf("%s %s\n", w, line)
		} else {
			fmt.Println(line)
		}
		if !res.Correct {
			code = 1
		}
	}
	os.Exit(code)
}

// runWorkload runs one workload in this process.
func runWorkload(o options) (result, error) {
	if o.workload == "paper_suite" {
		return runSuite(o)
	}
	for _, s := range engineSpecs {
		if s.name == o.workload {
			return runEngine(s, o)
		}
	}
	return result{}, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
}

// runChild re-executes this binary with -child for one workload, waits for
// it, and returns its result and the JSON line it printed.
func runChild(o options) (result, string, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, "", err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	args := []string{"-child", "-workload", o.workload, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", trace,
		"-experiments", o.experiments, "-trace-out", o.traceOut}
	if o.quick {
		args = append(args, "-quick")
	}
	// A child that outlives twice its measuring time plus a minute of
	// set-up is hung; the context kills it.
	limit := time.Duration(2*o.seconds*float64(time.Second)) + time.Minute
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	line := lastLine(out.String())
	var res result
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		if runErr != nil {
			return result{}, "", fmt.Errorf("child: %w", runErr)
		}
		return result{}, "", fmt.Errorf("child printed no result: %w", err)
	}
	return res, line, nil
}

func lastLine(s string) string {
	s = strings.TrimRight(s, "\n")
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

func parseGoldens(b []byte) (map[string]string, error) {
	var g map[string]string
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// record is one line of a -record file.
type record struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Trace    bool              `json:"trace"`
	Host     map[string]string `json:"host"`
	Result   result            `json:"result"`
}

func appendRecord(path string, o options, res result) error {
	b, err := json.Marshal(record{Workload: o.workload, Seed: o.seed, Trace: o.trace, Host: hostKeys(), Result: res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("record %s: %w", path, err)
	}
	return f.Close()
}

// hostKeys identifies the machine a record was measured on.
func hostKeys() map[string]string {
	return map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":        cpuModel(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
