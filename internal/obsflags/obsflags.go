// Package obsflags wires the command-line flags shared by the cmd/
// tools to the concrete objects behind them. The observability flags
// (-metrics-out, -trace-out, -http, -sample, -spans-out) feed the
// metrics registry, the slot-sampled time-series recorder, the event
// trace, the flight recorder, and the live profiling endpoint; the
// engine flags (-workers, -skip-ahead, -epoch-batch) shape the cycle
// engine NewEngine builds.
package obsflags

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"cfm/internal/flight"
	"cfm/internal/metrics"
	"cfm/internal/sim"
)

// Observatory holds the parsed observability and engine flags and, once
// Open has run, the live objects behind them. When no observability flag
// is set (and Open is not forced) every object stays nil, so the nil fast
// paths keep the simulation unobserved at zero cost.
type Observatory struct {
	MetricsOut string // -metrics-out: metrics file (*.jsonl: series; else Prometheus)
	TraceOut   string // -trace-out: event trace file (JSONL)
	HTTPAddr   string // -http: live /metrics + expvar + pprof address
	Every      int64  // -sample: slots between time-series samples

	CheckpointOut string // -checkpoint-out: write a checkpoint here when the run ends
	Resume        string // -resume: restore engine state from this checkpoint before running

	SpansOut   string // -spans-out: flight-recorder export (*.json: Chrome trace; else JSONL)
	SpansLimit int    // -spans-limit: flight recorder ring capacity (events)

	Workers    int  // -workers: engine workers (1 by default; sim.WorkersAuto sizes the pool per plan)
	SkipAhead  bool // -skip-ahead: jump the clock over quiescent slots
	EpochBatch int  // -epoch-batch: pool episode bound (sim.EpochAuto = auto); no-op on one worker

	Reg      *metrics.Registry
	Sampler  *metrics.Sampler
	Trace    *sim.Trace
	Flight   *flight.Recorder   // non-nil when -spans-out is set
	Status   *metrics.StatusVar // non-nil when -http is set
	srv      *http.Server
	engines  []sim.Engine // every engine Attach saw, for the post-run stamp
	attached int          // how many engines Attach has given the flight ring
}

// Flags registers the observability and engine flags on fs and returns
// the observatory they fill in. Call Open after fs.Parse.
func Flags(fs *flag.FlagSet) *Observatory {
	ob := &Observatory{}
	fs.StringVar(&ob.MetricsOut, "metrics-out", "",
		"write metrics to this file: *.jsonl gets the sampled time series, anything else the Prometheus exposition")
	fs.StringVar(&ob.TraceOut, "trace-out", "",
		"write the event trace to this file as JSONL (traced commands only)")
	fs.StringVar(&ob.HTTPAddr, "http", "",
		"serve /metrics, /debug/vars and /debug/pprof on this address during the run")
	fs.Int64Var(&ob.Every, "sample", 1000, "slots between time-series samples")
	fs.StringVar(&ob.CheckpointOut, "checkpoint-out", "",
		"write a checkpoint of the final engine state to this file")
	fs.StringVar(&ob.Resume, "resume", "",
		"restore engine state from this checkpoint before running")
	fs.StringVar(&ob.SpansOut, "spans-out", "",
		"write the flight recorder's access spans to this file, from the last simulation a command runs: *.json gets Chrome trace-event JSON (Perfetto), anything else JSONL")
	fs.IntVar(&ob.SpansLimit, "spans-limit", flight.DefaultLimit,
		"flight recorder capacity in events, 0 for the default (the ring keeps the newest)")
	fs.IntVar(&ob.Workers, "workers", 1,
		"cycle engine workers (1 = one worker; 0 = auto: one worker for small fleets, else GOMAXPROCS; <0 = GOMAXPROCS); a plan with any component that is not epoch-safe runs on one worker")
	fs.BoolVar(&ob.SkipAhead, "skip-ahead", false,
		"jump the clock over quiescent slots (event-horizon scheduling; same results, bit for bit)")
	fs.IntVar(&ob.EpochBatch, "epoch-batch", sim.EpochAuto,
		"worker pool episode length: 0 = auto, 1 = one-slot episodes, K > 1 caps episodes at K slots (no-op on one worker; same results, bit for bit)")
	return ob
}

// NewEngine builds a cycle engine as the engine flags ask: -workers
// workers (one by default), with skip-ahead and the episode bound
// applied.
func (ob *Observatory) NewEngine() sim.Engine {
	eng := sim.NewParallelClock(ob.Workers)
	eng.SetSkipAhead(ob.SkipAhead)
	eng.SetEpochBatch(ob.EpochBatch)
	return eng
}

// MaybeResume restores eng from the -resume checkpoint when the flag is
// set; a no-op otherwise. Call after the scenario has registered every
// component on eng, before running.
func (ob *Observatory) MaybeResume(eng sim.Engine) error {
	if ob.Resume == "" {
		return nil
	}
	f, err := os.Open(ob.Resume)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := eng.Restore(f); err != nil {
		return fmt.Errorf("resume from %s: %w", ob.Resume, err)
	}
	fmt.Fprintf(os.Stderr, "resumed from %s at slot %d\n", ob.Resume, eng.Now())
	return nil
}

// MaybeCheckpoint writes eng's state to the -checkpoint-out file when
// the flag is set; a no-op otherwise. Call after the run has finished.
// A failed checkpoint leaves any file already at that path untouched.
func (ob *Observatory) MaybeCheckpoint(eng sim.Engine) error {
	if ob.CheckpointOut == "" {
		return nil
	}
	if err := replaceFile(ob.CheckpointOut, eng.Checkpoint); err != nil {
		return fmt.Errorf("checkpoint to %s: %w", ob.CheckpointOut, err)
	}
	fmt.Fprintf(os.Stderr, "wrote checkpoint (slot %d) to %s\n", eng.Now(), ob.CheckpointOut)
	return nil
}

// replaceFile writes path through write by way of a temporary file in
// the same directory, renamed over path only once write, Sync and Close
// have all succeeded. On any failure the temporary file is removed and
// path keeps its previous contents.
func replaceFile(path string, write func(io.Writer) error) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close() // already failed; the close error adds nothing
			os.Remove(f.Name())
		}
	}()
	// CreateTemp makes the file private; give it os.Create's mode under
	// the usual 022 umask.
	if err = f.Chmod(0o644); err != nil {
		return err
	}
	if err = write(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// Wanted reports whether any observability flag was set.
func (ob *Observatory) Wanted() bool {
	return ob.MetricsOut != "" || ob.TraceOut != "" || ob.HTTPAddr != "" || ob.SpansOut != ""
}

// Validate reports an out-of-range flag value: a -sample period below
// one slot, a negative -epoch-batch or a negative -spans-limit. (The
// library clamps all three silently; at the flag boundary they are
// mistakes.)
func (ob *Observatory) Validate() error {
	if ob.Every < 1 {
		return fmt.Errorf("-sample %d: must be at least 1", ob.Every)
	}
	if ob.EpochBatch < 0 {
		return fmt.Errorf("-epoch-batch %d: must be 0 (auto) or at least 1", ob.EpochBatch)
	}
	if ob.SpansLimit < 0 {
		return fmt.Errorf("-spans-limit %d: must be 0 (the default capacity) or at least 1", ob.SpansLimit)
	}
	return nil
}

// Open rejects out-of-range flags, then builds the
// registry and sampler (and the trace and live endpoint when
// requested). With force=false and no observability flag set it builds
// nothing: everything stays nil and instrumentation remains free.
func (ob *Observatory) Open(force bool) error {
	if err := ob.Validate(); err != nil {
		return err
	}
	if !force && !ob.Wanted() {
		return nil
	}
	ob.Reg = metrics.New()
	ob.Sampler = metrics.NewSampler(ob.Reg, ob.Every)
	if ob.TraceOut != "" {
		ob.Trace = sim.NewTrace()
	}
	if ob.SpansOut != "" {
		ob.Flight = flight.NewRecorder(ob.SpansLimit)
	}
	if ob.HTTPAddr != "" {
		ob.Status = &metrics.StatusVar{}
		srv, err := metrics.ServeStatus(ob.HTTPAddr, ob.Reg, ob.Status)
		if err != nil {
			return err
		}
		ob.srv = srv
		fmt.Fprintf(os.Stderr, "serving /metrics, /healthz, /statusz, /debug/vars, /debug/pprof on http://%s\n", srv.Addr)
	}
	return nil
}

// Attach registers the sampler on an engine so the time series records
// during the run, and attaches the registry and trace to the engine's
// checkpoint state so -checkpoint-out/-resume round-trip them; a no-op
// when observation is off. Attaching to several engines in sequence
// appends their runs to one series (each run's samples restart at
// slot 0), but empties the flight recorder: span IDs compose (actor,
// slot) and every engine restarts at slot 0, so runs sharing the ring
// would collide, and the -spans-out export holds the last run alone.
func (ob *Observatory) Attach(eng sim.Engine) {
	if ob.Sampler != nil {
		ob.Sampler.Attach(eng)
	}
	if ob.Reg != nil {
		eng.AttachState("metrics", ob.Reg)
	}
	if ob.Trace != nil {
		eng.AttachState("trace", ob.Trace)
	}
	if ob.Flight != nil {
		if ob.attached > 0 {
			ob.Flight.Reset()
		}
		eng.AttachState("flight", ob.Flight)
		ob.attached++
	}
	if ob.Status != nil {
		ob.Status.Attach(eng)
	}
	if ob.Reg != nil || ob.Status != nil {
		ob.engines = append(ob.engines, eng)
	}
}

// Close writes the requested output files and shuts the live endpoint
// down. Call once, after the last simulation has finished.
//
// Closing also publishes the skip-ahead bookkeeping: the
// engine_slots_skipped_total and engine_jumps_total counters, summed
// over every attached engine, are stamped into the registry HERE, after
// the last run, never during one — skip counts legitimately differ
// between provably equivalent runs (dense vs skip-ahead), so they must
// not contaminate the registry digests the determinism tests compare.
func (ob *Observatory) Close() error {
	ob.stampEngines()
	if ob.MetricsOut != "" {
		if err := ob.writeMetrics(); err != nil {
			return err
		}
	}
	if ob.TraceOut != "" {
		f, err := os.Create(ob.TraceOut)
		if err != nil {
			return err
		}
		if err := metrics.WriteTraceJSONL(f, ob.Trace); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote trace to %s\n", ob.TraceOut)
	}
	if ob.SpansOut != "" {
		if err := ob.writeSpans(); err != nil {
			return err
		}
	}
	if ob.srv != nil {
		return ob.srv.Close()
	}
	return nil
}

// stampEngines folds each attached engine's final progress into the
// registry counters and the /statusz source (the last engine wins the
// point-in-time status; the counters accumulate across engines).
func (ob *Observatory) stampEngines() {
	var skipped, jumps int64
	for _, eng := range ob.engines {
		skipped += eng.SlotsRun() - eng.SlotsFired()
		if j, ok := eng.(interface{ Jumps() int64 }); ok {
			jumps += j.Jumps()
		}
		if ob.Status != nil {
			ob.Status.StampEngine(eng)
		}
	}
	if ob.Reg != nil && len(ob.engines) > 0 {
		// Only counters derivable from checkpointed clock state are
		// folded into the exported exposition: a resumed run must
		// write a byte-identical -metrics-out file, and the engine's
		// synchronization counters (BarrierCrossings/Epochs) are
		// process-lifetime values a restore cannot reconstruct. Those
		// stay on the live surfaces — /statusz and the /metrics
		// scrape-time append — which carry point-in-time engine
		// status, not simulated history.
		ob.Reg.Counter("engine_slots_skipped_total").Add(skipped)
		ob.Reg.Counter("engine_jumps_total").Add(jumps)
	}
}

// writeSpans exports the flight recorder: Chrome trace-event JSON for
// *.json (loads in Perfetto / chrome://tracing), JSONL otherwise.
func (ob *Observatory) writeSpans() error {
	f, err := os.Create(ob.SpansOut)
	if err != nil {
		return err
	}
	events := ob.Flight.Events()
	if strings.HasSuffix(ob.SpansOut, ".json") {
		err = flight.WriteChromeTrace(f, events)
	} else {
		err = flight.WriteJSONL(f, events)
	}
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d span events to %s (%d dropped by the ring)\n",
		len(events), ob.SpansOut, ob.Flight.Dropped())
	return nil
}

func (ob *Observatory) writeMetrics() error {
	f, err := os.Create(ob.MetricsOut)
	if err != nil {
		return err
	}
	if strings.HasSuffix(ob.MetricsOut, ".jsonl") {
		err = metrics.WriteSeriesJSONL(f, ob.Sampler.Samples)
	} else {
		_, err = io.WriteString(f, metrics.Prometheus(ob.Reg.Snapshot()))
	}
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote metrics to %s\n", ob.MetricsOut)
	return nil
}

// HeatRows extracts one heat-map row per labelled instance of a metric
// family from the sampled series, probing instance labels 0,1,2,...
// until one is absent. With diff=true consecutive samples are
// differenced, turning cumulative counters into per-interval activity;
// gauges should be read as-is (diff=false).
func (ob *Observatory) HeatRows(family, label string, diff bool) (labels []string, rows [][]int64) {
	if ob.Sampler == nil || len(ob.Sampler.Samples) == 0 {
		return nil, nil
	}
	last := ob.Sampler.Samples[len(ob.Sampler.Samples)-1]
	for i := 0; ; i++ {
		name := fmt.Sprintf(`%s{%s="%d"}`, family, label, i)
		if _, ok := last.Values[name]; !ok {
			break
		}
		_, vals := ob.Sampler.Series(name)
		if diff {
			prev := int64(0)
			for j, v := range vals {
				vals[j], prev = v-prev, v
			}
		}
		labels = append(labels, fmt.Sprintf("%s %d", label, i))
		rows = append(rows, vals)
	}
	return labels, rows
}
