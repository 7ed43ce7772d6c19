package obsflags

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"cfm/internal/sim"
)

// TestFlagDefaults pins the registered flag set and its defaults: the
// cmd/ tools share this contract.
func TestFlagDefaults(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	ob := Flags(fs)
	for _, name := range []string{"metrics-out", "trace-out", "http", "sample",
		"workers", "skip-ahead", "epoch-batch"} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
	if fs.Lookup("parallel") != nil {
		t.Error("flag -parallel registered: -workers alone sets the engine's shape")
	}
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if ob.MetricsOut != "" || ob.TraceOut != "" || ob.HTTPAddr != "" {
		t.Errorf("output flags must default empty, got %+v", ob)
	}
	if ob.Every != 1000 {
		t.Errorf("-sample default = %d, want 1000", ob.Every)
	}
	if ob.Workers != 1 || ob.SkipAhead || ob.EpochBatch != sim.EpochAuto {
		t.Errorf("engine flags must default to one worker, dense, auto episodes; got %+v", ob)
	}
}

// TestEngineFlags pins what the engine flags build and which values
// Open rejects: -workers alone sets the worker count, and -epoch-batch
// on one worker is the no-op SetEpochBatch documents, not an error.
func TestEngineFlags(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		wantErr bool
		workers int   // Workers() of the built engine
		fired   int64 // SlotsFired after a 100-slot run of an idle driver
	}{
		{args: nil, workers: 1, fired: 100},
		{args: []string{"-skip-ahead"}, workers: 1, fired: 0},
		{args: []string{"-workers", "1"}, workers: 1, fired: 100},
		{args: []string{"-workers", "4"}, workers: 4, fired: 100},
		{args: []string{"-workers", "-1"}, workers: runtime.GOMAXPROCS(0), fired: 100},
		{args: []string{"-epoch-batch", "8"}, workers: 1, fired: 100},
		{args: []string{"-skip-ahead", "-epoch-batch", "1"}, workers: 1, fired: 0},
		{args: []string{"-epoch-batch", "-1"}, wantErr: true},
		{args: []string{"-workers", "2", "-epoch-batch", "-1"}, wantErr: true},
		{args: []string{"-sample", "0"}, wantErr: true},
		{args: []string{"-sample", "-5"}, wantErr: true},
		{args: []string{"-spans-limit", "-5"}, wantErr: true},
		{args: []string{"-spans-limit", "0"}, workers: 1, fired: 100},
		{args: []string{"-workers", "0"}, workers: sim.WorkersAuto, fired: 100},
		{args: []string{"-workers", "2"}, workers: 2, fired: 100},
		{args: []string{"-workers", "2", "-epoch-batch", "4", "-skip-ahead"}, workers: 2, fired: 0},
	} {
		fs := flag.NewFlagSet("x", flag.ContinueOnError)
		ob := Flags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		err := ob.Open(false)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%q: Open succeeded, want an error", tc.args)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: Open: %v", tc.args, err)
			continue
		}
		eng := ob.NewEngine()
		pc, ok := eng.(*sim.ParallelClock)
		if !ok {
			t.Fatalf("%q: NewEngine built a %T", tc.args, eng)
		}
		if got := pc.Workers(); got != tc.workers {
			t.Errorf("%q: Workers() = %d, want %d", tc.args, got, tc.workers)
		}
		pc.Register(&sim.FuncTicker{NextEvent: func(sim.Slot) sim.Slot { return sim.HorizonNone }})
		pc.Run(100)
		pc.Close()
		if got := pc.SlotsFired(); got != tc.fired {
			t.Errorf("%q: SlotsFired() = %d after 100 slots, want %d", tc.args, got, tc.fired)
		}
		if err := ob.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenForce builds the registry and sampler with no flags set, the
// mode the experiment driver uses when a report always needs metrics.
func TestOpenForce(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	ob := Flags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := ob.Open(true); err != nil {
		t.Fatal(err)
	}
	if ob.Reg == nil || ob.Sampler == nil {
		t.Fatal("Open(true) must build the registry and sampler")
	}
	if ob.Trace != nil {
		t.Fatal("Open(true) without -trace-out must not build a trace")
	}
	if err := ob.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenBadHTTPAddr pins the error path: an unbindable -http address
// fails Open instead of dying later in a goroutine.
func TestOpenBadHTTPAddr(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	ob := Flags(fs)
	if err := fs.Parse([]string{"-http", "256.256.256.256:0"}); err != nil {
		t.Fatal(err)
	}
	if err := ob.Open(false); err == nil {
		ob.Close()
		t.Fatal("Open with an unbindable -http address must fail")
	}
}

// TestCloseMetricsOutError pins the error path for an uncreatable
// -metrics-out target.
func TestCloseMetricsOutError(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	ob := Flags(fs)
	bad := filepath.Join(t.TempDir(), "missing", "out.prom")
	if err := fs.Parse([]string{"-metrics-out", bad}); err != nil {
		t.Fatal(err)
	}
	if err := ob.Open(false); err != nil {
		t.Fatal(err)
	}
	if err := ob.Close(); err == nil {
		t.Fatal("Close must surface the metrics file creation error")
	}
}

// TestCloseTraceOutError pins the error path for an uncreatable
// -trace-out target.
func TestCloseTraceOutError(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	ob := Flags(fs)
	bad := filepath.Join(t.TempDir(), "missing", "trace.jsonl")
	if err := fs.Parse([]string{"-trace-out", bad}); err != nil {
		t.Fatal(err)
	}
	if err := ob.Open(false); err != nil {
		t.Fatal(err)
	}
	if ob.Trace == nil {
		t.Fatal("-trace-out must build the trace")
	}
	if err := ob.Close(); err == nil {
		t.Fatal("Close must surface the trace file creation error")
	}
}

// TestHeatRowsUnobserved pins the nil fast path.
func TestHeatRowsUnobserved(t *testing.T) {
	ob := &Observatory{}
	labels, rows := ob.HeatRows("family", "p", true)
	if labels != nil || rows != nil {
		t.Fatalf("unobserved HeatRows = %v, %v; want nil, nil", labels, rows)
	}
}

// TestMaybeCheckpointReplacesOnlyOnSuccess: -checkpoint-out replaces
// its target only when the checkpoint succeeds. A successful one writes
// exactly eng.Checkpoint's bytes; a failing one (an unserializable
// callback) leaves the previous snapshot byte-for-byte and no temporary
// file behind.
func TestMaybeCheckpointReplacesOnlyOnSuccess(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.cfm")
	ob := &Observatory{CheckpointOut: path}

	good := sim.NewClock()
	good.Register(&sim.FuncTicker{OnTick: func(sim.Slot, sim.Phase) {}})
	good.Run(7)
	if err := ob.MaybeCheckpoint(good); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	var want bytes.Buffer
	if err := good.Checkpoint(&want); err != nil {
		t.Fatalf("reference checkpoint: %v", err)
	}
	prev, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(prev, want.Bytes()) {
		t.Fatalf("-checkpoint-out wrote %d bytes, eng.Checkpoint gives %d", len(prev), want.Len())
	}

	bad := sim.NewClock()
	bad.Register(&sim.FuncTicker{
		OnTick: func(sim.Slot, sim.Phase) {},
		Save:   func(enc *sim.StateEncoder) { enc.Failf("external callback cannot be serialized") },
	})
	bad.Run(9)
	if err := ob.MaybeCheckpoint(bad); err == nil {
		t.Fatal("failing checkpoint reported success")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, prev) {
		t.Fatal("a failed checkpoint changed the previous snapshot")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after a failed checkpoint, want only the snapshot", len(entries))
	}
}
