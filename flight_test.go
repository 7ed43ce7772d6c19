// The flight recorder's own bargains: with recording disabled (a nil
// *FlightRecorder) the instrumented tick paths must not allocate for it
// at all, and a recorder attached to a checkpointed engine must carry
// its span stream across a restore. (Span-stream equality across engine
// modes is part of the determinism matrix, matrix_test.go.)
package cfm_test

import (
	"bytes"
	"testing"

	"cfm"
	"cfm/internal/flight"
)

// TestFlightDisabledPathAllocs pins the nil-recorder fast path: an
// instrumented component holding a nil *FlightRecorder must be able to
// take its Enabled() branch without a single allocation.
func TestFlightDisabledPathAllocs(t *testing.T) {
	var rec *cfm.FlightRecorder
	if rec.Enabled() {
		t.Fatal("nil recorder reports Enabled")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if rec.Enabled() {
			rec.Emit(cfm.FlightComposeID(3, 17), 17, cfm.StageIssue, 3, 0)
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled flight path allocates %.1f/op, want 0", allocs)
	}
	// The methods the fold paths call unconditionally are nil-safe and
	// allocation-free too.
	allocs = testing.AllocsPerRun(1000, func() {
		_ = rec.Len()
		_ = rec.Dropped()
		_ = rec.Events()
	})
	if allocs != 0 {
		t.Fatalf("nil recorder accessors allocate %.1f/op, want 0", allocs)
	}
}

// TestFlightRecorderCheckpointRoundTrip drives a recorder-attached run
// through Engine.Checkpoint/Restore and requires the restored engine to
// finish with the same span stream as the uninterrupted oracle.
func TestFlightRecorderCheckpointRoundTrip(t *testing.T) {
	build := func() (cfm.Engine, *cfm.FlightRecorder) {
		eng := cfm.NewClock()
		conv := cfm.NewConventional(cfm.ConventionalConfig{
			Processors: 8, Modules: 8, BlockTime: 17,
			AccessRate: 0.05, RetryMean: 8, Seed: 11})
		rec := cfm.NewFlightRecorder(0)
		conv.RecordFlight(rec)
		eng.Register(conv)
		eng.AttachState("flight", rec)
		return eng, rec
	}
	oracle, oracleRec := build()
	oracle.Run(2000)
	want := flight.Encode(oracleRec.Events())

	eng, rec := build()
	eng.Run(800)
	ck, err := cfm.CheckpointBytes(eng)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(1200) // dirty the state past the cut
	if err := eng.Restore(bytes.NewReader(ck)); err != nil {
		t.Fatal(err)
	}
	if eng.Now() != 800 {
		t.Fatalf("restored engine at slot %d, want 800", eng.Now())
	}
	eng.Run(1200)
	if got := flight.Encode(rec.Events()); !bytes.Equal(got, want) {
		t.Fatalf("restored run's span stream differs from the oracle (%d vs %d bytes)",
			len(got), len(want))
	}
}
