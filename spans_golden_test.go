// Golden-file pin for the flight recorder's export formats: the JSONL
// and Chrome-trace (Perfetto) bytes a fixed scenario produces are
// checked into testdata and byte-compared, from both engines. Format
// changes are deliberate acts — regenerate with
//
//	go test -run TestSpansGolden -update-golden .
package cfm_test

import (
	"bytes"
	"os"
	"testing"

	"cfm"
)

// spansGoldenScenario is a small fixed conventional run: enough traffic
// for a few hundred spans, small enough that the golden files stay
// reviewable in a diff.
func spansGoldenScenario(eng cfm.Engine) []cfm.FlightEvent {
	conv := cfm.NewConventional(cfm.ConventionalConfig{
		Processors: 8, Modules: 8, BlockTime: 17,
		AccessRate: 0.05, RetryMean: 8, Seed: 11})
	rec := cfm.NewFlightRecorder(0)
	conv.RecordFlight(rec)
	eng.Register(conv)
	eng.Run(600)
	return rec.Events()
}

// partialSpansScenario is the Partial counterpart: the Fig. 3.14 machine
// under the §7.2 Homes placement of partialHomesConfig, so the pinned
// span IDs and actors are processor ids of a fleet whose placement
// mixes idle processors, home-cluster jobs and an off-cluster job.
func partialSpansScenario(eng cfm.Engine) []cfm.FlightEvent {
	p := cfm.NewPartial(partialHomesConfig())
	rec := cfm.NewFlightRecorder(0)
	p.RecordFlight(rec)
	eng.Register(p)
	eng.Run(200)
	return rec.Events()
}

func checkSpansGolden(t *testing.T, path string, scenario func(cfm.Engine) []cfm.FlightEvent, render func([]cfm.FlightEvent) []byte) {
	t.Helper()
	serial := render(scenario(cfm.NewClock()))
	if len(serial) == 0 {
		t.Fatal("scenario rendered no span bytes; the golden check is vacuous")
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, serial, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with go test -run TestSpansGolden -update-golden .): %v", err)
	}
	if !bytes.Equal(serial, want) {
		t.Errorf("serial span export drifted from %s (%d vs %d bytes; regenerate with -update-golden if deliberate):\n%s",
			path, len(serial), len(want), diffHint(string(want), string(serial)))
	}
	skip := cfm.NewParallelClock(0)
	skip.SetSkipAhead(true)
	if parallel := render(scenario(skip)); !bytes.Equal(parallel, want) {
		t.Errorf("parallel skip-ahead span export drifted from %s:\n%s",
			path, diffHint(string(want), string(parallel)))
	}
}

// renderJSONL is the JSONL export as a golden renderer.
func renderJSONL(t *testing.T) func([]cfm.FlightEvent) []byte {
	return func(evs []cfm.FlightEvent) []byte {
		var buf bytes.Buffer
		if err := cfm.WriteFlightJSONL(&buf, evs); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
}

// TestSpansGoldenJSONL pins the JSONL export bytes.
func TestSpansGoldenJSONL(t *testing.T) {
	checkSpansGolden(t, "testdata/spans_golden.jsonl", spansGoldenScenario, renderJSONL(t))
}

// TestSpansGoldenPartialJSONL pins Partial's span stream: its event
// order, span IDs and actors are processor-numbered whatever order the
// component stores its processors in.
func TestSpansGoldenPartialJSONL(t *testing.T) {
	checkSpansGolden(t, "testdata/spans_golden_partial.jsonl", partialSpansScenario, renderJSONL(t))
}

// TestSpansGoldenChromeTrace pins the Perfetto-loadable Chrome trace.
func TestSpansGoldenChromeTrace(t *testing.T) {
	checkSpansGolden(t, "testdata/spans_golden.json", spansGoldenScenario, func(evs []cfm.FlightEvent) []byte {
		var buf bytes.Buffer
		if err := cfm.WriteFlightChromeTrace(&buf, evs); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	})
}
