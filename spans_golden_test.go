// Golden-file pin for the flight recorder's export formats: the JSONL
// and Chrome-trace (Perfetto) bytes two table entries produce are
// checked into testdata and byte-compared, from the oracle and from the
// parallel skip-ahead engine. Format changes are deliberate acts —
// regenerate with
//
//	go test -run TestSpansGolden -update-golden .
package cfm_test

import (
	"bytes"
	"os"
	"testing"

	"cfm"
	"cfm/internal/flight"
)

// checkSpansGolden renders the span stream of the named entry and
// compares it with the golden file at path.
func checkSpansGolden(t *testing.T, path, entry string, render func([]cfm.FlightEvent) []byte) {
	t.Helper()
	sc := scenarioNamed(t, entry)
	oracle, _ := oracleOf(t, sc)
	renderSpans := func(o observation) []byte {
		evs, err := flight.Decode(o.Spans)
		if err != nil {
			t.Fatal(err)
		}
		return render(evs)
	}
	serial := renderSpans(oracle)
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
	skip := runScenario(sc, mode("auto", 0, 0, 0, true).mk())
	if parallel := renderSpans(skip); !bytes.Equal(parallel, want) {
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
	checkSpansGolden(t, "testdata/spans_golden.jsonl", "ConventionalLowRate", renderJSONL(t))
}

// TestSpansGoldenPartialJSONL pins Partial's span stream: its event
// order, span IDs and actors are processor-numbered whatever order the
// component stores its processors in.
func TestSpansGoldenPartialJSONL(t *testing.T) {
	checkSpansGolden(t, "testdata/spans_golden_partial.jsonl", "PartialHomes", renderJSONL(t))
}

// TestSpansGoldenChromeTrace pins the Perfetto-loadable Chrome trace.
func TestSpansGoldenChromeTrace(t *testing.T) {
	checkSpansGolden(t, "testdata/spans_golden.json", "ConventionalLowRate", func(evs []cfm.FlightEvent) []byte {
		var buf bytes.Buffer
		if err := cfm.WriteFlightChromeTrace(&buf, evs); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	})
}
