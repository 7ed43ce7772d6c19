// Golden-file test for the simulation observatory: the Prometheus
// exposition of the table's Observatory entry is pinned by a golden file
// so exporter drift is caught in CI. (That the exposition and sampled
// series are identical under every engine mode is part of the
// determinism matrix, matrix_test.go.)
package cfm_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite the golden files under testdata/ from the current outputs")

// TestMetricsGoldenExposition pins the exposition bytes of the
// Observatory entry to testdata/metrics_golden.prom, produced by the
// oracle and by the parallel engine. A deliberate format or
// instrumentation change must regenerate the file with -update-golden.
func TestMetricsGoldenExposition(t *testing.T) {
	const path = "testdata/metrics_golden.prom"
	sc := scenarioNamed(t, "Observatory")
	serial, _ := oracleOf(t, sc)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(serial.Exposition), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with go test -run Golden -update-golden .): %v", err)
	}
	if serial.Exposition != string(want) {
		t.Errorf("serial exposition drifted from %s (regenerate with -update-golden if deliberate):\n%s",
			path, diffHint(string(want), serial.Exposition))
	}
	parallel := runScenario(sc, mode("auto", 0, 0, 0, false).mk())
	if parallel.Exposition != string(want) {
		t.Errorf("parallel exposition drifted from %s:\n%s", path, diffHint(string(want), parallel.Exposition))
	}
}

// diffHint points at the first differing line of two texts.
func diffHint(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  want: %q\n  got:  %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: want %d, got %d", len(wl), len(gl))
}
