package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cfm/internal/scenario"
)

// runReport runs the command in-process with the given command-line
// flags over the whole catalog and returns its stdout.
func runReport(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr, scenario.Report()); code != 0 {
		t.Fatalf("experiments %v: exit %d: %s\n%s", args, code, stderr.String(), stdout.String())
	}
	return stdout.String()
}

// paperSuiteGolden reads cfmbench's paper_suite golden: the sha256 of
// the default report's stdout.
func paperSuiteGolden(t *testing.T) string {
	t.Helper()
	golden, err := os.ReadFile("../../bench/cfmbench/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var goldens map[string]string
	if err := json.Unmarshal(golden, &goldens); err != nil {
		t.Fatal(err)
	}
	return goldens["paper_suite"]
}

// stdoutSum renders out's sha256 as the golden records it.
func stdoutSum(out string) string {
	sum := sha256.Sum256([]byte(out))
	return "stdout_sha256=" + hex.EncodeToString(sum[:])
}

// TestReportIndependentOfEngine runs the whole report under several
// engine settings: apart from the parallel banner every output is the
// same bytes, and the serial one (-checkpoint-out takes the entries one
// at a time) hashes to cfmbench's paper_suite golden. A run resumed from
// the Fig 3.13 checkpoint prints the same report too. Under the race
// detector only the serial run and the fullest parallel setting run.
func TestReportIndependentOfEngine(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "fig313.cfm")
	serial := runReport(t, "-checkpoint-out", ck)
	if got, want := stdoutSum(serial), paperSuiteGolden(t); got != want {
		t.Fatalf("serial report %s, want the paper_suite golden %s:\n%s", got, want, serial)
	}
	type setting struct {
		name string
		args []string
	}
	settings := []setting{{"parallel-skip-batch1", []string{"-workers", "2", "-skip-ahead", "-epoch-batch", "1"}}}
	if !raceEnabled {
		settings = append(settings,
			setting{"skip-ahead", []string{"-skip-ahead"}},
			setting{"parallel", []string{"-workers", "2"}},
			setting{"resumed", []string{"-resume", ck}})
	}
	const banner = "(simulations on the parallel cycle engine, workers=2)\n"
	for _, st := range settings {
		t.Run(st.name, func(t *testing.T) {
			got := runReport(t, st.args...)
			if st.args[0] == "-workers" {
				if !strings.Contains(got, banner) {
					t.Fatalf("no parallel banner in:\n%s", got)
				}
				got = strings.Replace(got, banner, "", 1)
			}
			if got != serial {
				t.Errorf("report differs from the serial one:\n%s", firstDiff(serial, got))
			}
		})
	}
}

// firstDiff points at the first differing line of two texts.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  want: %q\n  got:  %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: want %d, got %d", len(wl), len(gl))
}
