package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cfm/internal/obsflags"
)

// runReport runs the report in-process with the given command-line flags
// and returns its stdout.
func runReport(t *testing.T, args ...string) string {
	t.Helper()
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	obs := obsflags.Flags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := report(&out, obs); err != nil {
		t.Fatalf("experiments %v: %v\n%s", args, err, out.String())
	}
	return out.String()
}

// TestReportIndependentOfEngine runs the whole report under several
// engine settings: apart from the parallel banner every output is the
// same bytes, and the serial one hashes to cfmbench's paper_suite
// golden. A run resumed from the Fig 3.13 checkpoint prints the same
// report too. Under the race detector only the serial run and the
// fullest parallel setting run.
func TestReportIndependentOfEngine(t *testing.T) {
	golden, err := os.ReadFile("../../bench/cfmbench/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var goldens map[string]string
	if err := json.Unmarshal(golden, &goldens); err != nil {
		t.Fatal(err)
	}
	ck := filepath.Join(t.TempDir(), "fig313.cfm")
	serial := runReport(t, "-checkpoint-out", ck)
	sum := sha256.Sum256([]byte(serial))
	if got, want := "stdout_sha256="+hex.EncodeToString(sum[:]), goldens["paper_suite"]; got != want {
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
