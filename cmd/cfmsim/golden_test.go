package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite the golden files under testdata/ from the current outputs")

// goldenRuns are the cfmsim invocations whose stdout is pinned under
// testdata/: every command at its default flags (efficiency at a short
// -slots, once per figure), plus the variants that take another path
// through their command.
var goldenRuns = [][]string{
	{"atspace"},
	{"table3.3"},
	{"table3.4"},
	{"table3.4", "-states"},
	{"table3.5"},
	{"timing"},
	{"efficiency", "-fig", "3.13", "-slots", "20000"},
	{"efficiency", "-fig", "3.14", "-slots", "20000"},
	{"efficiency", "-fig", "3.15", "-slots", "20000"},
	{"treesat"},
	{"headers"},
	{"att"},
	{"att", "-demo", "tracking"},
	{"locktransfer"},
	{"latency"},
	{"latency", "-config", "ksr1"},
	{"alloc"},
	{"sharing"},
	{"topology"},
	{"ordering"},
	{"observe"},
	{"waterfall"},
	{"bisect"},
	{"bisect", "-inject", "100"},
}

// goldenPath names the golden file of one invocation: its arguments
// joined by underscores, leading dashes dropped.
func goldenPath(args []string) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = strings.TrimLeft(a, "-")
	}
	return filepath.Join("testdata", strings.Join(parts, "_")+".golden")
}

// TestGoldenOutputs pins the stdout of every goldenRuns invocation. A
// deliberate output change regenerates the files with
//
//	go test -run TestGoldenOutputs -update-golden ./cmd/cfmsim
func TestGoldenOutputs(t *testing.T) {
	for _, args := range goldenRuns {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			code, stdout, stderr := runCfmsim(t, args...)
			if code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr)
			}
			path := goldenPath(args)
			if *updateGolden {
				if err := os.WriteFile(path, []byte(stdout), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update-golden): %v", err)
			}
			if stdout != string(want) {
				t.Errorf("stdout drifted from %s:\n%s", path, firstDiff(string(want), stdout))
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

// TestGoldenRunsCoverCommands: every command of the table has a pinned
// run.
func TestGoldenRunsCoverCommands(t *testing.T) {
	pinned := map[string]bool{}
	for _, args := range goldenRuns {
		pinned[args[0]] = true
	}
	for _, c := range commands() {
		if !pinned[c.name] {
			t.Errorf("command %q has no golden run", c.name)
		}
	}
}
