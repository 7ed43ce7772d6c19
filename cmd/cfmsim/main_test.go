package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// asMainEnv makes the test binary run cfmsim's main with its own
// arguments instead of the tests, so a test can observe the exit code
// and output of a real cfmsim process.
const asMainEnv = "CFMSIM_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCfmsim runs cfmsim with args in a child process and returns its
// exit code, stdout and stderr.
func runCfmsim(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stdout.String(), stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stdout.String(), stderr.String()
	}
	t.Fatalf("cfmsim %v: %v", args, err)
	return 0, "", ""
}

// TestOutOfRangeFlagsAreUsageErrors: a flag value no simulator can take
// exits 2 with one "cfmsim:" line and no output, instead of a Go panic
// trace or an all-zero table.
func TestOutOfRangeFlagsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"treesat", "-n", "3"},
		{"treesat", "-n", "0"},
		{"treesat", "-slots", "-1"},
		{"atspace", "-n", "0"},
		{"timing", "-p", "9"},
		{"efficiency", "-slots", "-5"},
		{"efficiency", "-steps", "0"},
		{"observe", "-n", "3"},
		{"locktransfer", "-n", "1"},
		{"headers", "-words", "0"},
		{"headers", "-banks", "3"},
		{"table3.3", "-block", "0"},
		{"table3.3", "-c", "0"},
		{"table3.4", "-n", "3"},
		{"table3.5", "-banks", "0"},
		{"table3.5", "-banks", "3"},
		{"observe", "-sample", "0"},
		{"observe", "-sample", "-5"},
		{"treesat", "-epoch-batch", "-1"},
		{"waterfall", "-spans-limit", "-5"},
		{"observe", "-spans-limit", "-1"},
		{"sharing", "-rate", "2"},
		{"sharing", "-rate", "-1"},
		{"waterfall", "-rate", "3"},
		{"waterfall", "-sys", "partial", "-rate", "2"},
		{"waterfall", "-id", "zz"},
		{"bisect", "-rate", "3"},
		{"timing", "-slot", "-5"},
		{"waterfall", "-top", "-1"},
		{"bisect", "-window", "-3"},
		{"bisect", "-inject", "4096"},
		{"bisect", "-slots", "100", "-inject", "200"},
		{"treesat", "-slots", "100", "-resume", "/nonexistent/ck.cfm"},
		{"treesat", "-checkpoint-out", "/nonexistent/ck.cfm"},
		{"efficiency", "-resume", "/nonexistent/ck.cfm"},
		{"efficiency", "-checkpoint-out", "/nonexistent/ck.cfm"},
		{"alloc", "-resume", "/nonexistent/ck.cfm"},
		{"alloc", "-checkpoint-out", "/nonexistent/ck.cfm"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			code, stdout, stderr := runCfmsim(t, args...)
			if code != 2 || stdout != "" || strings.Contains(stderr, "goroutine ") ||
				!strings.HasPrefix(stderr, "cfmsim: ") || strings.Count(stderr, "\n") != 1 {
				t.Fatalf("exit %d, stdout %q, stderr:\n%s\nwant exit 2, no stdout and one \"cfmsim: \" line",
					code, stdout, stderr)
			}
		})
	}
}

// TestInRangeFlagsRun is the control: the same commands with usable
// values run and print.
func TestInRangeFlagsRun(t *testing.T) {
	for _, args := range [][]string{
		{"atspace", "-n", "2"},
		{"timing", "-p", "3"},
		{"table3.3", "-block", "64", "-c", "4"},
		{"table3.4", "-n", "4"},
		{"table3.5", "-banks", "16"},
		{"headers", "-banks", "16", "-words", "1"},
		{"timing", "-slot", "5"},
		{"waterfall", "-slots", "2000", "-top", "0"},
		{"bisect", "-slots", "256", "-window", "0", "-inject", "255"},
	} {
		if code, stdout, stderr := runCfmsim(t, args...); code != 0 || stdout == "" {
			t.Errorf("cfmsim %v: exit %d, stdout %q, stderr %q", args, code, stdout, stderr)
		}
	}
}

// TestWaterfallResume: waterfall checkpointed at 10 000 slots and
// resumed to 20 000 prints exactly the uninterrupted 20 000-slot run.
func TestWaterfallResume(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck.cfm")
	if code, _, stderr := runCfmsim(t, "waterfall", "-slots", "10000", "-checkpoint-out", ck); code != 0 {
		t.Fatalf("checkpointing run: exit %d, stderr:\n%s", code, stderr)
	}
	code, stdout, stderr := runCfmsim(t, "waterfall", "-slots", "20000", "-resume", ck)
	if code != 0 {
		t.Fatalf("resumed run: exit %d, stderr:\n%s", code, stderr)
	}
	want, err := os.ReadFile(goldenPath([]string{"waterfall"}))
	if err != nil {
		t.Fatal(err)
	}
	if stdout != string(want) {
		t.Errorf("resumed waterfall drifted from the uninterrupted run:\n%s", firstDiff(string(want), stdout))
	}
}
