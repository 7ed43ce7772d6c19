// Command experiments regenerates every table and figure of the
// dissertation's evaluation and reports paper-expected versus measured
// values: it runs each entry of the internal/scenario catalog in report
// order and prints its checks. Its output is the data behind
// EXPERIMENTS.md.
//
// The engine flags (-workers, -skip-ahead, -epoch-batch) and the
// observability flags are the shared ones of internal/obsflags. Results
// are identical under every engine flag (the engine equivalence
// guarantee, proven by the determinism matrix, matrix_test.go); only a
// -workers other than 1 adds a banner line. The observability flags instrument the
// simulation-heavy experiments (Figs 2.1 and 3.13–3.15, the §7.2
// allocation runs, the Chapter 4 traces); -resume and -checkpoint-out
// apply to the Fig 3.13 run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"cfm/internal/obsflags"
	"cfm/internal/scenario"
)

func main() {
	obs := obsflags.Flags(flag.CommandLine)
	flag.Parse()
	if err := report(os.Stdout, obs); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// report runs the catalog with the engine and observability settings of
// obs and writes the report to w.
func report(w io.Writer, obs *obsflags.Observatory) error {
	if err := obs.Open(false); err != nil {
		return err
	}
	fmt.Fprintln(w, "# CFM reproduction — experiment report")
	if obs.Workers != 1 {
		fmt.Fprintf(w, "(simulations on the parallel cycle engine, workers=%d)\n", obs.Workers)
	}
	failures := 0
	for _, e := range scenario.Report() {
		fmt.Fprintf(w, "\n## %s\n", e.Title)
		var s scenario.Section
		if err := e.Run(obs, &s); err != nil {
			return err
		}
		fmt.Fprint(w, s.Text)
		for _, c := range s.Checks {
			fmt.Fprintln(w, c)
			if !c.OK {
				failures++
			}
		}
	}
	fmt.Fprintln(w)
	if err := obs.Close(); err != nil {
		return err
	}
	if failures > 0 {
		fmt.Fprintf(w, "%d experiment(s) diverged from the paper\n", failures)
		return fmt.Errorf("%d check(s) failed", failures)
	}
	fmt.Fprintln(w, "all experiments reproduce the paper's results")
	return nil
}
