// Command experiments regenerates every table and figure of the
// dissertation's evaluation and reports paper-expected versus measured
// values: it runs each entry of the internal/scenario catalog and prints
// its checks in report order. Its output is the data behind
// EXPERIMENTS.md.
//
// The entries are independent simulations, so the report runs up to
// GOMAXPROCS of them at once (pool.go), starting the heaviest first by
// each entry's Cost hint, and prints each section in catalog order once
// its entry has run: the output does not depend on the pool size or the
// claim order, and GOMAXPROCS=1 runs the entries one at a time in
// catalog order. The report takes one entry at a time whenever an
// observability flag, -resume or -checkpoint-out is set (they would
// share one registry, sampler, flight ring or checkpoint), and whenever
// -workers is other than 1 (the engines then use the cores themselves).
//
// The engine flags (-workers, -skip-ahead, -epoch-batch) and the
// observability flags are the shared ones of internal/obsflags. Results
// are identical under every engine flag (the engine equivalence
// guarantee, proven by the determinism matrix, matrix_test.go); only a
// -workers other than 1 adds a banner line. The observability flags instrument the
// simulation-heavy experiments (Figs 2.1 and 3.13–3.15, the §7.2
// allocation runs, the Chapter 4 traces); -resume and -checkpoint-out
// apply to the Fig 3.13 run.
//
// The exit code is 0 when every check reproduces the paper, 1 when a
// check diverged or a run failed, and 2 on a usage error: a bad flag or
// an out-of-range value, reported in one "experiments:" line.
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, scenario.Report()))
}

// run is the command: it parses args, runs the report over entries and
// returns the exit code.
func run(args []string, stdout, stderr io.Writer, entries []scenario.Entry) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	obs := obsflags.Flags(fs)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2 // the flag package has printed the error and the usage
	}
	if err := obs.Open(false); err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 2
	}
	if err := report(stdout, obs, entries, poolSize(obs)); err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}
	return 0
}

// report runs entries on a pool of workers with the engine and
// observability settings of obs, which must be open, and writes the
// report to w in catalog order. When an entry fails, the output stops
// after its title, as if the entries ran one at a time, and report
// returns the error of the first failed entry in catalog order.
func report(w io.Writer, obs *obsflags.Observatory, entries []scenario.Entry, workers int) error {
	fmt.Fprintln(w, "# CFM reproduction — experiment report")
	if obs.Workers != 1 {
		fmt.Fprintf(w, "(simulations on the parallel cycle engine, workers=%d)\n", obs.Workers)
	}
	p := newPool(obs, entries, workers)
	defer p.close()
	failures := 0
	for i, e := range entries {
		fmt.Fprintf(w, "\n## %s\n", e.Title)
		s, err := p.wait(i)
		if err != nil {
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
