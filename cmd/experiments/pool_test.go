package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"cfm/internal/obsflags"
	"cfm/internal/scenario"
)

// TestReportOnPoolMatchesGolden runs the default report, whose entries
// run on a pool of GOMAXPROCS workers, at GOMAXPROCS 1, 2 and 4: every
// run hashes to cfmbench's paper_suite golden. Under the race detector
// only the test's own GOMAXPROCS runs (go test -race -cpu=1,2,4 covers
// the three).
func TestReportOnPoolMatchesGolden(t *testing.T) {
	want := paperSuiteGolden(t)
	procs := []int{1, 2, 4}
	if raceEnabled {
		procs = []int{runtime.GOMAXPROCS(0)}
	}
	for _, n := range procs {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", n), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
			if got := stdoutSum(runReport(t)); got != want {
				t.Fatalf("report %s, want the paper_suite golden %s", got, want)
			}
		})
	}
}

// TestPoolSize pins the runner's policy: GOMAXPROCS entries at once,
// except one at a time when entries would share the observatory or the
// Fig 3.13 checkpoint, or when the engines use several workers.
func TestPoolSize(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		args []string
		want int
	}{
		{nil, procs},
		{[]string{"-skip-ahead"}, procs},
		{[]string{"-epoch-batch", "4"}, procs},
		{[]string{"-workers", "1"}, procs},
		{[]string{"-metrics-out", "m.prom"}, 1},
		{[]string{"-trace-out", "t.jsonl"}, 1},
		{[]string{"-http", "localhost:0"}, 1},
		{[]string{"-spans-out", "s.json"}, 1},
		{[]string{"-resume", "ck.cfm"}, 1},
		{[]string{"-checkpoint-out", "ck.cfm"}, 1},
		{[]string{"-workers", "2"}, 1},
		{[]string{"-workers", "0"}, 1},
		{[]string{"-workers", "-1"}, 1},
	} {
		fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
		obs := obsflags.Flags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		if got := poolSize(obs); got != tc.want {
			t.Errorf("%q: pool of %d, want %d", tc.args, got, tc.want)
		}
	}
}

// unobserved returns an open observatory with no flag set.
func unobserved(t *testing.T) *obsflags.Observatory {
	t.Helper()
	obs := obsflags.Flags(flag.NewFlagSet("experiments", flag.ContinueOnError))
	if err := obs.Open(false); err != nil {
		t.Fatal(err)
	}
	return obs
}

// passing is an entry that prints text and one passing check.
func passing(title string) scenario.Entry {
	return scenario.Entry{Title: title, Run: func(_ *obsflags.Observatory, s *scenario.Section) error {
		s.Text = title + " text\n"
		s.Checks = append(s.Checks, scenario.Check{Name: title, OK: true})
		return nil
	}}
}

// failing is an entry that fails with err once wait (when not nil) is
// closed, then closes done (when not nil).
func failing(title string, err error, wait, done chan struct{}) scenario.Entry {
	return scenario.Entry{Title: title, Run: func(_ *obsflags.Observatory, s *scenario.Section) error {
		if wait != nil {
			<-wait
		}
		if done != nil {
			defer close(done)
		}
		s.Text = title + " text that must not print\n"
		return err
	}}
}

// prefix is the report's stdout for sections of entries all passing,
// followed by the title of stopAt.
func prefix(stopAt string, passed ...string) string {
	out := "# CFM reproduction — experiment report\n"
	for _, title := range passed {
		out += "\n## " + title + "\n" + title + " text\n" + scenario.Check{Name: title, OK: true}.String() + "\n"
	}
	return out + "\n## " + stopAt + "\n"
}

// TestPoolFailuresInCatalogOrder: a failed entry stops the report right
// after its title, as in a one-at-a-time run, and the report returns the
// error of the first failed entry in catalog order, even when a later
// entry failed first. Each case runs at pool sizes 1 and 2; at 2 the
// cases where an entry waits for a later one make the later one fail
// first in wall time.
func TestPoolFailuresInCatalogOrder(t *testing.T) {
	errA, errB := errors.New("A failed"), errors.New("B failed")
	for _, workers := range []int{1, 2} {
		// gate returns a channel an earlier entry waits on for a later
		// one to finish; nil (no wait) on one worker, where the later
		// entry runs only after the earlier one.
		gate := func() chan struct{} {
			if workers == 1 {
				return nil
			}
			return make(chan struct{})
		}
		for _, tc := range []struct {
			name    string
			entries func() []scenario.Entry
			want    string
			err     error
		}{
			{"middle entry fails", func() []scenario.Entry {
				return []scenario.Entry{passing("A"), failing("B", errB, nil, nil), passing("C")}
			}, prefix("B", "A"), errB},
			{"earlier failure wins", func() []scenario.Entry {
				bDone := gate()
				return []scenario.Entry{failing("A", errA, bDone, nil), failing("B", errB, nil, bDone), passing("C")}
			}, prefix("A"), errA},
			{"later failure waits for earlier sections", func() []scenario.Entry {
				bDone := gate()
				a := passing("A")
				run := a.Run
				a.Run = func(obs *obsflags.Observatory, s *scenario.Section) error {
					if bDone != nil {
						<-bDone
					}
					return run(obs, s)
				}
				return []scenario.Entry{a, failing("B", errB, nil, bDone), passing("C")}
			}, prefix("B", "A"), errB},
			{"first entry fails", func() []scenario.Entry {
				return []scenario.Entry{failing("A", errA, nil, nil), passing("B")}
			}, prefix("A"), errA},
		} {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, tc.name), func(t *testing.T) {
				var out bytes.Buffer
				err := report(&out, unobserved(t), tc.entries(), workers)
				if !errors.Is(err, tc.err) {
					t.Errorf("report returned %v, want %v", err, tc.err)
				}
				if out.String() != tc.want {
					t.Errorf("stdout:\n%s\nwant:\n%s", out.String(), tc.want)
				}
			})
		}
	}
}

// TestPoolPanicReachesCaller: an entry's panic on a pool worker is
// recovered there and re-raised on the goroutine that runs the report,
// naming the entry; the output stops after the entry's title.
func TestPoolPanicReachesCaller(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			entries := []scenario.Entry{passing("A"),
				{Title: "B", Run: func(*obsflags.Observatory, *scenario.Section) error { panic("boom") }},
				passing("C")}
			var (
				out       bytes.Buffer
				recovered any
			)
			func() {
				defer func() { recovered = recover() }()
				report(&out, unobserved(t), entries, workers)
			}()
			p, ok := recovered.(*entryPanic)
			if !ok || p.title != "B" || p.value != "boom" || !strings.HasPrefix(p.Error(), "B: panic: boom\n") {
				t.Fatalf("recovered %#v, want entry B's panic \"boom\"", recovered)
			}
			if want := prefix("B", "A"); out.String() != want {
				t.Errorf("stdout:\n%s\nwant:\n%s", out.String(), want)
			}
		})
	}
}

// TestExitCodes: a usage error exits 2 with one "experiments:" line and
// no report; a diverged check or a failed run exits 1; a reproduced
// report exits 0.
func TestExitCodes(t *testing.T) {
	diverged := scenario.Entry{Title: "A", Run: func(_ *obsflags.Observatory, s *scenario.Section) error {
		s.Checks = append(s.Checks, scenario.Check{Name: "A", OK: false})
		return nil
	}}
	for _, tc := range []struct {
		name    string
		args    []string
		entries []scenario.Entry
		code    int
		stderr  string // all of it, when not empty
	}{
		{"sample 0", []string{"-sample", "0"}, nil, 2, "experiments: -sample 0: must be at least 1"},
		{"epoch-batch -2", []string{"-epoch-batch", "-2"}, nil, 2, "experiments: -epoch-batch -2: must be 0 (auto) or at least 1"},
		{"spans-limit -5", []string{"-spans-limit", "-5"}, nil, 2, "experiments: -spans-limit -5: must be 0 (the default capacity) or at least 1"},
		{"unbindable http", []string{"-http", "no-port"}, nil, 2, "experiments: listen tcp: address no-port: missing port in address"},
		{"unknown flag", []string{"-no-such-flag"}, nil, 2, ""},
		{"diverged check", nil, []scenario.Entry{passing("A"), diverged}, 1, "experiments: 1 check(s) failed"},
		{"failed run", nil, []scenario.Entry{failing("A", errors.New("broke"), nil, nil)}, 1, "experiments: broke"},
		{"reproduced", []string{"-spans-limit", "0"}, []scenario.Entry{passing("A")}, 0, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr, tc.entries)
			if code != tc.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, tc.code, stderr.String())
			}
			if tc.code == 2 && stdout.Len() != 0 {
				t.Errorf("a usage error printed a report:\n%s", stdout.String())
			}
			if tc.stderr != "" && stderr.String() != tc.stderr+"\n" {
				t.Errorf("stderr %q, want the one line %q", stderr.String(), tc.stderr)
			}
		})
	}
}
