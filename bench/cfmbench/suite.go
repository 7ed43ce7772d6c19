//cfm:wallclock-ok benchmark harness: host time is the measured quantity and never reaches simulation state

package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

var errNoExperiments = errors.New("paper_suite needs -experiments <path of a built cmd/experiments>")

// suiteRun is one timed run of cmd/experiments.
type suiteRun struct {
	wall        time.Duration
	firstHeader time.Duration // start → first `## ` line: process start and package init
	sections    map[string]time.Duration
	stdoutHash  string
	maxRSSKB    int64
}

// runSuite measures paper_suite: cmd/experiments, built beforehand, run
// in sequence until the measuring time is up. Its output does not depend
// on the seed, so every run is checked against the golden stdout hash.
func runSuite(o options) (result, error) {
	if o.experiments == "" {
		return result{}, errNoExperiments
	}
	var c checks
	minRuns := 3
	seconds := o.seconds
	if o.quick {
		minRuns, seconds = 1, 0
	}
	want := o.goldens["paper_suite"]
	var (
		runs  []suiteRun
		walls timings
	)
	dur := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for i := 0; i < minRuns || time.Since(start) < dur; i++ {
		walls.probe()
		r, err := runExperiments(o.experiments)
		if err != nil {
			return result{}, err
		}
		walls.probe()
		walls.add(r.wall)
		got := "stdout_sha256=" + r.stdoutHash
		if want == "" {
			want = got
		}
		c.verify(fmt.Sprintf("paper_suite run %d", i), got, want)
		runs = append(runs, r)
	}

	firsts := timings{probes: walls.probes} // the same probes bracket each run's start-up
	var rss []float64
	for _, r := range runs {
		firsts.add(r.firstHeader)
		rss = append(rss, float64(r.maxRSSKB)/1024)
	}
	wallNS := walls.normalized()
	if !o.trace {
		return newResult(c, endToEnd, map[string]float64{
			"iter_ms_p50": percentile(wallNS, 0.50) / 1e6,
			"iter_ms_p90": percentile(wallNS, 0.90) / 1e6,
			"setup_s":     median(firsts.normalized()) / 1e9,
			"peak_rss_mb": median(rss),
		}), nil
	}
	// Per-section medians. Line timestamps are taken on every run, so a
	// traced run costs the suite nothing extra: trace.overhead_frac is 0.
	vals := map[string]float64{
		"host.iter_ms_p10":     percentile(wallNS, 0.10) / 1e6,
		"host.probe_ms":        median(walls.probes) / 1e6,
		"host.raw_iter_ms_p50": median(walls.d) / 1e6,
	}
	for _, m := range suiteMetricSpecs() {
		var xs []float64
		for _, r := range runs {
			xs = append(xs, r.sections[m.name].Seconds())
		}
		vals[m.name] = median(xs)
	}
	return newResult(c, perLayer, vals), nil
}

// sectionMetric maps a `## ` header line to its metric; unknown sections
// and the preamble count as suite.unattributed_s.
func sectionMetric(line string) string {
	title := strings.TrimSpace(strings.TrimPrefix(line, "## "))
	for _, sep := range []string{" — ", " ("} {
		if i := strings.Index(title, sep); i >= 0 {
			title = title[:i]
		}
	}
	for _, s := range suiteSections {
		if s.title == title {
			return s.metric
		}
	}
	return "suite.unattributed_s"
}

// runExperiments runs the binary once, timestamping each section header
// as it arrives on the child's stdout and hashing the whole stdout.
func runExperiments(path string) (suiteRun, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, path)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return suiteRun{}, err
	}
	r := suiteRun{sections: map[string]time.Duration{}}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return suiteRun{}, fmt.Errorf("paper_suite: %w", err)
	}
	h := sha256.New()
	br := bufio.NewReader(io.TeeReader(out, h))
	cur, curStart := "suite.unattributed_s", start
	for {
		line, err := br.ReadString('\n')
		if strings.HasPrefix(line, "## ") {
			now := time.Now()
			if r.firstHeader == 0 {
				r.firstHeader = now.Sub(start)
			}
			r.sections[cur] += now.Sub(curStart)
			cur, curStart = sectionMetric(line), now
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			_ = cmd.Wait() // the read error is the one to report
			return suiteRun{}, fmt.Errorf("paper_suite: reading stdout: %w", err)
		}
	}
	if err := cmd.Wait(); err != nil {
		return suiteRun{}, fmt.Errorf("paper_suite: %s: %w", path, err)
	}
	end := time.Now()
	r.sections[cur] += end.Sub(curStart)
	r.wall = end.Sub(start)
	r.stdoutHash = fmt.Sprintf("%x", h.Sum(nil))
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.maxRSSKB = ru.Maxrss
	}
	return r, nil
}
