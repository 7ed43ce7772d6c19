package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// This file is -compare: the comparison rule of a claimed gain. Given two
// -record files (the parent's runs and the change's, alternated run by
// run), every workload × metric gets each side's median and quartiles and
// the share of pairs the change won; given one file, the same summary of
// one side.

// benchSpec is the part of BENCHMARK.json -compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// specRow is one declared metric: per-layer rows have no bound and are
// read from the -trace 1 records.
type specRow struct {
	name, better string
	bound        float64
	trace        bool
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) and statistics.median compute
// them, so spreads read the same here as wherever else the runs are
// judged.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	q := func(i int) float64 { // the 'exclusive' method
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), med, q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	return ratio(q3-q1, math.Abs(med))
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// series collects one metric's values per workload, in record order.
func series(recs []record, trace bool, metric string) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range recs {
		if r.Trace != trace {
			continue
		}
		if m, ok := r.Result.Metrics[metric]; ok {
			out[r.Workload] = append(out[r.Workload], m.Value)
		}
	}
	return out
}

// runCompare implements -compare and returns the exit code: 1 when some
// end-to-end metric regressed beyond its bound, 2 on a usage error.
func runCompare(w io.Writer, specPath string, files []string) int {
	if len(files) < 1 || len(files) > 2 {
		fmt.Fprintln(os.Stderr, "usage: cfmbench -compare a.jsonl [b.jsonl]")
		return 2
	}
	raw, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cfmbench:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(os.Stderr, "cfmbench: %s: %v\n", specPath, err)
		return 2
	}
	var sides [][]record
	for _, f := range files {
		recs, err := readRecords(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cfmbench:", err)
			return 2
		}
		sides = append(sides, recs)
	}
	var rows []specRow
	for _, m := range spec.EndToEnd {
		rows = append(rows, specRow{m.Name, m.Better, m.Bound, false})
	}
	for _, m := range spec.PerLayer {
		rows = append(rows, specRow{m.Name, m.Better, 0, true})
	}

	if len(sides) == 1 {
		return summarize(w, sides[0], rows[:len(spec.EndToEnd)])
	}
	fmt.Fprintf(w, "%-13s %-34s %12s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "a median", "b median", "change", "a spread", "wins", "verdict")
	code := 0
	for _, wl := range workloadNames {
		for _, rw := range rows {
			a := series(sides[0], rw.trace, rw.name)[wl]
			b := series(sides[1], rw.trace, rw.name)[wl]
			n := min(len(a), len(b))
			if n == 0 {
				continue
			}
			a, b = a[:n], b[:n]
			verdict, wins := judge(a, b, rw.better == "lower", rw.bound)
			if verdict == "REGRESSION" {
				code = 1
			}
			_, am, _ := quartiles(a)
			_, bm, _ := quartiles(b)
			fmt.Fprintf(w, "%-13s %-34s %12.6g %12.6g %+7.1f%% %7.1f%% %3d/%-2d  %s\n",
				wl, rw.name, am, bm, 100*ratio(bm-am, math.Abs(am)), 100*spread(a), wins, n, verdict)
		}
	}
	return code
}

// judge applies the rule for one metric on one workload. a and b are the
// paired runs of the parent and the change; lower says smaller is better;
// bound is the benchmark's regression bound (0: a per-layer metric, which
// has none). It returns the verdict and the pairs b won.
func judge(a, b []float64, lower bool, bound float64) (string, int) {
	better := func(x, y float64) bool { // x better than y
		if lower {
			return x < y
		}
		return x > y
	}
	wins := 0
	for i := range a {
		if better(b[i], a[i]) {
			wins++
		}
	}
	aq1, am, aq3 := quartiles(a)
	_, bm, _ := quartiles(b)
	n := len(a)
	switch {
	case wins*10 >= 9*n && math.Abs(bm-am) > aq3-aq1 && better(bm, am):
		return "gain", wins
	case bound == 0:
		return "no claim", wins
	case spread(a) > bound:
		if allBetter(b, a, better) {
			return "better (every run)", wins
		}
		return "unresolved", wins
	}
	worse := ratio(bm-am, math.Abs(am))
	if !lower {
		worse = -worse
	}
	if worse > bound {
		return "REGRESSION", wins
	}
	return "within bound", wins
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(b, a []float64, better func(x, y float64) bool) bool {
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}

// summarize prints one side's end-to-end medians and spreads per workload
// with the host it ran on, as JSON (the calibration baseline's form).
func summarize(w io.Writer, recs []record, rows []specRow) int {
	type stat struct {
		Runs   int     `json:"runs"`
		Median float64 `json:"median"`
		Q1     float64 `json:"q1"`
		Q3     float64 `json:"q3"`
		Spread float64 `json:"spread"`
	}
	out := struct {
		Host      map[string]string          `json:"host"`
		Workloads map[string]map[string]stat `json:"workloads"`
	}{Workloads: map[string]map[string]stat{}}
	for _, r := range recs {
		if out.Host == nil {
			out.Host = r.Host
		}
	}
	for _, rw := range rows {
		for wl, xs := range series(recs, false, rw.name) {
			q1, med, q3 := quartiles(xs)
			if out.Workloads[wl] == nil {
				out.Workloads[wl] = map[string]stat{}
			}
			out.Workloads[wl][rw.name] = stat{len(xs), med, q1, q3, spread(xs)}
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "cfmbench:", err)
		return 2
	}
	fmt.Fprintln(w, string(b))
	return 0
}
