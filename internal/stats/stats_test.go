package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, v := range []float64{1, 2, 3, 4} {
		s.Add(v)
	}
	if s.N() != 4 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 2.5 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 4 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if math.Abs(s.Var()-1.25) > 1e-12 {
		t.Fatalf("Var = %v, want 1.25", s.Var())
	}
	if math.Abs(s.Std()-math.Sqrt(1.25)) > 1e-12 {
		t.Fatalf("Std = %v", s.Std())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Var() != 0 || s.Std() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty summary not zero")
	}
}

func TestSummaryProperties(t *testing.T) {
	f := func(vsRaw []int8) bool {
		if len(vsRaw) == 0 {
			return true
		}
		var s Summary
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range vsRaw {
			fv := float64(v)
			s.Add(fv)
			lo = math.Min(lo, fv)
			hi = math.Max(hi, fv)
		}
		return s.Min() == lo && s.Max() == hi &&
			s.Mean() >= lo-1e-9 && s.Mean() <= hi+1e-9 && s.Var() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(10)
	for _, v := range []int{0, 5, 9, 10, 19, 25} {
		h.Add(v)
	}
	edges, counts := h.Bins()
	if len(edges) != 3 {
		t.Fatalf("edges = %v", edges)
	}
	if edges[0] != 0 || counts[0] != 3 {
		t.Fatalf("bin 0: edge %d count %d", edges[0], counts[0])
	}
	if edges[1] != 10 || counts[1] != 2 {
		t.Fatalf("bin 1: edge %d count %d", edges[1], counts[1])
	}
	if edges[2] != 20 || counts[2] != 1 {
		t.Fatalf("bin 2: edge %d count %d", edges[2], counts[2])
	}
	if h.Total() != 6 {
		t.Fatalf("Total = %d", h.Total())
	}
}

func TestHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewHistogram(0)
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Header: []string{"Banks", "Latency"}}
	tb.AddRow(256, 257)
	tb.AddRow(8, 9)
	out := tb.String()
	if !strings.Contains(out, "| Banks | Latency |") {
		t.Fatalf("header missing:\n%s", out)
	}
	if !strings.Contains(out, "| 256") || !strings.Contains(out, "| 8  ") {
		t.Fatalf("rows missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, rule, 2 rows
		t.Fatalf("%d lines:\n%s", len(lines), out)
	}
}

func TestTableFloatsTrimmed(t *testing.T) {
	tb := &Table{}
	tb.AddRow(0.5000, 1.0, 0.1942)
	out := tb.String()
	if !strings.Contains(out, "0.5") || strings.Contains(out, "0.5000") {
		t.Fatalf("float not trimmed:\n%s", out)
	}
	if !strings.Contains(out, "| 1 ") {
		t.Fatalf("1.0 should render as 1:\n%s", out)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{1.0: "1", 0.5: "0.5", 0.1942: "0.1942", 0.12345: "0.1235"}
	for v, want := range cases {
		if got := FormatFloat(v); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestPlotRendersAllSeries(t *testing.T) {
	out := Plot(40, 10, []PlotSeries{
		{Label: "up", X: []float64{0, 1, 2}, Y: []float64{0, 1, 2}},
		{Label: "down", X: []float64{0, 1, 2}, Y: []float64{2, 1, 0}},
	})
	if !strings.Contains(out, "* up") || !strings.Contains(out, "o down") {
		t.Fatalf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Fatalf("marks missing:\n%s", out)
	}
}

func TestPlotEmpty(t *testing.T) {
	if out := Plot(40, 10, nil); out != "(no data)\n" {
		t.Fatalf("empty plot = %q", out)
	}
}

func TestPlotPanicsTooSmall(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Plot(2, 2, nil)
}

func TestPlotFlatLine(t *testing.T) {
	// ymax == ymin must not divide by zero.
	out := Plot(20, 5, []PlotSeries{{Label: "flat", X: []float64{0, 1}, Y: []float64{1, 1}}})
	if !strings.Contains(out, "flat") {
		t.Fatalf("flat plot broken:\n%s", out)
	}
}

func TestPlotSkipsNonFinitePoints(t *testing.T) {
	// Regression: a NaN or infinite coordinate used to become an int grid
	// index and panic with an index out of range.
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		s    PlotSeries
		want string // a line the chart must contain
	}{
		{"only NaN", PlotSeries{Label: "r", X: []float64{0}, Y: []float64{nan}}, "(no data)"},
		{"NaN Y", PlotSeries{Label: "r", X: []float64{0, 1, 2}, Y: []float64{0, nan, 2}}, "  2.0000 ┤"},
		{"+Inf X", PlotSeries{Label: "r", X: []float64{0, inf, 1}, Y: []float64{0, 1, 2}}, "1.0000"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := Plot(20, 5, []PlotSeries{tc.s})
			if !strings.Contains(out, tc.want) || strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
				t.Fatalf("plot lacks %q or shows a non-finite axis:\n%s", tc.want, out)
			}
		})
	}
}

func TestHistogramNegativeFloorBinning(t *testing.T) {
	// Regression: v/BinWidth truncates toward zero, so −1 and +1 used to
	// share bin 0 and negative low edges were off by one bin.
	h := NewHistogram(10)
	for _, v := range []int{-15, -10, -1, 1, 9, 10} {
		h.Add(v)
	}
	edges, counts := h.Bins()
	wantEdges := []int{-20, -10, 0, 10}
	wantCounts := []int64{1, 2, 2, 1}
	if len(edges) != len(wantEdges) {
		t.Fatalf("edges = %v, want %v", edges, wantEdges)
	}
	for i := range wantEdges {
		if edges[i] != wantEdges[i] || counts[i] != wantCounts[i] {
			t.Fatalf("bin %d = (%d,%d), want (%d,%d)",
				i, edges[i], counts[i], wantEdges[i], wantCounts[i])
		}
	}
}

func TestPlotSingleXColumn(t *testing.T) {
	// Regression: xmax == xmin with real data used to return "(no data)";
	// it must render a single column instead, like the flat-Y case.
	out := Plot(20, 5, []PlotSeries{{Label: "col", X: []float64{3, 3, 3}, Y: []float64{0, 1, 2}}})
	if strings.Contains(out, "(no data)") {
		t.Fatalf("single-X plot reported no data:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "col") {
		t.Fatalf("single-X plot missing marks or legend:\n%s", out)
	}
}

func TestHeatmap(t *testing.T) {
	out := Heatmap([]string{"bank0", "bank1"}, [][]int64{
		{0, 1, 9},
		{9, 0}, // short row pads with blanks
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "bank0 │") || !strings.HasPrefix(lines[1], "bank1 │") {
		t.Fatalf("labels wrong:\n%s", out)
	}
	row0 := strings.TrimPrefix(lines[0], "bank0 │")
	if row0 != " .@" {
		t.Fatalf("row0 cells = %q, want \" .@\"", row0)
	}
	row1 := strings.TrimPrefix(lines[1], "bank1 │")
	if row1 != "@  " {
		t.Fatalf("row1 cells = %q, want \"@  \"", row1)
	}
	if !strings.Contains(out, "max=9") {
		t.Fatalf("scale line missing:\n%s", out)
	}
}

func TestHeatmapEmptyAndMismatch(t *testing.T) {
	if out := Heatmap(nil, nil); out != "(no data)\n" {
		t.Fatalf("empty heatmap = %q", out)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on label/row mismatch")
		}
	}()
	Heatmap([]string{"a"}, nil)
}

func TestPercentileExactOrderStatistics(t *testing.T) {
	// BinWidth 1 makes Percentile the exact order statistic of rank
	// ceil(p/100*N).
	h := NewHistogram(1)
	for v := 1; v <= 100; v++ {
		h.Add(v)
	}
	for _, tc := range []struct {
		p    float64
		want int
	}{
		{1, 1}, {50, 50}, {95, 95}, {99, 99}, {100, 100},
		{0, 1},     // clamps up to rank 1
		{-5, 1},    // clamps negative p
		{150, 100}, // clamps above 100
	} {
		if got := Percentile(h, tc.p); got != tc.want {
			t.Errorf("Percentile(1..100, %v) = %d, want %d", tc.p, got, tc.want)
		}
	}
}

func TestPercentileEmpty(t *testing.T) {
	if got := Percentile(NewHistogram(1), 50); got != 0 {
		t.Fatalf("Percentile(empty, 50) = %d, want 0", got)
	}
}

func TestPercentileSingleObservation(t *testing.T) {
	h := NewHistogram(1)
	h.Add(42)
	for _, p := range []float64{1, 50, 99, 100} {
		if got := Percentile(h, p); got != 42 {
			t.Errorf("Percentile({42}, %v) = %d, want 42", p, got)
		}
	}
}

func TestPercentileSkewedMass(t *testing.T) {
	// 99 observations at 5, one at 1000: p50/p95 must stay at the bulk,
	// p100 must find the outlier.
	h := NewHistogram(1)
	for i := 0; i < 99; i++ {
		h.Add(5)
	}
	h.Add(1000)
	if got := Percentile(h, 50); got != 5 {
		t.Errorf("p50 = %d, want 5", got)
	}
	if got := Percentile(h, 95); got != 5 {
		t.Errorf("p95 = %d, want 5", got)
	}
	if got := Percentile(h, 100); got != 1000 {
		t.Errorf("p100 = %d, want 1000", got)
	}
}

func TestPercentileWideBinsReportLowEdge(t *testing.T) {
	h := NewHistogram(10)
	h.Add(7)  // bin [0,10)
	h.Add(23) // bin [20,30)
	if got := Percentile(h, 50); got != 0 {
		t.Errorf("p50 = %d, want low edge 0", got)
	}
	if got := Percentile(h, 100); got != 20 {
		t.Errorf("p100 = %d, want low edge 20", got)
	}
}

func TestPercentileNegativeObservations(t *testing.T) {
	h := NewHistogram(1)
	for _, v := range []int{-10, -5, 0, 5, 10} {
		h.Add(v)
	}
	if got := Percentile(h, 1); got != -10 {
		t.Errorf("p1 = %d, want -10", got)
	}
	if got := Percentile(h, 60); got != 0 {
		t.Errorf("p60 = %d, want 0", got)
	}
	if got := Percentile(h, 100); got != 10 {
		t.Errorf("p100 = %d, want 10", got)
	}
}
