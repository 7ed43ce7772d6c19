// Package stats provides the statistics and text-rendering helpers used
// by the experiment harness: summary accumulators, ASCII tables in the
// style of the dissertation's tables, and ASCII line plots for the
// efficiency figures.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary accumulates a stream of float64 observations.
type Summary struct {
	n          int64
	sum, sumSq float64
	min, max   float64
}

// Add records one observation.
func (s *Summary) Add(v float64) {
	if s.n == 0 || v < s.min {
		s.min = v
	}
	if s.n == 0 || v > s.max {
		s.max = v
	}
	s.n++
	s.sum += v
	s.sumSq += v * v
}

// N returns the number of observations.
func (s *Summary) N() int64 { return s.n }

// Mean returns the arithmetic mean (0 with no observations).
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Var returns the population variance.
func (s *Summary) Var() float64 {
	if s.n == 0 {
		return 0
	}
	m := s.Mean()
	v := s.sumSq/float64(s.n) - m*m
	if v < 0 {
		return 0 // numeric noise
	}
	return v
}

// Std returns the population standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation (0 with none).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 with none).
func (s *Summary) Max() float64 { return s.max }

// Histogram counts integer observations into fixed-width bins.
type Histogram struct {
	BinWidth int
	bins     map[int]int64
	total    int64
}

// NewHistogram returns a histogram with the given bin width (≥ 1).
func NewHistogram(binWidth int) *Histogram {
	if binWidth < 1 {
		panic(fmt.Sprintf("stats: bin width %d < 1", binWidth))
	}
	return &Histogram{BinWidth: binWidth, bins: make(map[int]int64)}
}

// Add records one observation. Binning uses floor division so negative
// observations land in the bin whose low edge is at or below them
// (plain v/BinWidth truncates toward zero, putting −1 and +1 in bin 0
// and misreporting low edges for negatives).
func (h *Histogram) Add(v int) {
	k := v / h.BinWidth
	if v%h.BinWidth != 0 && v < 0 {
		k--
	}
	h.bins[k]++
	h.total++
}

// Total returns the number of observations.
func (h *Histogram) Total() int64 { return h.total }

// Percentile returns the p-th percentile (0 < p ≤ 100) of the
// observations in h, resolved to the low edge of the bin where the
// cumulative count reaches rank ⌈p/100·N⌉ — with BinWidth 1 that is
// the exact order statistic. An empty histogram reports 0. Out-of-range
// p is clamped, so Percentile(h, 50)/(h, 95)/(h, 99) are always safe
// summaries for dumps and tables.
func Percentile(h *Histogram, p float64) int {
	if h.total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	rank := int64(math.Ceil(p / 100 * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	edges, counts := h.Bins()
	cum := int64(0)
	for i, c := range counts {
		cum += c
		if cum >= rank {
			return edges[i]
		}
	}
	return edges[len(edges)-1]
}

// Bins returns (lowEdge, count) pairs in ascending order.
func (h *Histogram) Bins() (edges []int, counts []int64) {
	keys := make([]int, 0, len(h.bins))
	for k := range h.bins {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		edges = append(edges, k*h.BinWidth)
		counts = append(counts, h.bins[k])
	}
	return edges, counts
}

// Table renders rows of cells as a dissertation-style ASCII table.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// FormatFloat renders a float compactly (4 significant decimals, trimmed).
func FormatFloat(v float64) string {
	s := fmt.Sprintf("%.4f", v)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	cols := len(t.Header)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	width := make([]int, cols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	if t.Header != nil {
		measure(t.Header)
	}
	for _, r := range t.Rows {
		measure(r)
	}
	var b strings.Builder
	writeRow := func(r []string) {
		b.WriteString("|")
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(r) {
				c = r[i]
			}
			fmt.Fprintf(&b, " %-*s |", width[i], c)
		}
		b.WriteByte('\n')
	}
	if t.Header != nil {
		writeRow(t.Header)
		b.WriteString("|")
		for i := 0; i < cols; i++ {
			b.WriteString(strings.Repeat("-", width[i]+2))
			b.WriteString("|")
		}
		b.WriteByte('\n')
	}
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// PlotSeries is one named curve for Plot.
type PlotSeries struct {
	Label string
	X, Y  []float64
}

// Plot renders curves as an ASCII chart (rows = Y axis, cols = X axis),
// in the spirit of Figs. 3.13–3.15. Each series is drawn with a distinct
// rune; overlapping points show the later series. Points with a NaN or
// infinite coordinate have no place on the grid and are skipped.
func Plot(width, height int, series []PlotSeries) string {
	if width < 8 || height < 4 {
		panic(fmt.Sprintf("stats: plot %dx%d too small", width, height))
	}
	marks := []rune{'*', 'o', '+', 'x', '#', '@', '%', '&'}
	var xmin, xmax, ymin, ymax float64
	first := true
	for _, s := range series {
		for i := range s.X {
			if !finite(s.X[i], s.Y[i]) {
				continue
			}
			if first {
				xmin, xmax, ymin, ymax = s.X[i], s.X[i], s.Y[i], s.Y[i]
				first = false
				continue
			}
			xmin = math.Min(xmin, s.X[i])
			xmax = math.Max(xmax, s.X[i])
			ymin = math.Min(ymin, s.Y[i])
			ymax = math.Max(ymax, s.Y[i])
		}
	}
	if first {
		return "(no data)\n"
	}
	// Degenerate ranges still render: a single-X data set collapses to
	// one column (mirroring the ymax==ymin widening below) instead of
	// claiming there is no data.
	xflat := xmax == xmin
	if ymax == ymin {
		ymax = ymin + 1
	}
	grid := make([][]rune, height)
	for r := range grid {
		grid[r] = []rune(strings.Repeat(" ", width))
	}
	for si, s := range series {
		mark := marks[si%len(marks)]
		for i := range s.X {
			if !finite(s.X[i], s.Y[i]) {
				continue
			}
			col := 0
			if !xflat {
				col = int((s.X[i] - xmin) / (xmax - xmin) * float64(width-1))
			}
			row := height - 1 - int((s.Y[i]-ymin)/(ymax-ymin)*float64(height-1))
			grid[row][col] = mark
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%8.4f ┤\n", ymax)
	for _, row := range grid {
		b.WriteString("         │")
		b.WriteString(string(row))
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%8.4f └%s\n", ymin, strings.Repeat("─", width))
	fmt.Fprintf(&b, "          %-10.4f%*s\n", xmin, width-10, fmt.Sprintf("%.4f", xmax))
	for si, s := range series {
		fmt.Fprintf(&b, "          %c %s\n", marks[si%len(marks)], s.Label)
	}
	return b.String()
}

// finite reports whether neither x nor y is NaN or infinite.
func finite(x, y float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0) && !math.IsNaN(y) && !math.IsInf(y, 0)
}

// heatRamp maps intensity 0..1 to a cell rune, dimmest to brightest.
const heatRamp = " .:-=+*#%@"

// Heatmap renders a labelled matrix of non-negative values as an ASCII
// intensity grid — one row per label, one column per entry — used for
// the bank-conflict and network-occupancy observatory views. Intensity
// is scaled to the global maximum; zero cells stay blank, and any
// non-zero cell renders at least the dimmest non-blank rune so sparse
// activity is never invisible. Rows shorter than the widest row are
// padded with blanks.
func Heatmap(rowLabels []string, rows [][]int64) string {
	if len(rowLabels) != len(rows) {
		panic(fmt.Sprintf("stats: %d labels for %d heatmap rows", len(rowLabels), len(rows)))
	}
	var max int64
	cols := 0
	for _, r := range rows {
		if len(r) > cols {
			cols = len(r)
		}
		for _, v := range r {
			if v > max {
				max = v
			}
		}
	}
	if cols == 0 {
		return "(no data)\n"
	}
	labelW := 0
	for _, l := range rowLabels {
		if len(l) > labelW {
			labelW = len(l)
		}
	}
	ramp := []rune(heatRamp)
	var b strings.Builder
	for i, r := range rows {
		fmt.Fprintf(&b, "%-*s │", labelW, rowLabels[i])
		for c := 0; c < cols; c++ {
			var v int64
			if c < len(r) {
				v = r[c]
			}
			switch {
			case v <= 0 || max == 0:
				b.WriteRune(ramp[0])
			default:
				idx := int(v * int64(len(ramp)-1) / max)
				if idx == 0 {
					idx = 1 // non-zero activity must be visible
				}
				b.WriteRune(ramp[idx])
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-*s └%s\n", labelW, "", strings.Repeat("─", cols))
	fmt.Fprintf(&b, "%-*s  scale: max=%d, ramp=%q\n", labelW, "", max, heatRamp)
	return b.String()
}
