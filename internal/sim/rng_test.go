package sim

import (
	"math"
	"testing"
)

// refGeometric is the Bernoulli loop Geometric must reproduce, draw for
// draw.
func refGeometric(r *RNG, p float64) int {
	t := 1
	for !r.Bernoulli(p) {
		t++
		if t > geometricCap {
			break
		}
	}
	return t
}

// checkGeometric runs calls consecutive Geometric(p) calls against the
// reference loop from the same seed and fails on the first return value
// or stream position that differs.
func checkGeometric(t *testing.T, seed uint64, p float64, calls int) {
	t.Helper()
	ref, got := NewRNG(seed), NewRNG(seed)
	for i := 0; i < calls; i++ {
		want := refGeometric(ref, p)
		if g := got.Geometric(p); g != want {
			t.Fatalf("seed %#x p=%v call %d: Geometric = %d, reference loop = %d", seed, p, i, g, want)
		}
		if got.State() != ref.State() {
			t.Fatalf("seed %#x p=%v call %d: State = %#x, reference loop leaves %#x", seed, p, i, got.State(), ref.State())
		}
	}
}

func TestGeometricMatchesBernoulliLoop(t *testing.T) {
	cases := []struct {
		p     float64
		calls int
	}{
		{0, 3},
		{5e-324, 2}, // smallest subnormal: threshold 1<<11, the cap in practice
		{1e-12, 3},  // succeeds far past the cap: the stream stops at 1<<20 draws
		{1.0 / (1 << 20), 50},
		{0.001, 2000},
		{0.04, 20000},
		{0.2, 20000},
		{0.25, 20000},
		{0.5, 20000}, // p·2⁵³ is an exact integer: the Ceil boundary
		{math.Nextafter(1, 0), 5000},
		{1, 100},
		{math.NaN(), 2}, // Float64() < NaN never holds: cap draws, no success
		{math.Inf(1), 10},
		{math.Inf(-1), 10},
		{-0.1, 10},
		{1.1, 10},
	}
	for _, c := range cases {
		for _, seed := range []uint64{0, 1, 42, 0xdeadbeefcafef00d, math.MaxUint64} {
			checkGeometric(t, seed, c.p, c.calls)
		}
	}
}

// TestBernoulliLimit pins the raw-draw threshold against Float64() < p at
// the draws on either side of it, for p on, just below and just above a
// multiple of 2⁻⁵³, and at the extremes of (0, 1).
func TestBernoulliLimit(t *testing.T) {
	for _, p := range []float64{
		5e-324, 1e-300, 1.0 / (1 << 53), 0.04, 1.0 / 3,
		0.5, math.Nextafter(0.5, 0), math.Nextafter(0.5, 1), math.Nextafter(1, 0),
	} {
		lim := bernoulliLimit(p)
		for _, x := range []uint64{lim - 1, lim, lim - 1<<11, lim + 1<<11 - 1, 0, math.MaxUint64} {
			want := float64(x>>11)/(1<<53) < p
			if got := x < lim; got != want {
				t.Errorf("p=%v x=%#x: x < bernoulliLimit = %v, Float64 compare = %v", p, x, got, want)
			}
		}
	}
}

func FuzzGeometric(f *testing.F) {
	for _, p := range []float64{0, 5e-324, 1.0 / (1 << 20), 0.001, 0.04, 0.2, 0.25, 0.5, math.Nextafter(1, 0), 1} {
		f.Add(uint64(42), p)
	}
	f.Add(uint64(7), 0.3333333333333333)
	f.Fuzz(func(t *testing.T, seed uint64, p float64) {
		switch {
		case math.IsNaN(p) || p < 0:
			p = 0
		case p > 1:
			p = 1
		}
		// Rates below 2⁻¹⁶ spend most calls at the cap; keep those few.
		calls := 64
		if p < 1.0/(1<<16) {
			calls = 2
		}
		checkGeometric(t, seed, p, calls)
	})
}

// BenchmarkRNGGeometric reports the sampler's cost per underlying draw at
// the access rates of the benchmark fleets (r=0.04), the sparse fleet
// (r=0.001) and a dense load (r=0.2).
func BenchmarkRNGGeometric(b *testing.B) {
	for _, c := range []struct {
		name string
		p    float64
	}{{"p0.001", 0.001}, {"p0.04", 0.04}, {"p0.2", 0.2}} {
		b.Run(c.name, func(b *testing.B) {
			r := NewRNG(1)
			// No call reaches the cap at these rates, so the samples
			// sum to the draws taken.
			draws := 0
			for i := 0; i < b.N; i++ {
				draws += r.Geometric(c.p)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(draws), "ns/draw")
		})
	}
}
