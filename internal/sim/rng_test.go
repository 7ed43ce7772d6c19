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

// geometricPath is one of the searches Geometric dispatches between.
type geometricPath struct {
	name   string
	search func(r *RNG, lim uint64) int
}

func scalarSearch(r *RNG, lim uint64) int { return r.geometric(lim, false) }
func kernelSearch(r *RNG, lim uint64) int { return r.geometric(lim, true) }

// geometricPaths returns the portable scalar search and, on a CPU that
// runs it, the AVX-512 kernel path.
func geometricPaths() []geometricPath {
	paths := []geometricPath{{"scalar", scalarSearch}}
	if haveAVX512 {
		paths = append(paths, geometricPath{"kernel", kernelSearch})
	}
	return paths
}

// sample is Geometric(p) with this path's search: the rates Geometric
// settles without drawing go through Geometric itself.
func (g geometricPath) sample(r *RNG, p float64) int {
	if p >= 1 || p <= 0 {
		return r.Geometric(p)
	}
	return g.search(r, bernoulliLimit(p))
}

// checkGeometric runs calls consecutive samples at rate p on every path
// against the reference loop from the same seed, and fails on the first
// return value or stream position that differs.
func checkGeometric(t *testing.T, seed uint64, p float64, calls int) {
	t.Helper()
	for _, g := range geometricPaths() {
		ref, got := NewRNG(seed), NewRNG(seed)
		for i := 0; i < calls; i++ {
			want := refGeometric(ref, p)
			if v := g.sample(got, p); v != want {
				t.Fatalf("%s: seed %#x p=%v call %d: returned %d, reference loop = %d", g.name, seed, p, i, v, want)
			}
			if got.State() != ref.State() {
				t.Fatalf("%s: seed %#x p=%v call %d: State = %#x, reference loop leaves %#x", g.name, seed, p, i, got.State(), ref.State())
			}
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

// TestGeometricKernelLanes checks the kernel path when the first success
// falls on each lane of the kernel's first two steps (draws 5–68): for
// every position it finds a seed whose first success lands there and
// compares the result and stream position with the reference loop.
func TestGeometricKernelLanes(t *testing.T) {
	if !haveAVX512 {
		t.Skip("CPU lacks AVX-512F/DQ: Geometric runs the scalar search, kernel not exercised")
	}
	const p, first, last = 0.04, 5, 68
	seeds := make(map[int]uint64)
	for seed := uint64(0); len(seeds) < last-first+1; seed++ {
		if seed > 1<<20 {
			t.Fatalf("no seed found for %d of draws %d–%d", last-first+1-len(seeds), first, last)
		}
		if k := refGeometric(NewRNG(seed), p); k >= first && k <= last {
			if _, ok := seeds[k]; !ok {
				seeds[k] = seed
			}
		}
	}
	for k := first; k <= last; k++ {
		ref, got := NewRNG(seeds[k]), NewRNG(seeds[k])
		refGeometric(ref, p)
		if v := got.geometric(bernoulliLimit(p), true); v != k || got.State() != ref.State() {
			t.Errorf("seed %#x: kernel returned %d, State %#x; first success is draw %d, State %#x",
				seeds[k], v, got.State(), k, ref.State())
		}
	}
}

// TestGeometricKernelCap puts a success on each draw of the kernel's last
// step past the cap (draws cap+1 … cap+4): mix(0) = 0, so seed −k·gamma
// succeeds at draw k at any rate. The run must still stop at the cap,
// with the state after exactly geometricCap draws.
func TestGeometricKernelCap(t *testing.T) {
	if !haveAVX512 {
		t.Skip("CPU lacks AVX-512F/DQ: Geometric runs the scalar search, kernel not exercised")
	}
	draws := uint64(geometricCap)
	for k := draws + 1; k <= draws+4; k++ {
		seed := -k * gamma
		checkGeometric(t, seed, 5e-324, 1)
		if r := NewRNG(seed); r.geometric(1<<11, true) != geometricCap+1 || r.State() != seed+draws*gamma {
			t.Errorf("seed %#x: success at draw %d was taken, or the state is off the cap", seed, k)
		}
	}
}

// unmix inverts mix: mix(unmix(x)) == x. It lets a test place a chosen
// draw value at a chosen draw.
func unmix(x uint64) uint64 {
	// inv returns c⁻¹ mod 2⁶⁴ for odd c; each Newton step doubles the
	// correct low bits, from 3 (c·c ≡ 1 mod 8) to past 64.
	inv := func(c uint64) uint64 {
		y := c
		for i := 0; i < 5; i++ {
			y *= 2 - c*y
		}
		return y
	}
	x ^= x>>31 ^ x>>62
	x *= inv(0x94d049bb133111eb)
	x ^= x>>27 ^ x>>54
	x *= inv(0xbf58476d1ce4e5b9)
	return x ^ x>>30 ^ x>>60
}

// TestGeometricKernelLimitEdge puts a draw of exactly lim−1 (a success)
// or lim (a failure) on each lane of the kernel's first step, at a rate
// low enough that no other draw succeeds: the kernel compares strictly,
// as Float64() < p does.
func TestGeometricKernelLimitEdge(t *testing.T) {
	if !haveAVX512 {
		t.Skip("CPU lacks AVX-512F/DQ: Geometric runs the scalar search, kernel not exercised")
	}
	const p = 1.0 / (1 << 40)
	lim := bernoulliLimit(p)
	for _, x := range []uint64{lim - 1, lim} {
		if mix(unmix(x)) != x {
			t.Fatalf("unmix(%#x) does not invert mix", x)
		}
	}
	for k := uint64(5); k <= 36; k++ {
		hit, edge := unmix(lim-1)-k*gamma, unmix(lim)-k*gamma
		if got := refGeometric(NewRNG(hit), p); got != int(k) {
			t.Fatalf("seed %#x: reference loop succeeds at draw %d, want %d", hit, got, k)
		}
		checkGeometric(t, hit, p, 1)
		checkGeometric(t, edge, p, 1)
	}
}

// TestGeometricAllocFree guards both searches: a sample allocates
// nothing.
func TestGeometricAllocFree(t *testing.T) {
	for _, g := range geometricPaths() {
		r := NewRNG(1)
		lim := bernoulliLimit(0.04)
		if avg := testing.AllocsPerRun(1000, func() { g.search(r, lim) }); avg != 0 {
			t.Errorf("%s: %v allocs per sample, want 0", g.name, avg)
		}
	}
}

// BenchmarkRNGGeometric reports each search's cost per underlying draw at
// the access rates of the benchmark fleets (r=0.04), the sparse fleet
// (r=0.001), a dense load (r=0.2) and a saturated one (r=0.5). The
// kernel cases are skipped on a CPU without AVX-512.
func BenchmarkRNGGeometric(b *testing.B) {
	paths := []geometricPath{{"scalar", scalarSearch}, {"kernel", kernelSearch}}
	for _, c := range []struct {
		name string
		p    float64
	}{{"p0.001", 0.001}, {"p0.04", 0.04}, {"p0.2", 0.2}, {"p0.5", 0.5}} {
		for _, g := range paths {
			b.Run(c.name+"/"+g.name, func(b *testing.B) {
				if g.name == "kernel" && !haveAVX512 {
					b.Skip("CPU lacks AVX-512F/DQ")
				}
				r := NewRNG(1)
				// No call reaches the cap at these rates, so the samples
				// sum to the draws taken.
				draws := 0
				for i := 0; i < b.N; i++ {
					draws += g.search(r, bernoulliLimit(c.p))
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(draws), "ns/draw")
			})
		}
	}
}
