package analytic

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConventionalValidate(t *testing.T) {
	if err := (ConventionalModel{Processors: 8, Modules: 8, BlockTime: 17}).Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	if err := (ConventionalModel{}).Validate(); err == nil {
		t.Fatal("zero model accepted")
	}
}

func TestConflictProbabilityFormula(t *testing.T) {
	// P(r) = (n−1)·r·β/m. For the Fig 3.13 system at r = 0.03:
	// P = 7·0.03·17/8 = 0.44625.
	m := ConventionalModel{Processors: 8, Modules: 8, BlockTime: 17}
	got := m.ConflictProbability(0.03)
	want := 7.0 * 0.03 * 17.0 / 8.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("P(0.03) = %v, want %v", got, want)
	}
}

func TestEfficiencyAtZeroRateIsOne(t *testing.T) {
	m := ConventionalModel{Processors: 8, Modules: 8, BlockTime: 17}
	if e := m.Efficiency(0); e != 1 {
		t.Fatalf("E(0) = %v, want 1", e)
	}
}

// TestFig313Anchor checks the conventional curve against a hand-computed
// anchor: at r = 0.06, P = 7·0.06·17/8 = 0.8925 and
// E = (2−1.785)/(2−0.8925) ≈ 0.1942 — the deep degradation visible at the
// right edge of Fig. 3.13.
func TestFig313Anchor(t *testing.T) {
	m := ConventionalModel{Processors: 8, Modules: 8, BlockTime: 17}
	got := m.Efficiency(0.06)
	want := (2 - 2*0.8925) / (2 - 0.8925)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("E(0.06) = %v, want %v", got, want)
	}
	if got > 0.2 || got < 0.19 {
		t.Fatalf("E(0.06) = %v, Fig 3.13 shows ≈0.19", got)
	}
}

func TestEfficiencyMonotoneDecreasing(t *testing.T) {
	f := func(nRaw, mRaw uint8, r1Raw, r2Raw uint16) bool {
		m := ConventionalModel{
			Processors: 2 + int(nRaw)%64,
			Modules:    1 + int(mRaw)%64,
			BlockTime:  17,
		}
		r1 := float64(r1Raw) / float64(1<<16) * 0.06
		r2 := float64(r2Raw) / float64(1<<16) * 0.06
		if r1 > r2 {
			r1, r2 = r2, r1
		}
		return m.Efficiency(r1) >= m.Efficiency(r2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExpectedRetriesAndTime(t *testing.T) {
	m := ConventionalModel{Processors: 8, Modules: 8, BlockTime: 17}
	// At P = 0.5: retries = 1; M = 1.5/1 · 17 = 25.5.
	r := 0.5 * 8 / (7.0 * 17.0)
	if got := m.ExpectedRetries(r); math.Abs(got-1) > 1e-9 {
		t.Fatalf("retries = %v, want 1", got)
	}
	if got := m.ExpectedAccessTime(r); math.Abs(got-25.5) > 1e-9 {
		t.Fatalf("M = %v, want 25.5", got)
	}
	// E = β/M must agree with the closed form.
	if got, want := 17.0/m.ExpectedAccessTime(r), m.Efficiency(r); math.Abs(got-want) > 1e-12 {
		t.Fatalf("β/M = %v but E = %v", got, want)
	}
}

func TestSaturation(t *testing.T) {
	m := ConventionalModel{Processors: 64, Modules: 4, BlockTime: 17}
	// Rate high enough that P clamps to 1.
	if got := m.ExpectedRetries(1); got < 1e17 {
		t.Fatalf("saturated retries = %v, want divergence", got)
	}
	if got := m.ExpectedAccessTime(1); got < 1e17 {
		t.Fatalf("saturated M = %v, want divergence", got)
	}
	if got := m.Efficiency(1); got != 0 {
		t.Fatalf("saturated E = %v, want 0", got)
	}
}

func TestPartialValidate(t *testing.T) {
	if err := (PartialModel{Processors: 64, Modules: 8, BlockTime: 17}).Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	if err := (PartialModel{Processors: 64, Modules: 1, BlockTime: 17}).Validate(); err == nil {
		t.Fatal("m=1 accepted (combined form needs m >= 2)")
	}
}

func TestPartialCombinedFormula(t *testing.T) {
	// P(r,λ) = (−mλ²+2λ+m−2)/(m−1)·rβ. m=8, λ=0.5, r=0.04, β=17:
	// num = −8·0.25 + 1 + 6 = 5; P = 5/7·0.68 ≈ 0.4857.
	m := PartialModel{Processors: 64, Modules: 8, BlockTime: 17}
	got := m.Combined(0.04, 0.5)
	want := 5.0 / 7.0 * 0.04 * 17
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("P(0.04, 0.5) = %v, want %v", got, want)
	}
}

func TestPartialP1P2CombineExactly(t *testing.T) {
	f := func(lamRaw, rRaw uint16) bool {
		m := PartialModel{Processors: 64, Modules: 8, BlockTime: 17}
		lam := float64(lamRaw) / float64(1<<16)
		r := float64(rRaw) / float64(1<<16) * 0.05
		comb := m.Combined(r, lam)
		if comb >= 1 { // clamped region: identity does not apply
			return true
		}
		p1, p2 := m.P1(r, lam), m.P2(r, lam)
		return math.Abs(p1*lam+p2*(1-lam)-comb) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPartialFullLocalityPerfect(t *testing.T) {
	m := PartialModel{Processors: 64, Modules: 8, BlockTime: 17}
	// λ = 1: the combined numerator is −m+2+m−2 = 0 ⇒ E = 1.
	if p := m.Combined(0.06, 1); p != 0 {
		t.Fatalf("P(r, λ=1) = %v, want 0", p)
	}
	if e := m.Efficiency(0.06, 1); e != 1 {
		t.Fatalf("E(r, λ=1) = %v, want 1", e)
	}
}

func TestPartialEfficiencyOrderedByLocality(t *testing.T) {
	// The visual ordering of Fig. 3.14: higher λ curves sit higher.
	m := PartialModel{Processors: 64, Modules: 8, BlockTime: 17}
	r := 0.04
	lams := []float64{0.3, 0.5, 0.7, 0.9}
	prev := -1.0
	for _, lam := range lams {
		e := m.Efficiency(r, lam)
		if e <= prev {
			t.Fatalf("E(λ=%v) = %v, not above %v", lam, e, prev)
		}
		prev = e
	}
}

// TestPartialBeatsConventionalFig314: the headline claim — at every
// plotted rate and λ ≥ 0.5, the partially conflict-free system's
// efficiency exceeds the same-connectivity conventional system's.
func TestPartialBeatsConventionalFig314(t *testing.T) {
	part := PartialModel{Processors: 64, Modules: 8, BlockTime: 17}
	conv := ConventionalModel{Processors: 64, Modules: 64, BlockTime: 17}
	for _, r := range RateSweep(0.06, 12)[1:] {
		for _, lam := range []float64{0.5, 0.7, 0.8, 0.9} {
			if pe, ce := part.Efficiency(r, lam), conv.Efficiency(r); pe <= ce {
				t.Fatalf("r=%v λ=%v: partial %v <= conventional %v", r, lam, pe, ce)
			}
		}
	}
}

func TestRateSweep(t *testing.T) {
	rs := RateSweep(0.06, 6)
	if len(rs) != 7 {
		t.Fatalf("len = %d, want 7", len(rs))
	}
	if rs[0] != 0 || math.Abs(rs[6]-0.06) > 1e-12 {
		t.Fatalf("endpoints %v, %v", rs[0], rs[6])
	}
}

func TestRateSweepPanicsWithoutSteps(t *testing.T) {
	for _, steps := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RateSweep(0.06, %d) did not panic", steps)
				}
			}()
			RateSweep(0.06, steps)
		}()
	}
}

func TestFig313Series(t *testing.T) {
	ss := Fig313(12)
	if len(ss) != 2 {
		t.Fatalf("%d series, want 2", len(ss))
	}
	if ss[0].Label != "Conflict-free" || ss[1].Label != "Conventional" {
		t.Fatalf("labels %q, %q", ss[0].Label, ss[1].Label)
	}
	for _, p := range ss[0].Points {
		if p.Efficiency != 1 {
			t.Fatal("conflict-free curve not flat at 1")
		}
	}
	last := ss[1].Points[len(ss[1].Points)-1]
	if last.Efficiency > 0.2 {
		t.Fatalf("conventional curve ends at %v, want < 0.2", last.Efficiency)
	}
}

func TestFig314And315Series(t *testing.T) {
	for figIdx, ss := range [][]Series{Fig314(12), Fig315(12)} {
		if len(ss) != 5 { // 4 λ curves + conventional
			t.Fatalf("fig %d: %d series, want 5", figIdx, len(ss))
		}
		conv := ss[4]
		for si := 0; si < 4; si++ {
			for pi := 1; pi < len(ss[si].Points); pi++ {
				if ss[si].Points[pi].Efficiency <= conv.Points[pi].Efficiency {
					t.Fatalf("fig %d series %q below conventional at r=%v",
						figIdx, ss[si].Label, ss[si].Points[pi].Rate)
				}
			}
		}
	}
}

func TestClampProb(t *testing.T) {
	if clampProb(-0.5) != 0 || clampProb(1.5) != 1 || clampProb(0.3) != 0.3 {
		t.Fatal("clampProb wrong")
	}
}
