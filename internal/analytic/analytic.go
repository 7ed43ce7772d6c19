// Package analytic implements the closed-form performance models of §3.4:
// the memory access efficiency of conventional interleaved memory systems
// (§3.4.1) and of partially conflict-free CFM systems (§3.4.2). These are
// the equations plotted in Figs. 3.13, 3.14, and 3.15.
//
// Model assumptions (verbatim from the dissertation): n processors
// uniformly generate block accesses at rate r per CPU cycle against m
// memory modules; each block access occupies its module for β CPU cycles;
// a failed access retries after an average of g = β/2 cycles (the g/2
// expectation built into M(r)); network contention is NOT modelled, so
// real conventional systems are worse than E(r) predicts.
package analytic

import "fmt"

// ConventionalModel is the §3.4.1 efficiency model.
type ConventionalModel struct {
	Processors int // n
	Modules    int // m
	BlockTime  int // β
}

// Validate reports a descriptive error for an unusable model.
func (c ConventionalModel) Validate() error {
	if c.Processors < 1 || c.Modules < 1 || c.BlockTime < 1 {
		return fmt.Errorf("analytic: invalid model %+v", c)
	}
	return nil
}

// ConflictProbability returns P(r) = (n−1)·r·β / m: the probability that
// the target module is busy serving another processor's access.
func (c ConventionalModel) ConflictProbability(r float64) float64 {
	p := float64(c.Processors-1) * r * float64(c.BlockTime) / float64(c.Modules)
	return clampProb(p)
}

// ExpectedRetries returns P/(1−P), the expected number of retries per
// access.
func (c ConventionalModel) ExpectedRetries(r float64) float64 {
	p := c.ConflictProbability(r)
	if p >= 1 {
		return 1e18 // saturated: retries diverge
	}
	return p / (1 - p)
}

// ExpectedAccessTime returns M(r) = (2−P)/(2−2P) · β, the expected time
// to complete one access including retry delays.
func (c ConventionalModel) ExpectedAccessTime(r float64) float64 {
	p := c.ConflictProbability(r)
	if p >= 1 {
		return 1e18
	}
	return (2 - p) / (2 - 2*p) * float64(c.BlockTime)
}

// Efficiency returns E(r) = β / M(r) = (2−2P)/(2−P)
//
//	= (2m − 2(n−1)rβ) / (2m − (n−1)rβ).
func (c ConventionalModel) Efficiency(r float64) float64 {
	p := c.ConflictProbability(r)
	return (2 - 2*p) / (2 - p)
}

// PartialModel is the §3.4.2 efficiency model for partially conflict-free
// systems: n processors in m conflict-free clusters, locality λ.
type PartialModel struct {
	Processors int // n
	Modules    int // m (= clusters)
	BlockTime  int // β
}

// Validate reports a descriptive error for an unusable model.
func (c PartialModel) Validate() error {
	if c.Processors < 1 || c.Modules < 2 || c.BlockTime < 1 {
		return fmt.Errorf("analytic: invalid partial model %+v (need m >= 2)", c)
	}
	return nil
}

// P1 returns the probability that a time slot is used by a remote access:
// P₁ = (1−λ)·r·β.
func (c PartialModel) P1(r, lambda float64) float64 {
	return clampProb((1 - lambda) * r * float64(c.BlockTime))
}

// P2 returns the probability that a remote access encounters a conflict,
// P₂ = (1 − (1−λ)/m)·r·β·m/(m−1)·... — the dissertation prints it as
// P₂ = (1 − (1−λ)/m)·r·β/(1 − 1/m) and then combines it with P₁ into the
// closed form of Combined; P2 is recovered from that closed form so the
// identity P(r,λ) = P₁·λ + P₂·(1−λ) holds exactly.
func (c PartialModel) P2(r, lambda float64) float64 {
	if lambda >= 1 {
		return 0
	}
	comb := c.Combined(r, lambda)
	p1 := c.P1(r, lambda)
	return clampProb((comb - p1*lambda) / (1 - lambda))
}

// Combined returns the dissertation's combined conflict probability
//
//	P(r,λ) = (−mλ² + 2λ + m − 2)/(m−1) · r·β.
func (c PartialModel) Combined(r, lambda float64) float64 {
	m := float64(c.Modules)
	num := -m*lambda*lambda + 2*lambda + m - 2
	return clampProb(num / (m - 1) * r * float64(c.BlockTime))
}

// Efficiency returns E(r,λ) = (2 − 2P(r,λ)) / (2 − P(r,λ)).
func (c PartialModel) Efficiency(r, lambda float64) float64 {
	p := c.Combined(r, lambda)
	return (2 - 2*p) / (2 - p)
}

// clampProb bounds a probability into [0, 1].
func clampProb(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// Point is one (rate, efficiency) sample of a plotted curve.
type Point struct {
	Rate       float64
	Efficiency float64
}

// Series is a named efficiency curve.
type Series struct {
	Label  string
	Points []Point
}

// RateSweep returns steps+1 rates spanning [0, max], the x-axis of
// Figs. 3.13–3.15 (max = 0.06 in the dissertation). It panics when steps
// < 1, which has no spacing (0/0 would make every rate NaN).
func RateSweep(max float64, steps int) []float64 {
	if steps < 1 {
		panic(fmt.Sprintf("analytic: rate sweep needs >= 1 step, got %d", steps))
	}
	out := make([]float64, steps+1)
	for i := range out {
		out[i] = max * float64(i) / float64(steps)
	}
	return out
}

// Fig313 generates the two curves of Fig. 3.13: a conflict-free system
// (E ≈ 1) versus a conventional system with n = 8, m = 8, 16-word blocks,
// β = 17.
func Fig313(steps int) []Series {
	conv := ConventionalModel{Processors: 8, Modules: 8, BlockTime: 17}
	rates := RateSweep(0.06, steps)
	cf := Series{Label: "Conflict-free"}
	cv := Series{Label: "Conventional"}
	for _, r := range rates {
		cf.Points = append(cf.Points, Point{Rate: r, Efficiency: 1.0})
		cv.Points = append(cv.Points, Point{Rate: r, Efficiency: conv.Efficiency(r)})
	}
	return []Series{cf, cv}
}

// Fig314 generates the curves of Fig. 3.14: a partially conflict-free
// system with n = 64, m = 8, 16-word blocks, β = 17, at
// λ ∈ {0.9, 0.8, 0.7, 0.5}, against a conventional system with the same
// interconnect connectivity (64 modules).
func Fig314(steps int) []Series {
	return partialFigure(64, 8, 64, steps, []float64{0.9, 0.8, 0.7, 0.5})
}

// Fig315 generates the curves of Fig. 3.15: n = 128, m = 16, versus a
// conventional 128-processor, 128-module system.
func Fig315(steps int) []Series {
	return partialFigure(128, 16, 128, steps, []float64{0.9, 0.8, 0.7, 0.5})
}

func partialFigure(n, m, convModules, steps int, lambdas []float64) []Series {
	part := PartialModel{Processors: n, Modules: m, BlockTime: 17}
	conv := ConventionalModel{Processors: n, Modules: convModules, BlockTime: 17}
	rates := RateSweep(0.06, steps)
	var out []Series
	for _, lam := range lambdas {
		s := Series{Label: fmt.Sprintf("λ=%.1f", lam)}
		for _, r := range rates {
			s.Points = append(s.Points, Point{Rate: r, Efficiency: part.Efficiency(r, lam)})
		}
		out = append(out, s)
	}
	s := Series{Label: fmt.Sprintf("Conventional (%d modules)", convModules)}
	for _, r := range rates {
		s.Points = append(s.Points, Point{Rate: r, Efficiency: conv.Efficiency(r)})
	}
	out = append(out, s)
	return out
}
