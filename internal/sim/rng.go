package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random number generator
// (SplitMix64). Simulations must be reproducible run-to-run, so every
// stochastic component takes an explicit *RNG seeded by the experiment
// harness rather than sharing global state.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Distinct seeds give
// independent streams for practical simulation purposes.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// gamma is SplitMix64's state increment: draw k from state s is
// mix(s + k·gamma), a function of k alone, which Geometric exploits.
const gamma = 0x9e3779b97f4a7c15

// mix is SplitMix64's output function.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += gamma
	return mix(r.state)
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection-free bound is overkill here;
	// modulo bias is negligible for simulation-sized n.
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli reports true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// geometricCap bounds Geometric: after geometricCap failed trials it
// gives up and returns geometricCap+1.
const geometricCap = 1 << 20

// Geometric returns the index of the first success in a run of
// Bernoulli(p) trials, capped at geometricCap+1 — exactly what
//
//	t := 1
//	for !r.Bernoulli(p) {
//		t++
//		if t > geometricCap {
//			break
//		}
//	}
//
// returns, leaving State() exactly where that loop leaves it. Like
// Bernoulli, p >= 1 and p <= 0 draw nothing (the first returns 1, the
// second never succeeds); a NaN p draws geometricCap times and fails.
//
// Two facts make the fast paths exact. Float64() < p holds exactly when
// the raw draw is below ceil(p·2⁵³)·2¹¹: Float64 is k/2⁵³ for the top 53
// bits k, p·2⁵³ is exact (a power-of-two scale), and an integer k is
// below a real y exactly when it is below ceil(y). And draw k after state
// s is mix(s + k·gamma), independent of the draws before it, so draws
// are mixed several at a time and the first success among them, in
// order, ends the run. On a CPU with AVX-512 the search runs 32 draws per
// step (searchAVX512); elsewhere it runs four. Both return the same value
// and leave the same state.
func (r *RNG) Geometric(p float64) int {
	if p >= 1 {
		return 1
	}
	if p <= 0 {
		return geometricCap + 1
	}
	return r.geometric(bernoulliLimit(p), haveAVX512)
}

// kernelBlocks is the number of 32-draw steps that cover draws 5 through
// geometricCap; the last step runs four draws past the cap.
const kernelBlocks = (geometricCap - 4 + 31) / 32

// geometric searches for the first draw below lim, four draws per block;
// geometricCap is a multiple of four, so whole blocks reach it exactly.
// With kernel set (the CPU runs AVX-512) only the first block runs here
// and searchAVX512 takes draws 5 onward: a kernel step costs more than a
// block when p is high, and most such runs end within four draws. A
// success the kernel finds past the cap is a miss, which leaves the
// state after geometricCap draws, as the blocks do.
func (r *RNG) geometric(lim uint64, kernel bool) int {
	s := r.state
	for t := 1; t <= geometricCap; t += 4 {
		s1 := s + gamma
		s2 := s1 + gamma
		s3 := s2 + gamma
		s4 := s3 + gamma
		x1, x2, x3, x4 := mix(s1), mix(s2), mix(s3), mix(s4)
		switch {
		case x1 < lim:
			r.state = s1
			return t
		case x2 < lim:
			r.state = s2
			return t + 1
		case x3 < lim:
			r.state = s3
			return t + 2
		case x4 < lim:
			r.state = s4
			return t + 3
		}
		s = s4
		if kernel {
			k, ok := searchAVX512(s, lim, kernelBlocks)
			if k > geometricCap-4 {
				k, ok = geometricCap-4, false
			}
			r.state = s + uint64(k)*gamma
			if !ok {
				return geometricCap + 1
			}
			return 4 + k
		}
	}
	r.state = s
	return geometricCap + 1
}

// bernoulliLimit returns the raw-draw threshold of Bernoulli(p) for p in
// (0, 1) or NaN: Float64() < p exactly when the draw is below it. p·2⁵³
// is below 2⁵³, so the shifted ceiling fits in 64 bits.
func bernoulliLimit(p float64) uint64 {
	if p != p {
		return 0 // Float64() < NaN is never true
	}
	return uint64(math.Ceil(p*(1<<53))) << 11
}

// State returns the generator's stream position for checkpointing.
func (r *RNG) State() uint64 { return r.state }

// SetState repositions the generator to a state captured by State.
func (r *RNG) SetState(s uint64) { r.state = s }

// Split derives an independent generator; useful to give each simulated
// processor its own stream so per-component behaviour does not depend on
// the order in which other components draw.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xd1b54a32d192ed03)
}
