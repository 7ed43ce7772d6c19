package network

import (
	"fmt"

	"cfm/internal/metrics"
)

// Omega is the topology and routing engine of an N×N omega network
// (Fig. 3.7): k = log2(N) columns of N/2 two-by-two switches with a
// perfect shuffle before each column and destination-tag routing.
//
// The struct itself is stateless topology; circuit-switched occupancy is
// tracked by Circuit, and clock-driven operation by SyncOmega.
type Omega struct {
	n int // terminals per side
	k int // columns
}

// NewOmega builds an N×N omega network. N must be a power of two ≥ 2.
func NewOmega(n int) (*Omega, error) {
	k, err := Log2(n)
	if err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("network: omega needs N >= 2, got %d", n)
	}
	return &Omega{n: n, k: k}, nil
}

// MustOmega is NewOmega for compile-time-known sizes.
func MustOmega(n int) *Omega {
	o, err := NewOmega(n)
	if err != nil {
		panic(err)
	}
	return o
}

// Size returns N, the number of terminals per side.
func (o *Omega) Size() int { return o.n }

// Columns returns k = log2(N), the number of switch columns.
func (o *Omega) Columns() int { return o.k }

// SwitchesPerColumn returns N/2.
func (o *Omega) SwitchesPerColumn() int { return o.n / 2 }

// Hop is one step of a route: the switch visited in one column and the
// ports used through it.
type Hop struct {
	Column  int
	Switch  int // switch index within the column (0..N/2−1)
	InPort  int // 0 or 1
	OutPort int // 0 or 1
}

// OutPos returns the line position this hop's output occupies (the input
// to the next column's shuffle).
func (h Hop) OutPos() int { return h.Switch<<1 | h.OutPort }

// Route computes the unique path from source src to destination dst using
// destination-tag routing: at column j the route exits on the port given
// by bit (k−1−j) of dst.
func (o *Omega) Route(src, dst int) []Hop {
	if src < 0 || src >= o.n || dst < 0 || dst >= o.n {
		panic(fmt.Sprintf("network: route %d→%d out of range [0,%d)", src, dst, o.n))
	}
	hops := make([]Hop, o.k)
	pos := src
	for j := 0; j < o.k; j++ {
		pos = shuffle(pos, o.k)
		out := (dst >> (o.k - 1 - j)) & 1
		hops[j] = Hop{Column: j, Switch: pos >> 1, InPort: pos & 1, OutPort: out}
		pos = pos&^1 | out
	}
	if pos != dst {
		panic(fmt.Sprintf("network: routing invariant broken: %d→%d ended at %d", src, dst, pos))
	}
	return hops
}

// RouteStates returns, for each column, the switch state a route requires
// of the switch it traverses: Straight when it enters and leaves on the
// same port number, Interchange otherwise.
func (o *Omega) RouteStates(src, dst int) []SwitchState {
	hops := o.Route(src, dst)
	states := make([]SwitchState, len(hops))
	for i, h := range hops {
		if h.InPort == h.OutPort {
			states[i] = Straight
		} else {
			states[i] = Interchange
		}
	}
	return states
}

// PermutationStates attempts to realize the permutation perm (perm[src] =
// dst) on the network simultaneously. It returns the state of every
// switch, indexed [column][switch], or an error naming the first switch
// that would need to be in two states at once (a switch conflict).
//
// Lawrie showed the slot permutations used by the synchronous omega
// network are always realizable; tests verify that via this function.
func (o *Omega) PermutationStates(perm []int) ([][]SwitchState, error) {
	if len(perm) != o.n {
		return nil, fmt.Errorf("network: permutation has %d entries, want %d", len(perm), o.n)
	}
	const unset = -1
	states := make([][]int, o.k)
	for j := range states {
		states[j] = make([]int, o.SwitchesPerColumn())
		for s := range states[j] {
			states[j][s] = unset
		}
	}
	for src, dst := range perm {
		for _, h := range o.Route(src, dst) {
			var st SwitchState
			if h.InPort == h.OutPort {
				st = Straight
			} else {
				st = Interchange
			}
			switch prev := states[h.Column][h.Switch]; prev {
			case unset:
				states[h.Column][h.Switch] = int(st)
			case int(st):
				// Consistent with the earlier route through this switch.
			default:
				return nil, fmt.Errorf("network: switch conflict at column %d switch %d routing %d→%d",
					h.Column, h.Switch, src, dst)
			}
		}
	}
	out := make([][]SwitchState, o.k)
	for j := range out {
		out[j] = make([]SwitchState, o.SwitchesPerColumn())
		for s := range out[j] {
			if states[j][s] == unset {
				out[j][s] = Straight // unused switches idle in the straight state
			} else {
				out[j][s] = SwitchState(states[j][s])
			}
		}
	}
	return out, nil
}

// Circuit tracks circuit-switched occupancy of an omega network, as in
// the BBN Butterfly: a memory access holds its entire path for its
// duration, and a new path that needs any already-held switch output is
// blocked (aborted for later retry rather than buffered, §2.1.2).
type Circuit struct {
	o *Omega
	// heldUntil[column][outputPosition] is the first slot at which the
	// output line is free again; 0 means never held.
	heldUntil [][]int64

	// Statistics.
	Established int64
	Blocked     int64

	// Registry handles (nil when unobserved).
	mEstablished *metrics.Counter
	mBlocked     *metrics.Counter
}

// NewCircuit returns an empty circuit tracker for the network.
func NewCircuit(o *Omega) *Circuit {
	h := make([][]int64, o.k)
	for j := range h {
		h[j] = make([]int64, o.n)
	}
	return &Circuit{o: o, heldUntil: h}
}

// Instrument attaches registry counters for established and blocked
// paths. Callers drive Circuit from serial contexts, so direct adds are
// deterministic.
func (c *Circuit) Instrument(r *metrics.Registry) {
	if r == nil {
		return
	}
	c.mEstablished = r.Counter("circuit_established_total")
	c.mBlocked = r.Counter("circuit_blocked_total")
}

// TryEstablish attempts to set up the path src→dst at slot t, holding it
// for hold slots. It reports whether the path was free; on failure
// nothing is held (abort-and-retry, not buffering).
func (c *Circuit) TryEstablish(t int64, src, dst, hold int) bool {
	hops := c.o.Route(src, dst)
	for _, h := range hops {
		if t < c.heldUntil[h.Column][h.OutPos()] {
			c.Blocked++
			c.mBlocked.Inc()
			return false
		}
	}
	until := t + int64(hold)
	for _, h := range hops {
		c.heldUntil[h.Column][h.OutPos()] = until
	}
	c.Established++
	c.mEstablished.Inc()
	return true
}

// BusyOutputs counts output lines still held at slot t (a congestion
// metric for tests).
func (c *Circuit) BusyOutputs(t int64) int {
	busy := 0
	for j := range c.heldUntil {
		for _, u := range c.heldUntil[j] {
			if t < u {
				busy++
			}
		}
	}
	return busy
}
