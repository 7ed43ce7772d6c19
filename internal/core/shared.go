package core

import (
	"fmt"

	"cfm/internal/sim"
)

// This file implements the slot-sharing extension proposed as future
// work in §7.2: "One way to utilize this valuable resource is to assign
// a time slot to more than one processor. Although processors sharing
// the same time slot can conflict with each other when accessing shared
// memory concurrently, the memory and network utilizations are further
// improved" — trading the strict conflict-freedom guarantee for higher
// processor counts on the same memory hardware.

// SharedConfig parameterizes a slot-shared CFM: Divisions AT-space
// divisions (the hardware is a CFM for Divisions processors) with
// Sharing processors assigned to each division.
type SharedConfig struct {
	Divisions  int     // AT-space divisions (= conflict-free capacity)
	Sharing    int     // processors per division (1 = plain CFM)
	BlockWords int     // words per block (banks of the underlying CFM)
	BankCycle  int     // c
	AccessRate float64 // r per processor per cycle
	RetryMean  int
	Seed       uint64
}

// Validate reports a descriptive error for an unusable configuration.
func (c SharedConfig) Validate() error {
	switch {
	case c.Divisions < 1:
		return fmt.Errorf("core: need >=1 division, got %d", c.Divisions)
	case c.Sharing < 1:
		return fmt.Errorf("core: sharing %d < 1", c.Sharing)
	case c.BlockWords < 1 || c.BankCycle < 1:
		return fmt.Errorf("core: block %d / cycle %d invalid", c.BlockWords, c.BankCycle)
	// Range checks are negated so NaN, which fails every comparison,
	// is rejected too.
	case !(c.AccessRate >= 0 && c.AccessRate <= 1):
		return fmt.Errorf("core: rate %v out of [0,1]", c.AccessRate)
	case c.RetryMean < 1:
		return fmt.Errorf("core: retry mean %d < 1", c.RetryMean)
	}
	return nil
}

// Processors returns the total processor count, Divisions × Sharing.
func (c SharedConfig) Processors() int { return c.Divisions * c.Sharing }

// BlockTime returns β.
func (c SharedConfig) BlockTime() int { return c.BlockWords + c.BankCycle - 1 }

// Division returns the AT-space division processor p is assigned to.
func (c SharedConfig) Division(p int) int { return p % c.Divisions }

// Shared simulates the slot-shared CFM: each division is a port held for
// β slots per block access; processors sharing a division conflict with
// each other (and only with each other). It implements sim.Ticker.
//
// Think times and retry delays are drawn when the triggering event fires,
// never per slot, so skip-ahead jumps leave the stream intact.
//
//cfm:rng=event
type Shared struct {
	cfg SharedConfig
	rng *sim.RNG

	ports []sim.Slot // per-division busy-until

	state       []procState
	wakeAt      []sim.Slot
	doneAt      []sim.Slot
	issuedAt    []sim.Slot
	nextArrival []sim.Slot
	backlog     []sim.Queue[sim.Slot]

	// Measurements.
	Completed    int64
	Retries      int64
	TotalLatency int64
	busySlots    int64 // Σ port busy time granted
	horizon      sim.Slot
}

// NewShared builds the simulator; it panics on invalid configuration.
func NewShared(cfg SharedConfig) *Shared {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.Processors()
	s := &Shared{
		cfg:         cfg,
		rng:         sim.NewRNG(cfg.Seed),
		ports:       make([]sim.Slot, cfg.Divisions),
		state:       make([]procState, n),
		wakeAt:      make([]sim.Slot, n),
		doneAt:      make([]sim.Slot, n),
		issuedAt:    make([]sim.Slot, n),
		nextArrival: make([]sim.Slot, n),
		backlog:     make([]sim.Queue[sim.Slot], n),
	}
	for i := range s.nextArrival {
		s.nextArrival[i] = sim.Slot(s.thinkTime())
	}
	return s
}

func (s *Shared) thinkTime() int {
	if s.cfg.AccessRate <= 0 {
		return 1 << 30
	}
	return s.rng.Geometric(s.cfg.AccessRate)
}

func (s *Shared) retryDelay() int {
	g := s.cfg.RetryMean
	if g == 1 {
		return 1
	}
	return 1 + s.rng.Intn(2*g-1)
}

// PhaseMask implements sim.PhaseMasker: all the work is in PhaseIssue.
func (s *Shared) PhaseMask() sim.PhaseMask { return sim.MaskOf(sim.PhaseIssue) }

// Tick implements sim.Ticker.
func (s *Shared) Tick(t sim.Slot, ph sim.Phase) {
	if ph != sim.PhaseIssue {
		return
	}
	s.horizon = t + 1
	for i := range s.state {
		for t >= s.nextArrival[i] {
			s.backlog[i].Push(s.nextArrival[i])
			s.nextArrival[i] += sim.Slot(s.thinkTime())
		}
		switch s.state[i] {
		case procInFlight:
			if t >= s.doneAt[i] {
				s.Completed++
				s.TotalLatency += int64(s.doneAt[i] - s.issuedAt[i])
				s.state[i] = procIdle
			}
		case procWaiting:
			if t >= s.wakeAt[i] {
				s.attempt(t, i)
			}
		}
		if s.state[i] == procIdle && !s.backlog[i].Empty() {
			s.backlog[i].Pop()
			s.issuedAt[i] = t
			s.attempt(t, i)
		}
	}
}

func (s *Shared) attempt(t sim.Slot, proc int) {
	div := s.cfg.Division(proc)
	if t < s.ports[div] {
		// Slot-sharing conflict: another processor of the same division
		// is mid-access.
		s.Retries++
		s.state[proc] = procWaiting
		s.wakeAt[proc] = t + sim.Slot(s.retryDelay())
		return
	}
	s.ports[div] = t + sim.Slot(s.cfg.BlockTime())
	s.busySlots += int64(s.cfg.BlockTime())
	s.state[proc] = procInFlight
	s.doneAt[proc] = t + sim.Slot(s.cfg.BlockTime())
}

// Efficiency returns β over the mean access time.
func (s *Shared) Efficiency() float64 {
	if s.Completed == 0 {
		return 1
	}
	return float64(s.cfg.BlockTime()) / (float64(s.TotalLatency) / float64(s.Completed))
}

// Utilization returns the fraction of division-slots actually serving
// accesses — the quantity §7.2 proposes to improve by sharing.
func (s *Shared) Utilization() float64 {
	if s.horizon == 0 {
		return 0
	}
	return float64(s.busySlots) / float64(int64(s.horizon)*int64(s.cfg.Divisions))
}

// Throughput returns completed block accesses per slot.
func (s *Shared) Throughput() float64 {
	if s.horizon == 0 {
		return 0
	}
	return float64(s.Completed) / float64(s.horizon)
}
