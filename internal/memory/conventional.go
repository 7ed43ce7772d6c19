package memory

import (
	"fmt"

	"cfm/internal/flight"
	"cfm/internal/metrics"
	"cfm/internal/sim"
)

// ConventionalConfig parameterizes the conventional interleaved baseline
// of §3.4.1: n processors uniformly generating block accesses at rate r
// per CPU cycle against m memory modules, each block access occupying its
// target module for β CPU cycles, with failed accesses retried after an
// average of g CPU cycles.
type ConventionalConfig struct {
	Processors int     // n
	Modules    int     // m
	BlockTime  int     // β, CPU cycles per block access
	AccessRate float64 // r, accesses per processor per CPU cycle
	RetryMean  int     // g, average CPU cycles before a retry (>=1)
	Seed       uint64

	// Target optionally overrides uniform module selection; it receives
	// the issuing processor and an RNG and returns a module number. Used
	// by hot-spot experiments.
	Target func(proc int, rng *sim.RNG) int
}

// Validate reports a descriptive error for an unusable configuration.
func (c ConventionalConfig) Validate() error {
	switch {
	case c.Processors < 1:
		return fmt.Errorf("memory: need >=1 processor, got %d", c.Processors)
	case c.Modules < 1:
		return fmt.Errorf("memory: need >=1 module, got %d", c.Modules)
	case c.BlockTime < 1:
		return fmt.Errorf("memory: need block time >=1, got %d", c.BlockTime)
	// Range checks are negated so NaN, which fails every comparison,
	// is rejected too.
	case !(c.AccessRate >= 0 && c.AccessRate <= 1):
		return fmt.Errorf("memory: access rate %v out of [0,1]", c.AccessRate)
	case c.RetryMean < 1:
		return fmt.Errorf("memory: retry mean %d < 1", c.RetryMean)
	}
	return nil
}

// procState is a conventional-system processor's issue/retry automaton.
type procState int

const (
	procIdle     procState = iota // between accesses (think time)
	procWaiting                   // delaying before a retry
	procInFlight                  // access in service at a module
)

// Conventional simulates the conventional interleaved memory system with
// an open-loop arrival process: each processor generates access demands at
// rate r per cycle whether or not earlier accesses have completed, exactly
// as the analytic model of §3.4.1 assumes. Demands that arrive while the
// processor is still busy queue behind it. It implements sim.Ticker; drive
// it with a sim.Clock and read the measured efficiency afterwards.
//
// Inter-arrival and service draws happen when the corresponding event
// fires, never per slot, so skip-ahead jumps leave the stream intact.
//
//cfm:rng=event
type Conventional struct {
	cfg  ConventionalConfig
	rng  *sim.RNG
	mods []sim.Slot // per-module busy-until slot

	state       []procState
	wakeAt      []sim.Slot            // when procWaiting ends
	doneAt      []sim.Slot            // when the in-flight access completes
	issuedAt    []sim.Slot            // first attempt slot of the current access
	nextArrival []sim.Slot            // next open-loop demand arrival
	backlog     []sim.Queue[sim.Slot] // arrival times of queued demands
	targetMod   []int

	// Measurements.
	Completed    int64 // block accesses finished
	Retries      int64 // rejected attempts
	TotalLatency int64 // Σ (completion − first attempt) over completed accesses
	TotalQueued  int64 // Σ (first attempt − arrival): open-loop queue wait

	// Registry handles (nil when unobserved). Conventional is a serial
	// Ticker, so direct adds are deterministic at every worker count.
	mCompleted   *metrics.Counter
	mRetries     *metrics.Counter
	mLatency     *metrics.Counter
	mQueued      *metrics.Counter
	mModConflict []*metrics.Counter // per-module, feeds the conflict heatmap

	// Flight recorder (nil when unobserved). Conventional is a serial
	// Ticker, so it emits directly; the access ID is ComposeID of the
	// processor and the first-attempt slot, which the retry machinery
	// already persists in issuedAt.
	flt *flight.Recorder
}

// NewConventional builds the baseline simulator. It panics on an invalid
// configuration (configuration is programmer input, not runtime data).
func NewConventional(cfg ConventionalConfig) *Conventional {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.Processors
	c := &Conventional{
		cfg:         cfg,
		rng:         sim.NewRNG(cfg.Seed),
		mods:        make([]sim.Slot, cfg.Modules),
		state:       make([]procState, n),
		wakeAt:      make([]sim.Slot, n),
		doneAt:      make([]sim.Slot, n),
		issuedAt:    make([]sim.Slot, n),
		nextArrival: make([]sim.Slot, n),
		backlog:     make([]sim.Queue[sim.Slot], n),
		targetMod:   make([]int, n),
	}
	for p := 0; p < n; p++ {
		c.nextArrival[p] = sim.Slot(c.thinkTime())
	}
	return c
}

// Instrument attaches registry metrics: completion/retry/latency/queue
// counters plus a per-module conflict counter
// (conv_module_conflicts{module="i"}) whose sampled time series renders
// the bank-conflict heatmap. Call before running; a nil registry leaves
// the simulator unobserved.
func (c *Conventional) Instrument(r *metrics.Registry) {
	if r == nil {
		return
	}
	c.mCompleted = r.Counter("conv_completed_total")
	c.mRetries = r.Counter("conv_retries_total")
	c.mLatency = r.Counter("conv_latency_cycles_total")
	c.mQueued = r.Counter("conv_queue_wait_cycles_total")
	c.mModConflict = make([]*metrics.Counter, c.cfg.Modules)
	for m := range c.mModConflict {
		c.mModConflict[m] = r.Counter(fmt.Sprintf(`conv_module_conflicts{module="%d"}`, m))
	}
}

// RecordFlight attaches a flight recorder: each access spans from its
// issue (first attempt) to its retire, with a bank-enqueue event per
// rejected attempt and a bank-service event when a module accepts it.
// Call before running; nil detaches.
func (c *Conventional) RecordFlight(r *flight.Recorder) { c.flt = r }

// thinkTime samples the idle gap between accesses so the offered load is
// approximately AccessRate accesses per cycle per processor: a geometric
// holding time with mean 1/r.
func (c *Conventional) thinkTime() int {
	r := c.cfg.AccessRate
	if r <= 0 {
		return 1 << 30 // effectively never
	}
	// RNG.Geometric counts Bernoulli(r) trials to the first success, one
	// draw per trial, so it is exact. Inverse-CDF sampling would take one
	// draw per sample, but its logarithms bias the long tail with float
	// error and it would change every random stream.
	return c.rng.Geometric(r)
}

// retryDelay samples the back-off before re-attempting a conflicting
// access: uniform on [1, 2g−1] so the mean is g, matching the model's
// "average of g CPU cycles before a possibly successful retry".
func (c *Conventional) retryDelay() int {
	g := c.cfg.RetryMean
	if g == 1 {
		return 1
	}
	return 1 + c.rng.Intn(2*g-1)
}

// pickModule selects the target module for a new access.
func (c *Conventional) pickModule(p int) int {
	if c.cfg.Target != nil {
		return c.cfg.Target(p, c.rng)
	}
	return c.rng.Intn(c.cfg.Modules)
}

// PhaseMask implements sim.PhaseMasker: all the work is in PhaseIssue.
func (c *Conventional) PhaseMask() sim.PhaseMask { return sim.MaskOf(sim.PhaseIssue) }

// Horizon implements sim.Horizoner. After a settled tick every processor
// is idle with an empty backlog (the tick drains the backlog into an
// attempt), waiting with a wake slot, or in flight with a completion
// slot; the next observable work is the earliest of those events or the
// next open-loop arrival. All think times and retry delays are drawn at
// event time from the single stream, and no event means no draw, so a
// jump leaves the stream bit-identical.
func (c *Conventional) Horizon(now sim.Slot) sim.Slot {
	h := sim.HorizonNone
	for p := range c.state {
		if v := c.nextArrival[p]; v < h {
			h = v
		}
		switch c.state[p] {
		case procWaiting:
			if c.wakeAt[p] < h {
				h = c.wakeAt[p]
			}
		case procInFlight:
			if c.doneAt[p] < h {
				h = c.doneAt[p]
			}
		}
		if h <= now {
			return now
		}
	}
	if h < now {
		return now
	}
	return h
}

// Tick implements sim.Ticker. All activity happens in PhaseIssue: the
// conventional model has no intra-slot structure worth modelling.
func (c *Conventional) Tick(t sim.Slot, ph sim.Phase) {
	if ph != sim.PhaseIssue {
		return
	}
	for p := range c.state {
		// Open-loop demand arrivals, independent of service progress.
		for t >= c.nextArrival[p] {
			c.backlog[p].Push(c.nextArrival[p])
			c.nextArrival[p] += sim.Slot(c.thinkTime())
		}
		switch c.state[p] {
		case procInFlight:
			if t >= c.doneAt[p] {
				c.Completed++
				c.TotalLatency += int64(c.doneAt[p] - c.issuedAt[p])
				c.mCompleted.Inc()
				c.mLatency.Add(int64(c.doneAt[p] - c.issuedAt[p]))
				if c.flt.Enabled() {
					c.flt.Emit(flight.ComposeID(p, c.issuedAt[p]), t,
						flight.StageRetire, int32(p), int64(c.doneAt[p]-c.issuedAt[p]))
				}
				c.state[p] = procIdle
			}
		case procWaiting:
			if t >= c.wakeAt[p] {
				c.attempt(t, p)
			}
		}
		if c.state[p] == procIdle && !c.backlog[p].Empty() {
			arrived := c.backlog[p].Pop()
			c.TotalQueued += int64(t - arrived)
			c.mQueued.Add(int64(t - arrived))
			c.targetMod[p] = c.pickModule(p)
			c.issuedAt[p] = t
			if c.flt.Enabled() {
				c.flt.Emit(flight.ComposeID(p, t), t, flight.StageIssue, int32(p), int64(t-arrived))
			}
			c.attempt(t, p)
		}
	}
}

// attempt tries to start proc p's access at its chosen module.
func (c *Conventional) attempt(t sim.Slot, p int) {
	mod := c.targetMod[p]
	if t < c.mods[mod] {
		// Module busy: conflict, retry later (BBN-style abort-and-retry).
		c.Retries++
		c.mRetries.Inc()
		if c.mModConflict != nil {
			c.mModConflict[mod].Inc()
		}
		c.state[p] = procWaiting
		c.wakeAt[p] = t + sim.Slot(c.retryDelay())
		if c.flt.Enabled() {
			c.flt.Emit(flight.ComposeID(p, c.issuedAt[p]), t,
				flight.StageBankEnqueue, int32(mod), int64(c.wakeAt[p]-t))
		}
		return
	}
	c.mods[mod] = t + sim.Slot(c.cfg.BlockTime)
	c.state[p] = procInFlight
	c.doneAt[p] = t + sim.Slot(c.cfg.BlockTime)
	if c.flt.Enabled() {
		c.flt.Emit(flight.ComposeID(p, c.issuedAt[p]), t,
			flight.StageBankService, int32(mod), int64(c.cfg.BlockTime))
	}
}

// Efficiency returns the measured memory access efficiency: the ratio of
// the conflict-free service time β to the mean observed access time
// (first attempt to completion). 1.0 means no access ever waited.
func (c *Conventional) Efficiency() float64 {
	if c.Completed == 0 {
		return 1
	}
	mean := float64(c.TotalLatency) / float64(c.Completed)
	return float64(c.cfg.BlockTime) / mean
}

// MeanLatency returns the mean access time in CPU cycles.
func (c *Conventional) MeanLatency() float64 {
	if c.Completed == 0 {
		return 0
	}
	return float64(c.TotalLatency) / float64(c.Completed)
}

// Utilization returns the fraction of module-slots that granted accesses
// hold over the first elapsed slots (pass the engine's Now() after the
// run). Every access a module has accepted, completed or still in
// flight, holds it for β slots.
func (c *Conventional) Utilization(elapsed sim.Slot) float64 {
	if elapsed <= 0 {
		return 0
	}
	granted := c.Completed
	for _, s := range c.state {
		if s == procInFlight {
			granted++
		}
	}
	return float64(granted*int64(c.cfg.BlockTime)) / float64(int64(elapsed)*int64(c.cfg.Modules))
}

// Throughput returns completed block accesses per slot over the first
// elapsed slots.
func (c *Conventional) Throughput(elapsed sim.Slot) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(c.Completed) / float64(elapsed)
}
