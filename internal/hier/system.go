package hier

import (
	"fmt"

	"cfm/internal/cache"
	"cfm/internal/memory"
	"cfm/internal/sim"
)

// Config parameterizes a two-level hierarchical CFM (Fig. 5.6).
type Config struct {
	Clusters        int
	ProcsPerCluster int
	BankCycle       int // c, sets β = c·n + c − 1 per level
	L1Lines         int // direct-mapped lines per processor cache
	L2Lines         int // direct-mapped lines per second-level cache
}

// Validate reports a descriptive error for an unusable configuration.
func (c Config) Validate() error {
	switch {
	case c.Clusters < 2:
		return fmt.Errorf("hier: need >=2 clusters, got %d", c.Clusters)
	case c.ProcsPerCluster < 1:
		return fmt.Errorf("hier: need >=1 processor per cluster, got %d", c.ProcsPerCluster)
	case c.BankCycle < 1:
		return fmt.Errorf("hier: bank cycle %d < 1", c.BankCycle)
	case c.L1Lines < 1 || c.L2Lines < 1:
		return fmt.Errorf("hier: cache lines must be >=1 (L1=%d, L2=%d)", c.L1Lines, c.L2Lines)
	}
	return nil
}

// line is a direct-mapped cache line at either level.
type line struct {
	state cache.LineState
	tag   int
	data  memory.Block
}

// ncJob is one unit of work for a network controller, ordered by the
// Table 5.4 priorities.
type ncJob struct {
	prio   int // 1 write-back, 2 invalidation from above, 3 read-inv, 4 read
	offset int
	run    func()
}

// nc is a cluster's network controller: a pseudo-processor serving its
// cluster's second-level cache misses against the global memory banks.
type nc struct {
	busyUntil sim.Slot
	queue     []ncJob
}

// System is the two-level hierarchical CFM protocol engine. Timing is
// modelled at block-access granularity (each protocol step costs one
// cluster or global β, per the LatencyModel); the slot-accurate bank
// pipeline underneath is validated separately by the core and cache
// packages. It implements sim.Ticker.
//
//cfm:no-stater protocol steps are queued closures (events, pending, ncJob.run); checkpoint the flat core/cache engines instead
type System struct {
	cfg   Config
	model LatencyModel
	mem   map[int]memory.Block
	l1    [][][]line // [cluster][proc][lineIdx]
	l2    [][]line   // [cluster][lineIdx]
	ncs   []*nc
	// procBusy serializes each processor's requests.
	procBusy [][]sim.Slot
	pending  [][][]func(t sim.Slot) // queued requests per processor
	// globalBusy marks blocks with a global-level fill in progress —
	// the hierarchy's analogue of the flat protocol's autonomous access
	// control among network controllers.
	globalBusy map[int]bool
	events     map[sim.Slot][]func()
	now        sim.Slot
	trace      *sim.Trace

	// Statistics.
	L1Hits, L1Misses  int64
	L2Hits, L2Misses  int64
	GlobalReads       int64
	RemoteDirtyChains int64
	L2WriteBacks      int64
	InvalidationsSent int64
}

// NewSystem builds the hierarchy; it panics on invalid configuration.
func NewSystem(cfg Config, trace *sim.Trace) *System {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &System{
		cfg:        cfg,
		model:      NewLatencyModel(cfg.ProcsPerCluster, cfg.BankCycle),
		mem:        make(map[int]memory.Block),
		l1:         make([][][]line, cfg.Clusters),
		l2:         make([][]line, cfg.Clusters),
		ncs:        make([]*nc, cfg.Clusters),
		procBusy:   make([][]sim.Slot, cfg.Clusters),
		pending:    make([][][]func(sim.Slot), cfg.Clusters),
		globalBusy: make(map[int]bool),
		events:     make(map[sim.Slot][]func()),
		trace:      trace,
	}
	for cl := 0; cl < cfg.Clusters; cl++ {
		s.l1[cl] = make([][]line, cfg.ProcsPerCluster)
		for p := range s.l1[cl] {
			s.l1[cl][p] = make([]line, cfg.L1Lines)
		}
		s.l2[cl] = make([]line, cfg.L2Lines)
		s.ncs[cl] = &nc{}
		s.procBusy[cl] = make([]sim.Slot, cfg.ProcsPerCluster)
		s.pending[cl] = make([][]func(sim.Slot), cfg.ProcsPerCluster)
	}
	return s
}

// Model returns the latency model in force.
func (s *System) Model() LatencyModel { return s.model }

// blockSize is the words per block (cluster bank count).
func (s *System) blockSize() int { return s.cfg.BankCycle * s.cfg.ProcsPerCluster }

// memBlock returns (allocating) the backing block.
func (s *System) memBlock(offset int) memory.Block {
	b, ok := s.mem[offset]
	if !ok {
		b = make(memory.Block, s.blockSize())
		s.mem[offset] = b
	}
	return b
}

// PokeMemory installs a block in global memory.
func (s *System) PokeMemory(offset int, b memory.Block) {
	if len(b) != s.blockSize() {
		panic(fmt.Sprintf("hier: block of %d words, want %d", len(b), s.blockSize()))
	}
	s.mem[offset] = b.Clone()
}

// PeekMemory reads global memory without timing.
func (s *System) PeekMemory(offset int) memory.Block { return s.memBlock(offset).Clone() }

// l1Line returns the L1 line that would hold offset.
func (s *System) l1Line(cl, p, offset int) *line { return &s.l1[cl][p][offset%s.cfg.L1Lines] }

// l2Line returns the L2 line that would hold offset.
func (s *System) l2Line(cl, offset int) *line { return &s.l2[cl][offset%s.cfg.L2Lines] }

// L1State returns the L1 state of offset at (cluster, proc).
func (s *System) L1State(cl, p, offset int) cache.LineState {
	ln := s.l1Line(cl, p, offset)
	if ln.state == cache.Invalid || ln.tag != offset {
		return cache.Invalid
	}
	return ln.state
}

// L2State returns the L2 state of offset at cluster cl.
func (s *System) L2State(cl, offset int) cache.LineState {
	ln := s.l2Line(cl, offset)
	if ln.state == cache.Invalid || ln.tag != offset {
		return cache.Invalid
	}
	return ln.state
}

// schedule queues fn to run at slot at.
func (s *System) schedule(at sim.Slot, fn func()) {
	if at <= s.now {
		at = s.now + 1
	}
	s.events[at] = append(s.events[at], fn)
}

// PhaseMask implements sim.PhaseMasker: the whole event machine runs in
// PhaseTransfer.
func (s *System) PhaseMask() sim.PhaseMask { return sim.MaskOf(sim.PhaseTransfer) }

// Tick implements sim.Ticker.
func (s *System) Tick(t sim.Slot, ph sim.Phase) {
	if ph != sim.PhaseTransfer {
		return
	}
	s.now = t
	for _, fn := range s.events[t] {
		fn()
	}
	delete(s.events, t)
	// Start pending processor requests.
	for cl := range s.pending {
		for p := range s.pending[cl] {
			if t >= s.procBusy[cl][p] && len(s.pending[cl][p]) > 0 {
				req := s.pending[cl][p][0]
				s.pending[cl][p] = s.pending[cl][p][1:]
				s.procBusy[cl][p] = t + 1<<30 // until the chain releases it
				req(t)
			}
		}
	}
	// Dispatch network controller queues (Table 5.4 priority order).
	for _, n := range s.ncs {
		if t < n.busyUntil || len(n.queue) == 0 {
			continue
		}
		best := 0
		for i := range n.queue {
			if n.queue[i].prio < n.queue[best].prio {
				best = i
			}
		}
		job := n.queue[best]
		n.queue = append(n.queue[:best], n.queue[best+1:]...)
		job.run()
	}
}

// Horizon implements sim.Horizoner. The system is a pure event machine:
// scheduled events fire at known slots, a queued processor request can
// start no earlier than its processor frees, and a network-controller
// job no earlier than its controller frees. The busy-chain sentinel
// (procBusy = now + 2^30) is released by a scheduled event, so the
// events fold always bounds it from below.
func (s *System) Horizon(now sim.Slot) sim.Slot {
	h := sim.HorizonNone
	for at := range s.events {
		if at < h {
			h = at
		}
	}
	for cl := range s.pending {
		for p := range s.pending[cl] {
			if len(s.pending[cl][p]) == 0 {
				continue
			}
			v := s.procBusy[cl][p]
			if v <= now {
				return now
			}
			if v < h {
				h = v
			}
		}
	}
	for _, n := range s.ncs {
		if len(n.queue) == 0 {
			continue
		}
		if n.busyUntil <= now {
			return now
		}
		if n.busyUntil < h {
			h = n.busyUntil
		}
	}
	if h < now {
		return now
	}
	return h
}

// Idle reports whether all activity has drained.
func (s *System) Idle() bool {
	if len(s.events) > 0 {
		return false
	}
	for cl := range s.pending {
		for p := range s.pending[cl] {
			if len(s.pending[cl][p]) > 0 || s.procBusy[cl][p] > s.now+1<<29 {
				return false
			}
		}
	}
	for _, n := range s.ncs {
		if len(n.queue) > 0 {
			return false
		}
	}
	return true
}
