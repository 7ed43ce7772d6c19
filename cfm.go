// Package cfm is the public facade of the Conflict-Free Memory
// reproduction: a Go implementation of Shing & Ni, "A Conflict-Free
// Memory Design for Multiprocessors" (Supercomputing '91) and the full
// architecture developed in Shing's 1992 dissertation of the same title.
//
// The facade re-exports the main types of the implementation packages so
// that applications (the examples/ programs, the cmd/ tools, and the
// benchmark harness) program against one import:
//
//   - the CFM core: AT-space partitioning, conflict-free block-access
//     memory, configuration algebra, multi-cluster extension (Chapter 3);
//   - the interconnection networks: synchronous switch boxes, circuit-
//     switched / synchronous / partially synchronous omega networks, and
//     the buffered MIN used to demonstrate tree saturation (§2.1, §3.2);
//   - the address tracking consistency mechanism and atomic operations
//     (Chapter 4);
//   - the CFM cache coherence protocol and synchronization primitives
//     (Chapter 5), plus the hierarchical extension and latency models;
//   - the resource binding parallel programming paradigm (Chapter 6);
//   - the analytic efficiency models behind Figs. 3.13–3.15 (§3.4).
//
// Start with NewMemory for the conflict-free memory itself, or see
// examples/quickstart.
package cfm

import (
	"io"
	"net/http"

	"cfm/internal/analytic"
	"cfm/internal/att"
	"cfm/internal/binding"
	"cfm/internal/cache"
	"cfm/internal/consistency"
	"cfm/internal/core"
	"cfm/internal/flight"
	"cfm/internal/hier"
	"cfm/internal/linda"
	"cfm/internal/memory"
	"cfm/internal/metrics"
	"cfm/internal/network"
	"cfm/internal/sim"
	"cfm/internal/syncprim"
	"cfm/internal/workload"
)

// Simulation kernel.
type (
	// Clock is the cycle engine at one worker: it drives a cycle-accurate
	// simulation one time slot at a time on the caller's goroutine. It is
	// the same type as ParallelClock.
	Clock = sim.Clock
	// ParallelClock is the cycle engine. With more than one worker it
	// runs each slot on a worker pool with barrier synchronization, bit
	// for bit the same simulation as one worker.
	ParallelClock = sim.ParallelClock
	// Engine is the cycle-engine interface ParallelClock implements.
	Engine = sim.Engine
	// Timebase is the read-only clock interface (Now only) components
	// hold when they just need the current slot.
	Timebase = sim.Timebase
	// Shardable is the opt-in interface by which a component declares
	// conflict-free shard affinity to the parallel engine.
	Shardable = sim.Shardable
	// Slot is a point in simulated time (one CPU cycle).
	Slot = sim.Slot
	// Phase is the intra-slot phase of a Tick.
	Phase = sim.Phase
	// PhaseMask is a bit set of phases a component wants ticks for.
	PhaseMask = sim.PhaseMask
	// Ticker is a clock-driven simulation component.
	Ticker = sim.Ticker
	// TickerFunc adapts a plain function to the Ticker interface.
	TickerFunc = sim.TickerFunc
	// FuncTicker is a scripted driver: a tick function plus optional
	// phase mask and next-event hook, so ad-hoc drivers participate in
	// skip-ahead scheduling.
	FuncTicker = sim.FuncTicker
	// Horizoner is the opt-in interface by which a component bounds its
	// next observable event for the skip-ahead clock.
	Horizoner = sim.Horizoner
	// Trace records simulation events for timing diagrams.
	Trace = sim.Trace
	// RNG is the deterministic generator used by stochastic workloads.
	RNG = sim.RNG
	// Stater is the opt-in interface by which a component serializes its
	// mutable state into a checkpoint and restores from one.
	Stater = sim.Stater
	// StateEncoder writes one component's checkpoint section.
	StateEncoder = sim.StateEncoder
	// StateDecoder reads one component's checkpoint section.
	StateDecoder = sim.StateDecoder
)

// HorizonNone is the Horizoner answer meaning "no events of my own".
const HorizonNone = sim.HorizonNone

// The intra-slot phases, in execution order, for building FuncTicker
// phase masks outside the module.
const (
	PhaseIssue    = sim.PhaseIssue
	PhaseConnect  = sim.PhaseConnect
	PhaseTransfer = sim.PhaseTransfer
	PhaseUpdate   = sim.PhaseUpdate
)

// MaskOf builds a PhaseMask from individual phases.
func MaskOf(phases ...Phase) PhaseMask { return sim.MaskOf(phases...) }

// NewClock returns the one-worker engine at slot 0.
func NewClock() *Clock { return sim.NewClock() }

// WorkersAuto asks NewParallelClock to choose its own worker count: it
// inspects the registered fleet and runs on one worker when the plan
// cannot run on a pool (any component that is not epoch-safe) or its
// shards are too narrow to pay for the barriers.
const WorkersAuto = sim.WorkersAuto

// NewParallelClock returns the engine at slot 0 with the given worker
// count (1 = NewClock, WorkersAuto = heuristic, < 0 = GOMAXPROCS). A
// plan with any component that is not epoch-safe runs on one worker
// whatever the count.
func NewParallelClock(workers int) *ParallelClock { return sim.NewParallelClock(workers) }

// EpochAuto asks Engine.SetEpochBatch to size barrier episodes itself:
// a worker pool (which only a batchable plan — all shard work, every
// component epoch-safe — gets) fuses several slots per barrier episode
// so crossings amortize; one worker runs slot-at-a-time. It is the
// default — pass 1 for one-slot episodes, k > 1 to cap episodes at k
// slots. The simulation is bit-identical at any setting.
const EpochAuto = sim.EpochAuto

// NewTrace returns an empty event trace.
func NewTrace() *Trace { return sim.NewTrace() }

// CheckpointVersion is the current checkpoint format version written by
// Engine.Checkpoint.
const CheckpointVersion = sim.CheckpointVersion

// ErrUnsupportedVersion is returned (wrapped) by Restore when a
// checkpoint's format version is newer than this build understands.
var ErrUnsupportedVersion = sim.ErrUnsupportedVersion

// Restore reads a checkpoint written by Engine.Checkpoint. build must
// reconstruct the engine exactly as the checkpointing run did — same
// components, registered in the same order, same configuration — since a
// checkpoint holds mutable state only; code and wiring come from build.
// The restored engine resumes at the checkpointed slot at any worker
// count (a one-worker checkpoint restores into a worker pool and vice
// versa).
func Restore(r io.Reader, build func() Engine) (Engine, error) {
	return sim.Restore(r, func() sim.Engine { return build() })
}

// Observability (the simulation observatory).
type (
	// Registry is the central store of named counters, gauges, and
	// histograms every instrumented subsystem reports into. A nil
	// *Registry is valid and disables observation at zero cost.
	Registry = metrics.Registry
	// MetricsSnapshot is a deterministic point-in-time copy of a
	// registry, sorted by name, with a Digest for differential tests.
	MetricsSnapshot = metrics.Snapshot
	// Sampler records registry snapshots every N slots, forming the
	// slot-sampled time series behind the JSONL export and ASCII views.
	Sampler = metrics.Sampler
	// MetricsSample is one time-series point: every counter and gauge
	// value at the end of a slot.
	MetricsSample = metrics.Sample
)

// PrometheusText renders a metrics snapshot in the Prometheus text
// exposition format (byte-stable for a given snapshot).
func PrometheusText(s MetricsSnapshot) string { return metrics.Prometheus(s) }

// WriteMetricsJSONL writes a sampler's slot-stamped time series as JSON
// lines, one sample per line.
func WriteMetricsJSONL(w io.Writer, samples []MetricsSample) error {
	return metrics.WriteSeriesJSONL(w, samples)
}

// WriteTraceJSONL writes an event trace as JSON lines, one event per
// line; a nil trace writes nothing.
func WriteTraceJSONL(w io.Writer, tr *Trace) error { return metrics.WriteTraceJSONL(w, tr) }

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return metrics.New() }

// NewSampler returns a sampler reading reg every `every` slots; register
// it on an engine with its Attach method so it runs after all
// instrumented components.
func NewSampler(reg *Registry, every int64) *Sampler { return metrics.NewSampler(reg, every) }

// ServeMetrics starts a live observability endpoint (/metrics, expvar,
// pprof) on addr; close the returned server when done.
func ServeMetrics(addr string, reg *Registry) (*http.Server, error) {
	return metrics.Serve(addr, reg)
}

// NewRNG returns a seeded deterministic generator.
func NewRNG(seed uint64) *RNG { return sim.NewRNG(seed) }

// The flight recorder (causal access spans, latency attribution, and the
// checkpoint-driven divergence bisector).
type (
	// FlightRecorder is the deterministic per-access span recorder: a
	// bounded ring of stage events the instrumented subsystems emit. A
	// nil *FlightRecorder is valid and disables recording at zero cost.
	FlightRecorder = flight.Recorder
	// FlightEvent is one stage of one access's journey.
	FlightEvent = flight.Event
	// FlightStage identifies the pipeline stage an event marks.
	FlightStage = flight.Stage
	// FlightSpan is one access's events, in stream order.
	FlightSpan = flight.Span
	// FlightBreakdown is one span's queue/service/network decomposition.
	FlightBreakdown = flight.Breakdown
	// FlightTermSummary summarizes one latency term across spans.
	FlightTermSummary = flight.TermSummary
	// FlightAttribution is the per-design latency decomposition summary.
	FlightAttribution = flight.Attribution
	// FlightBisectResult reports a localized digest divergence.
	FlightBisectResult = flight.BisectResult
	// FlightProbe is one step of a bisection.
	FlightProbe = flight.Probe
)

// The flight stages, re-exported for harnesses that build or filter
// events outside the instrumented packages.
const (
	StageIssue       = flight.StageIssue
	StageNetInject   = flight.StageNetInject
	StageHop         = flight.StageHop
	StageBankEnqueue = flight.StageBankEnqueue
	StageBankService = flight.StageBankService
	StageReply       = flight.StageReply
	StageRetire      = flight.StageRetire
	StageCacheHit    = flight.StageCacheHit
	StageCacheMiss   = flight.StageCacheMiss
	StageATTDefer    = flight.StageATTDefer
	StageATTRetry    = flight.StageATTRetry
)

// DefaultFlightLimit is the default recorder ring capacity in events.
const DefaultFlightLimit = flight.DefaultLimit

// ErrNoDivergence reports that a bisection's engines digested equal at
// the upper bound — there is nothing to localize.
var ErrNoDivergence = flight.ErrNoDivergence

// NewFlightRecorder returns a recorder keeping the newest limit events
// (limit <= 0 selects DefaultFlightLimit).
func NewFlightRecorder(limit int) *FlightRecorder { return flight.NewRecorder(limit) }

// FlightComposeID builds a span ID from an acting component index and
// the access's issue slot — the convention every instrumented subsystem
// follows, so a span's events share one ID across stages.
func FlightComposeID(actor int, issued Slot) uint64 { return flight.ComposeID(actor, issued) }

// DecomposeFlight assembles spans from an event stream and decomposes
// the complete ones into queue/service/network terms.
func DecomposeFlight(events []FlightEvent) []FlightBreakdown { return flight.DecomposeAll(events) }

// AttributeFlight summarizes the latency decomposition of every
// complete span (the `cfmsim efficiency` queueing-delay table).
func AttributeFlight(events []FlightEvent) FlightAttribution { return flight.Attribute(events) }

// RecordFlightHistograms feeds the decomposition into registry
// histograms named <prefix>_span_{queue,service,network,total}_cycles.
// Call after the run, from the harness, never from a tick path.
func RecordFlightHistograms(reg *Registry, prefix string, events []FlightEvent) {
	flight.Record(reg, prefix, events)
}

// WriteFlightJSONL writes span events as JSON lines, one per event.
func WriteFlightJSONL(w io.Writer, events []FlightEvent) error { return flight.WriteJSONL(w, events) }

// WriteFlightChromeTrace writes span events as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
func WriteFlightChromeTrace(w io.Writer, events []FlightEvent) error {
	return flight.WriteChromeTrace(w, events)
}

// FlightWaterfall renders one span's stage-by-stage timeline as an
// ASCII waterfall with its latency decomposition.
func FlightWaterfall(events []FlightEvent, id uint64) string { return flight.Waterfall(events, id) }

// FlightWindow extracts the events within ±radius slots of center.
func FlightWindow(events []FlightEvent, center, radius Slot) []FlightEvent {
	return flight.Window(events, center, radius)
}

// CheckpointBytes snapshots an engine into memory (a convenience over
// Engine.Checkpoint for bisection harnesses).
func CheckpointBytes(eng Engine) ([]byte, error) { return flight.Checkpoint(eng) }

// BisectEngines binary-searches the first slot in (a.Now(), hi] at
// which digest(a) and digest(b) differ, rewinding via the deterministic
// checkpoint/restore machinery — O(log slots) restores instead of
// O(slots) re-runs. See flight.Bisect for the contract.
func BisectEngines(a, b Engine, digest func(Engine) string, hi Slot) (FlightBisectResult, error) {
	return flight.Bisect(a, b, digest, hi)
}

// Memory substrate.
type (
	// Word is one memory word.
	Word = memory.Word
	// Block is one memory block (cache line), one word per bank.
	Block = memory.Block
	// ConventionalConfig parameterizes the conventional interleaved
	// baseline of §3.4.1.
	ConventionalConfig = memory.ConventionalConfig
	// Conventional simulates the conventional interleaved baseline.
	Conventional = memory.Conventional
)

// NewConventional builds the conventional interleaved baseline simulator.
func NewConventional(cfg ConventionalConfig) *Conventional {
	return memory.NewConventional(cfg)
}

// The CFM core (Chapter 3).
type (
	// Config is a CFM configuration (Table 3.2 parameters).
	Config = core.Config
	// ATSpace is the mutually exclusive address-time partitioning.
	ATSpace = core.ATSpace
	// Memory is the conflict-free memory simulator.
	Memory = core.CFMemory
	// ClusterSystem is the multi-cluster extension of Fig. 3.12.
	ClusterSystem = core.ClusterSystem
	// PartialConfig parameterizes a partially conflict-free system.
	PartialConfig = core.PartialConfig
	// Partial simulates a partially conflict-free system (§3.2.2).
	Partial = core.Partial
	// TradeoffRow is one row of the Table 3.3 configuration study.
	TradeoffRow = core.TradeoffRow
	// SharedConfig parameterizes the §7.2 slot-sharing extension.
	SharedConfig = core.SharedConfig
	// Topology is an inter-cluster interconnection (§3.3).
	Topology = core.Topology
	// Job is a schedulable process with a data-affinity module (§7.2).
	Job = core.Job
	// ProcPlacement maps processors to job home modules.
	ProcPlacement = core.Placement
)

// Inter-cluster topologies (§3.3).
type (
	// FullyConnected links every cluster pair directly.
	FullyConnected = core.FullyConnected
	// RingTopology links clusters in a cycle.
	RingTopology = core.Ring
	// Mesh2D arranges clusters in a grid with Manhattan routing.
	Mesh2D = core.Mesh2D
	// Hypercube links 2^dim clusters along dimension edges.
	Hypercube = core.Hypercube
)

// NewShared builds the slot-sharing simulator: the conventional model
// with each processor's module fixed to its AT-space division. Read
// Utilization and Throughput against the engine's Now() after the run.
func NewShared(cfg SharedConfig) *Conventional { return core.NewShared(cfg) }

// AllocateAffine places jobs on processors in their home clusters.
func AllocateAffine(cfg PartialConfig, jobs []Job) (ProcPlacement, error) {
	return core.AllocateAffine(cfg, jobs)
}

// AllocateScatter places jobs round-robin, ignoring affinity.
func AllocateScatter(cfg PartialConfig, jobs []Job) (ProcPlacement, error) {
	return core.AllocateScatter(cfg, jobs)
}

// AllocateRandom places jobs on uniformly random free processors.
func AllocateRandom(cfg PartialConfig, jobs []Job, rng *RNG) (ProcPlacement, error) {
	return core.AllocateRandom(cfg, jobs, rng)
}

// NewMemory builds a conflict-free memory for a configuration.
func NewMemory(cfg Config, trace *Trace) *Memory { return core.NewCFMemory(cfg, trace) }

// NewATSpace builds the AT-space partitioning for a configuration.
func NewATSpace(cfg Config) *ATSpace { return core.NewATSpace(cfg) }

// NewPartial builds a partially conflict-free system simulator.
func NewPartial(cfg PartialConfig) *Partial { return core.NewPartial(cfg) }

// NewClusterSystem builds the multi-cluster extension of Fig. 3.12.
func NewClusterSystem(cfg Config, clusters, localProcs, linkDelay int) *ClusterSystem {
	return core.NewClusterSystem(cfg, clusters, localProcs, linkDelay)
}

// Tradeoff enumerates CFM configurations for a block size and bank cycle
// (Table 3.3 is Tradeoff(256, 2)).
func Tradeoff(blockBits, bankCycle int) []TradeoffRow { return core.Tradeoff(blockBits, bankCycle) }

// Interconnection networks (§3.2).
type (
	// SyncSwitch is the clock-driven n×n switch box of Fig. 3.4.
	SyncSwitch = network.SyncSwitch
	// Omega is the omega network topology and router.
	Omega = network.Omega
	// SyncOmega is the synchronous omega network of §3.2.1.
	SyncOmega = network.SyncOmega
	// PartialOmega is the partially synchronous omega of §3.2.2.
	PartialOmega = network.PartialOmega
	// BufferedConfig parameterizes the buffered MIN of Fig. 2.1.
	BufferedConfig = network.BufferedConfig
	// BufferedOmega is the packet-switched MIN exhibiting tree saturation.
	BufferedOmega = network.BufferedOmega
	// SwitchState is a 2×2 switch state (straight/interchange).
	SwitchState = network.SwitchState
)

// NewSyncSwitch builds an n×n synchronous switch box.
func NewSyncSwitch(n int) *SyncSwitch { return network.NewSyncSwitch(n) }

// NewSyncOmega builds an N×N synchronous omega network.
func NewSyncOmega(n int) (*SyncOmega, error) { return network.NewSyncOmega(n) }

// NewPartialOmega builds a partially synchronous omega network.
func NewPartialOmega(n, circuitColumns int) (*PartialOmega, error) {
	return network.NewPartialOmega(n, circuitColumns)
}

// NewBufferedOmega builds the buffered MIN simulator.
func NewBufferedOmega(cfg BufferedConfig) *BufferedOmega { return network.NewBufferedOmega(cfg) }

// Address tracking and atomic operations (Chapter 4).
type (
	// Tracked is a conflict-free memory with address tracking tables.
	Tracked = att.Tracked
	// TrackedResult is a tracked operation's completion report.
	TrackedResult = att.Result
	// ATTLocker implements §4.2.2 busy-waiting locks over swap.
	ATTLocker = att.Locker
	// TrackingPriority selects latest-wins or earliest-wins arbitration.
	TrackingPriority = att.Priority
)

// Tracking priorities.
const (
	// LatestWins is the plain data-consistency mode (§4.1.2).
	LatestWins = att.LatestWins
	// EarliestWins is the atomic-operation mode (§4.2.1).
	EarliestWins = att.EarliestWins
)

// NewTracked builds an address-tracked conflict-free memory of m banks.
func NewTracked(m int, pri TrackingPriority, trace *Trace) *Tracked {
	return att.NewTracked(m, pri, trace)
}

// NewATTLocker builds a swap-based spin lock manager.
func NewATTLocker(tr *Tracked, offset int) *ATTLocker { return att.NewLocker(tr, offset) }

// Cache coherence and synchronization (Chapter 5).
type (
	// CacheConfig parameterizes the CFM cache coherence protocol.
	CacheConfig = cache.Config
	// CacheProtocol is the invalidation-based write-back protocol engine.
	CacheProtocol = cache.Protocol
	// LineState is a cache line state (invalid/valid/dirty).
	LineState = cache.LineState
	// Locker is the §5.3.2 lock/unlock over the cache protocol.
	Locker = syncprim.Locker
	// MultiLocker is the §5.3.3 atomic multiple lock/unlock.
	MultiLocker = syncprim.MultiLocker
	// LockPattern is a multiple-lock bit map (Fig. 5.5).
	LockPattern = syncprim.Pattern
	// Barrier is a sense-reversing barrier over the cache protocol.
	Barrier = syncprim.Barrier
	// HierConfig parameterizes the hierarchical CFM of §5.4.
	HierConfig = hier.Config
	// HierSystem is the two-level hierarchical CFM protocol engine.
	HierSystem = hier.System
	// LatencyModel gives the Table 5.5/5.6 read latencies.
	LatencyModel = hier.LatencyModel
	// ComparisonRow is one row of Table 5.5/5.6.
	ComparisonRow = hier.ComparisonRow
	// Frontend is a processor issue engine enforcing a §2.2 memory
	// ordering over the cache protocol.
	Frontend = cache.Frontend
	// FrontendGroup bundles per-processor front-ends into one Shardable.
	FrontendGroup = cache.FrontendGroup
	// Ordering selects the front-end's discipline (SC/PC/WC).
	Ordering = cache.Ordering
)

// Memory ordering disciplines.
const (
	StrictOrder   = cache.StrictOrder
	BufferedOrder = cache.BufferedOrder
	WeakOrder     = cache.WeakOrder
	ReleaseOrder  = cache.ReleaseOrder
)

// NewFrontend attaches an ordering front-end for one processor. clk may
// be a serial or parallel engine (anything with Now). A front-end is
// ticked only through a FrontendGroup (see NewFrontendGroup).
func NewFrontend(c *CacheProtocol, clk Timebase, proc int, mode Ordering) *Frontend {
	return cache.NewFrontend(c, clk, proc, mode)
}

// NewFrontendGroup bundles per-processor front-ends into one Shardable
// so the parallel engine can tick them concurrently. Register the group
// BEFORE the protocol; a lone front-end is a group of one.
func NewFrontendGroup(fes ...*Frontend) *FrontendGroup { return cache.NewFrontendGroup(fes...) }

// FrontendExecution assembles recorded operations for consistency checks.
func FrontendExecution(fes ...*Frontend) *Execution { return cache.Execution(fes...) }

// Cache line states.
const (
	Invalid = cache.Invalid
	Valid   = cache.Valid
	Dirty   = cache.Dirty
)

// NewCacheProtocol builds the cache coherence engine.
func NewCacheProtocol(cfg CacheConfig, trace *Trace) *CacheProtocol { return cache.New(cfg, trace) }

// NewLocker builds a cache-protocol spin lock on the block at offset.
func NewLocker(c *CacheProtocol, offset int) *Locker { return syncprim.NewLocker(c, offset) }

// NewMultiLocker builds an atomic multiple lock/unlock manager.
func NewMultiLocker(c *CacheProtocol, offset int) *MultiLocker {
	return syncprim.NewMultiLocker(c, offset)
}

// NewBarrier builds a barrier for parties processors on the block at
// offset.
func NewBarrier(c *CacheProtocol, offset, parties int) *Barrier {
	return syncprim.NewBarrier(c, offset, parties)
}

// NewHierSystem builds the two-level hierarchical CFM.
func NewHierSystem(cfg HierConfig, trace *Trace) *HierSystem { return hier.NewSystem(cfg, trace) }

// NewLatencyModel derives the hierarchical read-latency model.
func NewLatencyModel(procsPerCluster, bankCycle int) LatencyModel {
	return hier.NewLatencyModel(procsPerCluster, bankCycle)
}

// Table55 reproduces Table 5.5 (CFM vs DASH read latency).
func Table55() []ComparisonRow { return hier.Table55() }

// Table56 reproduces Table 5.6 (CFM vs KSR1 read latency).
func Table56() []ComparisonRow { return hier.Table56() }

// Resource binding (Chapter 6).
type (
	// Binder is the shared-memory resource binding runtime.
	Binder = binding.Binder
	// BindingServer is the distributed (message-passing) runtime.
	BindingServer = binding.Server
	// Region is a shared data region.
	Region = binding.Region
	// Dim is one strided dimension of a region.
	Dim = binding.Dim
	// BindAccess is a binding access type (RO/RW/EX).
	BindAccess = binding.Access
	// Proc is the virtual-processor object for process binding.
	Proc = binding.Proc
)

// Binding access types.
const (
	RO = binding.RO
	RW = binding.RW
	EX = binding.EX
)

// NewBinder returns the shared-memory binding runtime.
func NewBinder() *Binder { return binding.NewBinder() }

// NewBindingServer starts the distributed binding daemon.
func NewBindingServer() *BindingServer { return binding.NewServer() }

// NewRegion builds a region over the named target.
func NewRegion(target string, dims ...Dim) Region { return binding.R(target, dims...) }

// SpawnProcs runs n process-binding bodies (the dissertation's bfork).
func SpawnProcs(n int, body func(i int, procs []*Proc)) *binding.Group {
	return binding.Spawn(n, body)
}

// Analytic models (§3.4).
type (
	// ConventionalModel is the §3.4.1 efficiency model.
	ConventionalModel = analytic.ConventionalModel
	// PartialModel is the §3.4.2 efficiency model.
	PartialModel = analytic.PartialModel
	// Series is a named efficiency curve.
	Series = analytic.Series
)

// Fig313 generates the curves of Fig. 3.13.
func Fig313(steps int) []Series { return analytic.Fig313(steps) }

// Fig314 generates the curves of Fig. 3.14.
func Fig314(steps int) []Series { return analytic.Fig314(steps) }

// Fig315 generates the curves of Fig. 3.15.
func Fig315(steps int) []Series { return analytic.Fig315(steps) }

// Consistency models (Chapter 2).
type (
	// ConsistencyModel selects SC/PC/WC/RC.
	ConsistencyModel = consistency.Model
	// Execution is a set of performed memory operations.
	Execution = consistency.Execution
	// MemOp is one operation of an execution.
	MemOp = consistency.Op
)

// Consistency models.
const (
	SequentialConsistency = consistency.Sequential
	ProcessorConsistency  = consistency.Processor
	WeakConsistency       = consistency.Weak
	ReleaseConsistency    = consistency.Release
)

// CheckConsistency verifies an execution against a model.
func CheckConsistency(m ConsistencyModel, e *Execution) error { return consistency.Check(m, e) }

// Workloads.
type (
	// WorkloadGenerator produces synthetic access streams.
	WorkloadGenerator = workload.Generator
	// HintedWorkload is a generator that can bound its next event for
	// skip-ahead drivers.
	HintedWorkload = workload.Hinted
	// BernoulliWorkload is the rate-r access process of the evaluation.
	BernoulliWorkload = workload.Bernoulli
	// GappedWorkload issues accesses separated by event-time gap draws,
	// so quiescent stretches are skip-safe.
	GappedWorkload = workload.Gapped
	// DutyCycleWorkload gates an inner generator with a periodic on/off
	// envelope (bursty traffic).
	DutyCycleWorkload = workload.DutyCycle
)

// NewGappedWorkload builds the inter-arrival-gap generator: each
// processor issues, then sleeps a uniform [minGap, maxGap] gap drawn at
// issue time.
func NewGappedWorkload(procs, minGap, maxGap int, storeFraction float64, seed uint64, sel func(p int, rng *RNG) int) *GappedWorkload {
	return workload.NewGapped(procs, minGap, maxGap, storeFraction, seed, sel)
}

// NewDutyCycleWorkload wraps a generator so it is active only during the
// first `active` slots of every `period`.
func NewDutyCycleWorkload(inner WorkloadGenerator, period, active int) *DutyCycleWorkload {
	return workload.NewDutyCycle(inner, period, active)
}

// NewBernoulliWorkload builds the rate-r generator with a target selector.
func NewBernoulliWorkload(procs int, rate, storeFraction float64, seed uint64, sel func(p int, rng *RNG) int) *BernoulliWorkload {
	return workload.NewBernoulli(procs, rate, storeFraction, seed, sel)
}

// UniformTargets selects modules uniformly.
func UniformTargets(modules int) func(int, *RNG) int { return workload.Uniform(modules) }

// HotSpotTargets sends fraction hot of the traffic to one module.
func HotSpotTargets(modules, hotModule int, hot float64) func(int, *RNG) int {
	return workload.HotSpot(modules, hotModule, hot)
}

// Linda (the §6.1.3 comparison baseline).
type (
	// TupleSpace is a Linda tuple space.
	TupleSpace = linda.Space
	// Tuple is an ordered collection of data items.
	Tuple = linda.Tuple
)

// WildValue matches any value in a Linda pattern position.
var WildValue = linda.W

// NewTupleSpace returns an empty tuple space.
func NewTupleSpace() *TupleSpace { return linda.NewSpace() }
