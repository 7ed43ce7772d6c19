// Package lint hosts cfmlint, a pure-stdlib static analyzer suite that
// machine-checks the invariants the simulator otherwise enforces only by
// convention and after-the-fact differential testing:
//
//   - determinism: no wall-clock reads, no global math/rand state, no
//     goroutine or select creation outside the engine package, and no
//     unsorted map iteration in digest/snapshot/exposition functions.
//   - rng-discipline: every type holding a *sim.RNG declares whether it
//     draws at event time or per slot (//cfm:rng=event|slot), and
//     slot-discipline types pin their Horizon to now.
//   - phasemask: a PhaseMask() literal must agree with
//     the sim.Phase cases its Tick/TickShard/FinishShards dispatch on.
//   - hotpath-alloc: no fmt.Sprint*, string concatenation, closure
//     literals, or uncapped appends in the Tick call graphs of packages
//     guarded by testing.AllocsPerRun tests.
//   - metric-names: metric name literals handed to the metrics registry
//     are Prometheus-valid, kind-consistent, and registered once.
//   - stater: a ticker owning mutable simulation state (an RNG, a
//     sim.Queue, or container fields) implements sim.Stater so engine
//     checkpoints capture it, or opts out with //cfm:no-stater <reason>.
//   - flight: flight-recorder emissions in instrumented packages sit
//     under an Enabled() guard (the disabled path is zero-alloc), and a
//     package emitting an opening stage also emits StageRetire.
//   - structlayout: a //cfm:cacheline struct (per-worker barrier nodes
//     laid out side by side in a slice) sizes to a nonzero multiple of
//     64 bytes on gc/amd64, so adjacent workers' spin flags never share
//     a cache line.
//   - soalayout: a //cfm:soa arena struct (flat parallel arrays swept by
//     compiled dense tick loops) keeps pointer-free slice elements and
//     no maps, so the hot sweep never chases per-element heap pointers;
//     cold fields opt out with //cfm:soa-ok <reason>.
//   - shardpure: the interprocedural call graph under every TickShard
//     writes only shard-owned state — storage reached through the shard
//     index or values read out of it — and never sends on channels,
//     launches goroutines, or takes locks; single-writer exceptions
//     carry //cfm:shard-ok <reason>.
//   - statecover: every persistent field of a sim.Stater (one the tick
//     graph may write) is encoded in SaveState and restored in
//     LoadState in matching order and wire types, rebuilt by LoadState
//     under a //cfm:rebuilt marker, or waived //cfm:no-save <reason>;
//     stale markers are findings too.
//
// The suite is built on go/ast + go/types only (no x/tools), so it runs
// anywhere the repo builds: `go run ./cmd/cfmlint ./...`. The last two
// passes are interprocedural: callgraph.go resolves module-internal
// calls to their declarations and effects.go summarizes per-function
// write effects, so a violation three calls below TickShard is still
// attributed to the root that reaches it.
//
// # Annotations
//
// cfmlint reads machine-readable `//cfm:` directives:
//
//	//cfm:rng=event          type draws at event time; real horizons OK
//	//cfm:rng=slot           type draws every live slot; Horizon pins now
//	//cfm:concurrency-ok R   file hosts sanctioned goroutines/selects
//	//cfm:wallclock-ok R     wall-clock read is not simulation state
//	//cfm:alloc-ok R         allocation is cold or amortized (same line)
//	//cfm:unsorted-ok R      map order provably cannot reach output
//	//cfm:shared-metric R    several sites intentionally share one metric
//	//cfm:no-stater R        ticker is deliberately not checkpointable
//	//cfm:flight-ok R        flight emission intentionally unguarded
//	//cfm:cacheline          struct must fill whole 64-byte cache lines
//	//cfm:soa                struct is a flat struct-of-arrays arena
//	//cfm:soa-ok R           arena field deliberately off the hot sweep
//	//cfm:shard-ok R         cross-shard write is provably single-writer
//	//cfm:no-save R          field is scratch a checkpoint may drop
//	//cfm:rebuilt            field is derived; LoadState reconstructs it
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Position
	Pass    string
	Message string
}

// String renders the diagnostic in the usual file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Pass, d.Message)
}

// Reporter collects diagnostics during a run.
type Reporter struct {
	fset  *token.FileSet
	diags []Diagnostic
}

// NewReporter returns a reporter resolving positions against fset.
func NewReporter(fset *token.FileSet) *Reporter { return &Reporter{fset: fset} }

// Reportf records a finding for pass at pos.
func (r *Reporter) Reportf(pass string, pos token.Pos, format string, args ...any) {
	r.diags = append(r.diags, Diagnostic{
		Pos:     r.fset.Position(pos),
		Pass:    pass,
		Message: fmt.Sprintf(format, args...),
	})
}

// Diagnostics returns the findings sorted by position (file, line, col),
// so output order is independent of pass and package traversal order.
func (r *Reporter) Diagnostics() []Diagnostic {
	sort.SliceStable(r.diags, func(i, j int) bool {
		a, b := r.diags[i].Pos, r.diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return r.diags
}

// Pass is one analyzer. Run is called once per target package; a pass
// that accumulates cross-package state (metric-names) keeps it between
// calls and relies on the driver's deterministic target order.
type Pass struct {
	Name string
	Doc  string
	Run  func(t *Target, r *Reporter)
}

// Passes returns a fresh instance of the full suite, in fixed order.
// Fresh instances matter: stateful passes must not leak between runs.
func Passes() []*Pass {
	return []*Pass{
		DeterminismPass(),
		RNGDisciplinePass(),
		PhaseMaskPass(),
		HotPathAllocPass(),
		MetricNamesPass(),
		StaterPass(),
		FlightPass(),
		StructLayoutPass(),
		SoALayoutPass(),
		ShardPurePass(),
		StateCoverPass(),
	}
}

// PassNames lists the suite's pass names in order.
func PassNames() []string {
	var names []string
	for _, p := range Passes() {
		names = append(names, p.Name)
	}
	return names
}

// simPkgPath is the engine package: the one sanctioned host of
// goroutines and selects, and the definer of RNG/Phase/Slot.
const simPkgPath = "cfm/internal/sim"
