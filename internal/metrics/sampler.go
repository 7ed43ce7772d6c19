package metrics

import (
	"cfm/internal/sim"
)

// SamplerPrio is the registration priority Attach uses. It is far above
// any component band, so within PhaseUpdate the sampler ticks after all
// simulation work of the slot has settled at every worker count, since
// the engine never merges shard work across priority bands.
const SamplerPrio = 1 << 20

// Sample is one time-series point: every counter and gauge value at the
// end of a slot. A map keeps the JSON encoding byte-stable (encoding/json
// sorts map keys).
type Sample struct {
	Slot   int64            `json:"slot"`
	Values map[string]int64 `json:"values"`
}

// Sampler records registry snapshots every N slots, forming the
// slot-sampled time series behind the JSONL export and the ASCII views.
// It is a serial Ticker (single-threaded at every worker count), so
// sampling never perturbs determinism.
type Sampler struct {
	reg     *Registry
	every   sim.Slot
	Samples []Sample
}

// NewSampler returns a sampler reading reg every `every` slots
// (minimum 1). Register it with Attach, not Engine.Register, so it runs
// after all instrumented components.
func NewSampler(reg *Registry, every int64) *Sampler {
	if every < 1 {
		every = 1
	}
	return &Sampler{reg: reg, every: sim.Slot(every)}
}

// Attach registers s on eng at SamplerPrio.
func (s *Sampler) Attach(eng sim.Engine) { eng.RegisterPrio(s, SamplerPrio) }

// Every returns the sampling period in slots.
func (s *Sampler) Every() int64 { return int64(s.every) }

// PhaseMask implements sim.PhaseMasker: the sampler is PhaseUpdate-only,
// so the engine drops it from the other phases' schedules.
func (s *Sampler) PhaseMask() sim.PhaseMask { return sim.MaskOf(sim.PhaseUpdate) }

// Tick implements sim.Ticker: at the end of every Nth slot it copies all
// counter and gauge values into a new Sample.
func (s *Sampler) Tick(t sim.Slot, ph sim.Phase) {
	if ph != sim.PhaseUpdate || t%s.every != 0 {
		return
	}
	snap := s.reg.Snapshot()
	vals := make(map[string]int64, len(snap.Counters)+len(snap.Gauges))
	for _, nv := range snap.Counters {
		vals[nv.Name] = nv.Value
	}
	for _, nv := range snap.Gauges {
		vals[nv.Name] = nv.Value
	}
	s.Samples = append(s.Samples, Sample{Slot: int64(t), Values: vals})
}

// Horizon implements sim.Horizoner: the next sampling slot. Samples are
// observable output, so a skip-ahead engine must still fire every Nth
// slot — the sample there reads registry values that are identical to a
// dense run's, because every slot at which any component could change a
// counter is itself pinned by that component's horizon.
func (s *Sampler) Horizon(now sim.Slot) sim.Slot {
	if now%s.every == 0 {
		return now
	}
	return now + (s.every - now%s.every)
}

// Series extracts one metric's time series as parallel slot/value
// slices, for feeding stats.Plot or the heatmap views. Metrics absent
// from a sample (not yet registered at that slot) read as 0.
func (s *Sampler) Series(name string) (slots, values []int64) {
	for _, sm := range s.Samples {
		slots = append(slots, sm.Slot)
		values = append(values, sm.Values[name])
	}
	return slots, values
}
