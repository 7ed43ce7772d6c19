//cfm:wallclock-ok benchmark harness: host time is the measured quantity and never reaches simulation state

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cfm/internal/att"
	"cfm/internal/cache"
	"cfm/internal/core"
	"cfm/internal/metrics"
	"cfm/internal/network"
	"cfm/internal/sim"
)

// This file is the -trace instrumentation. Components are registered
// through thin embedding wrappers that time every call the engine makes
// into them — Tick, TickShard, FinishShards, FinishEpoch, Horizon — and
// promote every other method unchanged, so the engine compiles the same
// plan and the checkpoint (which records no component types) is
// byte-identical to an untraced run's. The timing lives outside the
// program: a component's own internal calls (Partial.Tick folding its
// shards, CFMemory.Tick running SerialTick) are inside the one timed call.

// call is the kind of engine → component call a span records.
type call uint8

const (
	callTick call = iota
	callShard
	callFold // FinishShards and FinishEpoch
	callHorizon
	numCalls
)

var callNames = [numCalls]string{"Tick", "TickShard", "Fold", "Horizon"}

// span is one timed call, kept for the Chrome trace of the last traced
// iteration.
type span struct {
	name     string
	start    time.Duration // since the tracer's origin
	dur      time.Duration
	category string
}

// layer accumulates the host time of one wrapped component.
type layer struct {
	name string
	tr   *tracer
	// ns[k] is the total time in calls of kind k made from serial context
	// (the serial engine, or worker 0 of the parallel one).
	ns [numCalls]int64
	// shardNS[s] is the time in TickShard(s). The parallel engine runs
	// distinct shards concurrently, so each shard owns its own slot.
	shardNS []int64
	// spans[0] holds serial-context spans, spans[1+s] shard s's.
	spans [][]span
}

func (l *layer) done(k call, t0 time.Time) {
	d := time.Since(t0)
	l.ns[k] += int64(d)
	l.spans[0] = append(l.spans[0], span{callNames[k], t0.Sub(l.tr.origin), d, l.name})
}

func (l *layer) doneShard(s int, t0 time.Time) {
	d := time.Since(t0)
	l.shardNS[s] += int64(d)
	l.spans[1+s] = append(l.spans[1+s], span{callNames[callShard], t0.Sub(l.tr.origin), d, l.name})
}

// total is every call's time, summed over shards.
func (l *layer) total() int64 {
	var t int64
	for _, v := range l.ns {
		t += v
	}
	for _, v := range l.shardNS {
		t += v
	}
	return t
}

// tracer owns the layers of one traced rig plus the bench-side spans
// (Run, Restore, Checkpoint) of the current iteration.
type tracer struct {
	origin time.Time
	layers []*layer
	bench  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// wrap returns t wrapped for timing under the layer name, or t itself on
// an untraced (nil) tracer. Each wrapper overrides exactly the engine
// calls its component implements, so the wrapped value satisfies the same
// optional sim interfaces as the component (a test pins this).
func (tr *tracer) wrap(name string, t sim.Ticker) sim.Ticker {
	if tr == nil {
		return t
	}
	shards := 0
	if s, ok := t.(sim.Shardable); ok {
		shards = s.Shards()
	}
	l := &layer{name: name, tr: tr, shardNS: make([]int64, shards), spans: make([][]span, 1+shards)}
	tr.layers = append(tr.layers, l)
	switch c := t.(type) {
	case *core.Partial:
		return &timedPartial{c, l}
	case *core.CFMemory:
		return &timedCFMemory{c, l}
	case *network.BufferedOmega:
		return &timedOmega{c, l}
	case *cache.Protocol:
		return &timedProtocol{c, l}
	case *att.Tracked:
		return &timedTracked{c, l}
	case *metrics.Sampler:
		return &timedSampler{c, l}
	case *sim.FuncTicker:
		return &timedFunc{c, l}
	}
	panic(fmt.Sprintf("cfmbench: no timing wrapper for %T", t))
}

// layer returns the named layer, or nil.
func (tr *tracer) layer(name string) *layer {
	for _, l := range tr.layers {
		if l.name == name {
			return l
		}
	}
	return nil
}

// benchSpan records a bench-side span on a traced run (nil-safe).
func (tr *tracer) benchSpan(name string, t0 time.Time, d time.Duration) {
	if tr != nil {
		tr.bench = append(tr.bench, span{name, t0.Sub(tr.origin), d, "engine"})
	}
}

// resetSpans starts a new iteration's span record.
func (tr *tracer) resetSpans() {
	tr.bench = tr.bench[:0]
	for _, l := range tr.layers {
		for i := range l.spans {
			l.spans[i] = l.spans[i][:0]
		}
	}
}

// chromeEvent is one Chrome trace-event ("X" complete events plus the
// thread-name metadata), loadable in Perfetto or chrome://tracing.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeChrome writes the spans of the last iteration to path. Thread 0 is
// the engine's serial context; thread 1+s is shard s of a sharded layer.
func (tr *tracer) writeChrome(path string) error {
	var evs []chromeEvent
	add := func(tid int, ss []span) {
		for _, s := range ss {
			evs = append(evs, chromeEvent{Name: s.name, Cat: s.category, Ph: "X",
				TS: float64(s.start) / 1e3, Dur: float64(s.dur) / 1e3, PID: 1, TID: tid})
		}
	}
	evs = append(evs, chromeEvent{Name: "thread_name", Ph: "M", PID: 1, TID: 0, Args: map[string]string{"name": "serial"}})
	add(0, tr.bench)
	maxShards := 0
	for _, l := range tr.layers {
		add(0, l.spans[0])
		for s := 1; s < len(l.spans); s++ {
			add(s, l.spans[s])
		}
		maxShards = max(maxShards, len(l.shardNS))
	}
	for s := 0; s < maxShards; s++ {
		evs = append(evs, chromeEvent{Name: "thread_name", Ph: "M", PID: 1, TID: 1 + s,
			Args: map[string]string{"name": fmt.Sprintf("shard %d", s)}})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// The wrappers. Each embeds its component and adds only the timing layer.

type timedPartial struct {
	*core.Partial
	l *layer //cfm:no-save host-time accounting of the benchmark, not simulation state
}

func (w *timedPartial) Tick(t sim.Slot, ph sim.Phase) {
	t0 := time.Now()
	w.Partial.Tick(t, ph)
	w.l.done(callTick, t0)
}

func (w *timedPartial) TickShard(t sim.Slot, ph sim.Phase, s int) {
	t0 := time.Now()
	w.Partial.TickShard(t, ph, s)
	w.l.doneShard(s, t0)
}

func (w *timedPartial) FinishShards(t sim.Slot, ph sim.Phase) {
	t0 := time.Now()
	w.Partial.FinishShards(t, ph)
	w.l.done(callFold, t0)
}

func (w *timedPartial) FinishEpoch(from, to sim.Slot) {
	t0 := time.Now()
	w.Partial.FinishEpoch(from, to)
	w.l.done(callFold, t0)
}

func (w *timedPartial) Horizon(now sim.Slot) sim.Slot {
	t0 := time.Now()
	h := w.Partial.Horizon(now)
	w.l.done(callHorizon, t0)
	return h
}

type timedCFMemory struct {
	*core.CFMemory
	l *layer //cfm:no-save host-time accounting of the benchmark, not simulation state
}

func (w *timedCFMemory) Tick(t sim.Slot, ph sim.Phase) {
	t0 := time.Now()
	w.CFMemory.Tick(t, ph)
	w.l.done(callTick, t0)
}

func (w *timedCFMemory) TickShard(t sim.Slot, ph sim.Phase, s int) {
	t0 := time.Now()
	w.CFMemory.TickShard(t, ph, s)
	w.l.doneShard(s, t0)
}

func (w *timedCFMemory) FinishShards(t sim.Slot, ph sim.Phase) {
	t0 := time.Now()
	w.CFMemory.FinishShards(t, ph)
	w.l.done(callFold, t0)
}

func (w *timedCFMemory) FinishEpoch(from, to sim.Slot) {
	t0 := time.Now()
	w.CFMemory.FinishEpoch(from, to)
	w.l.done(callFold, t0)
}

func (w *timedCFMemory) Horizon(now sim.Slot) sim.Slot {
	t0 := time.Now()
	h := w.CFMemory.Horizon(now)
	w.l.done(callHorizon, t0)
	return h
}

type timedOmega struct {
	*network.BufferedOmega
	l *layer //cfm:no-save host-time accounting of the benchmark, not simulation state
}

func (w *timedOmega) Tick(t sim.Slot, ph sim.Phase) {
	t0 := time.Now()
	w.BufferedOmega.Tick(t, ph)
	w.l.done(callTick, t0)
}

func (w *timedOmega) TickShard(t sim.Slot, ph sim.Phase, s int) {
	t0 := time.Now()
	w.BufferedOmega.TickShard(t, ph, s)
	w.l.doneShard(s, t0)
}

func (w *timedOmega) FinishShards(t sim.Slot, ph sim.Phase) {
	t0 := time.Now()
	w.BufferedOmega.FinishShards(t, ph)
	w.l.done(callFold, t0)
}

func (w *timedOmega) Horizon(now sim.Slot) sim.Slot {
	t0 := time.Now()
	h := w.BufferedOmega.Horizon(now)
	w.l.done(callHorizon, t0)
	return h
}

type timedProtocol struct {
	*cache.Protocol
	l *layer //cfm:no-save host-time accounting of the benchmark, not simulation state
}

func (w *timedProtocol) Tick(t sim.Slot, ph sim.Phase) {
	t0 := time.Now()
	w.Protocol.Tick(t, ph)
	w.l.done(callTick, t0)
}

func (w *timedProtocol) Horizon(now sim.Slot) sim.Slot {
	t0 := time.Now()
	h := w.Protocol.Horizon(now)
	w.l.done(callHorizon, t0)
	return h
}

type timedTracked struct {
	*att.Tracked
	l *layer //cfm:no-save host-time accounting of the benchmark, not simulation state
}

func (w *timedTracked) Tick(t sim.Slot, ph sim.Phase) {
	t0 := time.Now()
	w.Tracked.Tick(t, ph)
	w.l.done(callTick, t0)
}

func (w *timedTracked) Horizon(now sim.Slot) sim.Slot {
	t0 := time.Now()
	h := w.Tracked.Horizon(now)
	w.l.done(callHorizon, t0)
	return h
}

type timedSampler struct {
	*metrics.Sampler
	l *layer //cfm:no-save host-time accounting of the benchmark, not simulation state
}

func (w *timedSampler) Tick(t sim.Slot, ph sim.Phase) {
	t0 := time.Now()
	w.Sampler.Tick(t, ph)
	w.l.done(callTick, t0)
}

func (w *timedSampler) Horizon(now sim.Slot) sim.Slot {
	t0 := time.Now()
	h := w.Sampler.Horizon(now)
	w.l.done(callHorizon, t0)
	return h
}

type timedFunc struct {
	*sim.FuncTicker
	l *layer //cfm:no-save host-time accounting of the benchmark, not simulation state
}

func (w *timedFunc) Tick(t sim.Slot, ph sim.Phase) {
	t0 := time.Now()
	w.FuncTicker.Tick(t, ph)
	w.l.done(callTick, t0)
}

func (w *timedFunc) Horizon(now sim.Slot) sim.Slot {
	t0 := time.Now()
	h := w.FuncTicker.Horizon(now)
	w.l.done(callHorizon, t0)
	return h
}
