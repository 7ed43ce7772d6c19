// Package flight implements the simulator's flight recorder: a
// deterministic, bounded, per-access span log. Every memory access gets
// a stable identity at issue time (ComposeID) and emits stage events —
// issue, network inject, per-column hop, bank enqueue, bank service,
// reply, retire, plus cache-hit/miss and ATT defer/retry variants — into
// a ring buffer shared by all instrumented components.
//
// The recorder follows the repo's observation doctrine end to end:
//
//   - A nil *Recorder is valid and records nothing; Enabled() is the
//     branch-cheap gate components test before building events, so the
//     disabled path stays zero-alloc (pinned by AllocsPerRun guards).
//   - Events reach the ring only from serial contexts: serial tickers
//     append directly, sharded tickers stage events per shard and fold
//     them in FinishShards in ascending shard order — the same
//     barrier-ordered control path as trace events and metric deltas.
//     The stream is therefore byte-identical between the serial and
//     parallel engines.
//   - Emission only ever happens inside the tick of a fired slot, and
//     skipped slots are provably observable no-ops, so the stream is
//     also identical between dense and skip-ahead clocks.
//
// On top of the raw ring: span assembly and latency attribution
// (attrib.go), Chrome-trace/JSONL exporters and the ASCII waterfall
// (export.go), a binary codec (encode.go), and the checkpoint-driven
// divergence bisector (bisect.go).
package flight

import (
	"fmt"

	"cfm/internal/sim"
)

// Stage identifies one step in an access's lifecycle.
type Stage uint8

// The span stages, in rough lifecycle order. StageIssue opens a span
// and StageRetire closes it (the cfmlint flight pass holds packages to
// that discipline); the others are interior and may repeat.
const (
	// StageIssue: the access was issued by its processor.
	StageIssue Stage = iota
	// StageNetInject: a packet entered the interconnection network.
	StageNetInject
	// StageHop: a packet advanced one network column.
	StageHop
	// StageBankEnqueue: the access found its module busy and queued
	// (or scheduled a retry); Arg carries the wait when known.
	StageBankEnqueue
	// StageBankService: a bank (or module) began serving the access;
	// Arg carries the service time in slots when known.
	StageBankService
	// StageReply: the reply started back toward the processor.
	StageReply
	// StageRetire: the access completed; Arg carries the end-to-end
	// latency in slots when known.
	StageRetire
	// StageCacheHit: the access was satisfied by a cache.
	StageCacheHit
	// StageCacheMiss: the access missed and goes to memory.
	StageCacheMiss
	// StageATTDefer: an address-tracking comparison deferred the
	// operation (write restarting behind a swap).
	StageATTDefer
	// StageATTRetry: an address-tracking comparison restarted the
	// operation from scratch (read or swap restart).
	StageATTRetry

	numStages
)

var stageNames = [numStages]string{
	"issue", "net-inject", "hop", "bank-enqueue", "bank-service",
	"reply", "retire", "cache-hit", "cache-miss", "att-defer", "att-retry",
}

// String names the stage.
func (s Stage) String() string {
	if s < numStages {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// Stages returns the number of defined stages (for validation).
func Stages() int { return int(numStages) }

// Event is one recorded stage of one access.
type Event struct {
	// ID is the access's stable identity, assigned at issue time
	// (ComposeID of the issuing actor and issue slot).
	ID uint64
	// Slot is when the stage happened.
	Slot sim.Slot
	// Stage is what happened.
	Stage Stage
	// Actor is the component instance that emitted the event: a
	// processor, bank, module, network column, or terminal index,
	// depending on the stage.
	Actor int32
	// Arg is stage-specific payload: block offset, queue wait,
	// service time, latency; 0 when the stage carries none.
	Arg int64
}

// String renders the event for logs and the waterfall view.
func (e Event) String() string {
	return fmt.Sprintf("[%d] %016x %s actor=%d arg=%d", e.Slot, e.ID, e.Stage, e.Actor, e.Arg)
}

// ComposeID builds an access identity from the issuing actor and the
// issue slot. Every instrumented component issues at most one access
// per actor per slot, so the pair is unique for the life of a run
// without any cross-shard coordination — the ID can be composed inside
// a shard tick without breaking determinism. The slot's low 32 bits
// suffice: IDs only need to be unique among accesses alive or resident
// in the ring together.
func ComposeID(actor int, issued sim.Slot) uint64 {
	return uint64(uint32(actor))<<32 | uint64(uint32(issued))
}

// IDActor recovers the issuing actor from an access ID.
func IDActor(id uint64) int { return int(uint32(id >> 32)) }

// IDIssued recovers the (low 32 bits of the) issue slot from an ID.
func IDIssued(id uint64) uint32 { return uint32(id) }

// Recorder is the bounded ring the stage events land in. The zero
// capacity is invalid: build with NewRecorder. A nil *Recorder is a
// valid no-op recorder (the disabled fast path).
type Recorder struct {
	events  []Event // ring storage, preallocated at construction
	head    int     // index of the oldest event when full, else 0
	n       int     // live events, ≤ cap
	dropped uint64  // events overwritten since construction/Reset
}

// DefaultLimit is the ring capacity used when a caller passes a
// non-positive -spans-limit.
const DefaultLimit = 1 << 16

// NewRecorder returns a recorder keeping the most recent limit events
// (DefaultLimit when limit <= 0). The ring is allocated up front so
// Emit never allocates.
func NewRecorder(limit int) *Recorder {
	if limit <= 0 {
		limit = DefaultLimit
	}
	return &Recorder{events: make([]Event, limit)}
}

// Enabled reports whether events should be built at all; the nil fast
// path, mirroring sim.Trace. Hot paths must test it before doing any
// per-event work (enforced by the cfmlint flight pass).
func (r *Recorder) Enabled() bool { return r != nil }

// Emit records one stage event. Nil-safe, zero-alloc: the event is
// written in place into the preallocated ring, overwriting the oldest
// event when full. Call only from serial contexts (serial tickers,
// FinishShards folds); sharded ticks stage events and fold them later.
func (r *Recorder) Emit(id uint64, t sim.Slot, st Stage, actor int32, arg int64) {
	if r == nil {
		return
	}
	if r.n < len(r.events) {
		r.events[r.n] = Event{ID: id, Slot: t, Stage: st, Actor: actor, Arg: arg}
		r.n++
		return
	}
	r.events[r.head] = Event{ID: id, Slot: t, Stage: st, Actor: actor, Arg: arg}
	r.head++
	if r.head == len(r.events) {
		r.head = 0
	}
	r.dropped++
}

// Append records an already-built event (the staged-fold entry point).
func (r *Recorder) Append(ev Event) {
	if r == nil {
		return
	}
	r.Emit(ev.ID, ev.Slot, ev.Stage, ev.Actor, ev.Arg)
}

// AppendAll records evs in order, leaving the ring exactly as one Append
// per event would, with at most one copy per ring segment: the staged-
// fold entry point for a whole run of events. A nil recorder or an empty
// run returns inline, so a fold that drains many empty runs pays no call.
func (r *Recorder) AppendAll(evs []Event) {
	if r != nil && len(evs) > 0 {
		r.appendAll(evs)
	}
}

// appendAll is AppendAll on a recorder and a non-empty run.
func (r *Recorder) appendAll(evs []Event) {
	if r.n < len(r.events) { // filling: head stays 0 until the ring is full
		k := copy(r.events[r.n:], evs)
		r.n += k
		evs = evs[k:]
	}
	if len(evs) == 0 {
		return
	}
	// Full: each event overwrites the oldest, at head. Of a batch longer
	// than the ring only the last Cap() events survive; the ones before
	// them would each have advanced head and been overwritten in turn.
	c := len(r.events)
	r.dropped += uint64(len(evs))
	if skip := len(evs) - c; skip > 0 {
		r.head = (r.head + skip) % c
		evs = evs[skip:]
	}
	k := copy(r.events[r.head:], evs)
	copy(r.events, evs[k:])
	r.head += len(evs)
	if r.head >= c {
		r.head -= c
	}
}

// Len returns the number of live events (≤ Cap).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// Cap returns the ring capacity.
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// Dropped returns how many events were overwritten by newer ones.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Reset empties the ring and zeroes the drop count.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.head, r.n, r.dropped = 0, 0, 0
}

// live returns the live events, oldest first, as the ring's two
// contiguous runs; the second is empty until the ring has wrapped.
func (r *Recorder) live() (older, newer []Event) {
	if r.n < len(r.events) {
		return r.events[:r.n], nil
	}
	return r.events[r.head:], r.events[:r.head]
}

// Events returns the live events, oldest first, as a fresh slice.
func (r *Recorder) Events() []Event {
	if r == nil || r.n == 0 {
		return nil
	}
	older, newer := r.live()
	out := make([]Event, 0, r.n)
	out = append(out, older...)
	return append(out, newer...)
}

// FNV-1a, the digest primitive shared with sim.Trace and
// metrics.Snapshot.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	h ^= 0xff // field separator
	h *= fnvPrime64
	return h
}

// Digest folds the live events (oldest first) and the drop count into
// one FNV-1a value. Two recorders with byte-identical streams — the
// serial/parallel and dense/skip-ahead equivalence guarantee — digest
// equal; any reordering, drop, or field difference shows.
func (r *Recorder) Digest() uint64 {
	h := uint64(fnvOffset64)
	if r == nil {
		return h
	}
	older, newer := r.live()
	for _, run := range [2][]Event{older, newer} {
		for _, ev := range run {
			h = fnvMix(h, ev.ID)
			h = fnvMix(h, uint64(ev.Slot))
			h = fnvMix(h, uint64(ev.Stage))
			h = fnvMix(h, uint64(uint32(ev.Actor)))
			h = fnvMix(h, uint64(ev.Arg))
		}
	}
	return fnvMix(h, r.dropped)
}

// SaveState implements sim.Stater so a recorder attached to an
// engine's checkpoint state (AttachState "flight") round-trips: a
// resumed run's ring continues byte-for-byte where the checkpointed
// run's was — which is what lets the bisector compare span digests
// across checkpoint/restore probes.
func (r *Recorder) SaveState(enc *sim.StateEncoder) {
	enc.Int(len(r.events))
	enc.U64(r.dropped)
	enc.Int(r.n)
	older, newer := r.live()
	for _, run := range [2][]Event{older, newer} {
		for _, ev := range run {
			enc.U64(ev.ID)
			enc.Slot(ev.Slot)
			enc.U64(uint64(ev.Stage))
			enc.I64(int64(ev.Actor))
			enc.I64(ev.Arg)
		}
	}
}

// loadChunk is how many events LoadState decodes per Words call.
const loadChunk = 128

// LoadState implements sim.Stater. The restoring recorder must be
// configured with the checkpointed capacity (the -spans-limit flag is
// configuration, which snapshots never carry). The events decode in
// chunks of five-word records straight into the ring, oldest first at
// index 0 — where Reset and one Emit per event would put them.
func (r *Recorder) LoadState(dec *sim.StateDecoder) {
	capacity := dec.Int()
	if dec.Err() != nil {
		return
	}
	if capacity != len(r.events) {
		dec.Failf("flight: recorder capacity %d in checkpoint, %d configured", capacity, len(r.events))
		return
	}
	r.Reset()
	dropped := dec.U64()
	count := dec.Count()
	if count > capacity {
		dec.Failf("flight: %d events in checkpoint exceed capacity %d", count, capacity)
		return
	}
	var words [5 * loadChunk]uint64
	for done := 0; done < count && dec.Err() == nil; {
		k := min(count-done, loadChunk)
		w := words[:5*k]
		dec.Words(w)
		evs := r.events[done : done+k]
		for i := range evs {
			rec := w[5*i : 5*i+5 : 5*i+5]
			if rec[2] >= uint64(numStages) {
				dec.Failf("flight: stage %d out of range", rec[2])
				return
			}
			evs[i] = Event{ID: rec[0], Slot: sim.Slot(rec[1]), Stage: Stage(rec[2]),
				Actor: int32(rec[3]), Arg: int64(rec[4])}
		}
		done += k
		r.n = done
	}
	r.dropped = dropped
}
