package sim

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
)

// This file implements deterministic checkpoint/restore: a versioned,
// self-describing binary snapshot of full engine state — the clock slot,
// per-component RNG streams, queue contents, parking state, and any
// harness-attached extras (trace, metrics registry) — written by
// Engine.Checkpoint and read back by Engine.Restore.
//
// A snapshot does NOT serialize component identity or topology: it holds
// one opaque state section per registered component, in the engine's
// compiled (priority, registration) order. Restoring therefore requires
// an engine populated by the same scenario construction code (same
// constructors, same seeds, same registration order) as the one that was
// checkpointed; Restore then loads each saved section into the matching
// live component. Because the sort does not depend on the worker count,
// a snapshot taken on one worker restores into a worker pool and vice
// versa — snapshots are engine-neutral, and independent of
// whether skip-ahead was or will be enabled (a skipped slot changes no
// component state by the Horizoner contract). Epoch batching is equally
// invisible: Checkpoint is only legal between runs, an episode never
// spans a Run budget (the final episode truncates to it), and every
// episode ends with its full finalization fold — so a snapshot always
// cuts at an episode boundary with no staged per-shard deltas pending,
// and a batched engine restores from (and into) an unbatched one.
//
// Format (version 2), all integers little-endian:
//
//	magic   "CFMCKPT\n"                  8 bytes, raw
//	version u32                          raw
//	payload a type-tagged value stream (see StateEncoder):
//	        word  now
//	        word  slotsRun
//	        word  slotsFired
//	        word  jumps                  (v2: skip-ahead jump count)
//	        word  component count
//	        per component, in compiled (prio, seq) order:
//	          bool parked
//	          bool hasState
//	          bytes state section        iff hasState (a nested stream)
//	        word  extra count
//	        per extra, in attach order:
//	          string name
//	          bytes  state section
//	checksum u64 FNV-1a over everything above, raw
//
// Every value in the payload carries a one-byte type tag and
// length-prefixed payloads are bounds-checked against the remaining
// input, so a corrupted or truncated snapshot yields an error from
// Restore, never a panic or a silent misparse.

// Stater is the interface by which a stateful component participates in
// checkpoint/restore. SaveState appends the component's complete mutable
// simulation state to enc; LoadState reads the same fields back, in the
// same order, into an already-constructed component (same configuration,
// same seeds). Neither returns an error: failures are recorded on the
// encoder/decoder (see Failf) and surfaced by Checkpoint/Restore.
//
// The contract mirrors the engine's determinism discipline:
//
//   - Save/Load must round-trip every field that can influence future
//     observable behaviour: RNG streams, queues, in-flight operations,
//     statistics that feed public accessors or metrics.
//   - Map iteration must be sorted before encoding — the snapshot bytes
//     of a given state must be byte-stable run to run.
//   - Configuration (sizes, rates, selector functions) is NOT saved; the
//     restoring harness reconstructs it.
type Stater interface {
	SaveState(enc *StateEncoder)
	LoadState(dec *StateDecoder)
}

// Snapshot format constants. Version history:
//
//	v1  initial format (PR 6)
//	v2  adds the engine's skip-ahead jump count to the header and a
//	    stored packet ID to the buffered-omega network's sections
//	    (flight-recorder PR); v1 snapshots are not readable.
const (
	checkpointMagic   = "CFMCKPT\n"
	CheckpointVersion = 2
)

// Value type tags of the state stream.
const (
	tagWord   byte = 0xC1 // 8-byte scalar: u64 / i64 / slot / float bits
	tagBool   byte = 0xC2
	tagBytes  byte = 0xC3 // u32 length + raw bytes
	tagString byte = 0xC4 // u32 length + raw bytes
)

// StateEncoder accumulates a type-tagged byte stream. Errors are sticky:
// after the first failure every further call is a no-op and Err reports
// the failure.
type StateEncoder struct {
	buf []byte
	err error
}

// NewStateEncoder returns an empty encoder.
func NewStateEncoder() *StateEncoder { return &StateEncoder{} }

// Err returns the first recorded failure, or nil.
func (e *StateEncoder) Err() error { return e.err }

// Failf records a semantic failure (e.g. "in-flight external callback
// cannot be serialized"); the checkpoint as a whole then fails with this
// error instead of writing a snapshot that could not be restored.
func (e *StateEncoder) Failf(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf(format, args...)
	}
}

// Bytes returns the encoded stream.
func (e *StateEncoder) Bytes() []byte { return e.buf }

func (e *StateEncoder) word(v uint64) {
	if e.err != nil {
		return
	}
	e.buf = append(e.buf, tagWord,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// U64 appends an unsigned 64-bit scalar.
func (e *StateEncoder) U64(v uint64) { e.word(v) }

// I64 appends a signed 64-bit scalar.
func (e *StateEncoder) I64(v int64) { e.word(uint64(v)) }

// Int appends an int.
func (e *StateEncoder) Int(v int) { e.word(uint64(int64(v))) }

// Slot appends a simulation slot.
func (e *StateEncoder) Slot(v Slot) { e.word(uint64(int64(v))) }

// Bool appends a boolean.
func (e *StateEncoder) Bool(v bool) {
	if e.err != nil {
		return
	}
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, tagBool, b)
}

// Bytes32 appends a length-prefixed byte section.
func (e *StateEncoder) Bytes32(b []byte) {
	if e.err != nil {
		return
	}
	if len(b) > int(^uint32(0)) {
		e.Failf("sim: state section of %d bytes exceeds the format's u32 length", len(b))
		return
	}
	n := uint32(len(b))
	e.buf = append(e.buf, tagBytes, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	e.buf = append(e.buf, b...)
}

// beginSection opens a length-prefixed byte section framed in place:
// it appends the tag and a length placeholder, the section's values are
// then encoded straight after them, and endSection patches the length.
// The bytes equal Bytes32 of the same section encoded apart.
func (e *StateEncoder) beginSection() int {
	at := len(e.buf)
	e.buf = append(e.buf, tagBytes, 0, 0, 0, 0)
	return at
}

// endSection patches the length of the section beginSection opened at at.
func (e *StateEncoder) endSection(at int) {
	if e.err != nil {
		return
	}
	n := len(e.buf) - at - 5
	if n > int(^uint32(0)) {
		e.Failf("sim: state section of %d bytes exceeds the format's u32 length", n)
		return
	}
	b := e.buf[at+1 : at+5]
	b[0], b[1], b[2], b[3] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
}

// String appends a length-prefixed string.
func (e *StateEncoder) String(s string) {
	if e.err != nil {
		return
	}
	if len(s) > int(^uint32(0)) {
		e.Failf("sim: string of %d bytes exceeds the format's u32 length", len(s))
		return
	}
	n := uint32(len(s))
	e.buf = append(e.buf, tagString, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	e.buf = append(e.buf, s...)
}

// RNG appends an RNG stream position. Nil-safe (records absence).
func (e *StateEncoder) RNG(r *RNG) {
	e.Bool(r != nil)
	if r != nil {
		e.U64(r.State())
	}
}

// StateDecoder reads a type-tagged byte stream produced by StateEncoder.
// Errors are sticky; after the first failure every read returns a zero
// value. All reads are bounds-checked: corrupted or truncated input can
// only produce an error, never a panic.
type StateDecoder struct {
	buf []byte
	off int
	err error
}

// NewStateDecoder returns a decoder over buf.
func NewStateDecoder(buf []byte) *StateDecoder { return &StateDecoder{buf: buf} }

// Err returns the first recorded failure, or nil.
func (d *StateDecoder) Err() error { return d.err }

// Failf records a semantic failure (e.g. a saved count that contradicts
// the restoring component's configuration).
func (d *StateDecoder) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// Remaining reports the number of unread bytes.
func (d *StateDecoder) Remaining() int { return len(d.buf) - d.off }

func (d *StateDecoder) tag(want byte, name string) bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.buf) {
		d.Failf("sim: truncated state: expected %s at offset %d", name, d.off)
		return false
	}
	if d.buf[d.off] != want {
		d.Failf("sim: corrupt state: expected %s tag at offset %d, found 0x%02x", name, d.off, d.buf[d.off])
		return false
	}
	d.off++
	return true
}

func (d *StateDecoder) word(name string) uint64 {
	if !d.tag(tagWord, name) {
		return 0
	}
	if d.Remaining() < 8 {
		d.Failf("sim: truncated state: %s needs 8 bytes at offset %d, have %d", name, d.off, d.Remaining())
		return 0
	}
	b := d.buf[d.off:]
	d.off += 8
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// U64 reads an unsigned 64-bit scalar.
func (d *StateDecoder) U64() uint64 { return d.word("u64") }

// I64 reads a signed 64-bit scalar.
func (d *StateDecoder) I64() int64 { return int64(d.word("i64")) }

// Int reads an int.
func (d *StateDecoder) Int() int { return int(int64(d.word("int"))) }

// Slot reads a simulation slot.
func (d *StateDecoder) Slot() Slot { return Slot(int64(d.word("slot"))) }

// Words reads len(dst) scalars of any word kind (U64, I64, Int, Slot)
// into dst as raw words. When the input holds the whole run, its length
// is checked once for the run rather than once per word. It fails on
// exactly the inputs on which len(dst) scalar U64 reads fail, and leaves
// dst and Remaining() as they would: the words before a fault decoded,
// the rest zero. Its error names the failing word's place in the run.
func (d *StateDecoder) Words(dst []uint64) {
	i := 0
	if d.err == nil && 9*len(dst) <= d.Remaining() {
		b := d.buf[d.off : d.off+9*len(dst)]
		for ; i < len(dst); i++ {
			w := b[9*i : 9*i+9 : 9*i+9]
			if w[0] != tagWord {
				break
			}
			dst[i] = uint64(w[1]) | uint64(w[2])<<8 | uint64(w[3])<<16 | uint64(w[4])<<24 |
				uint64(w[5])<<32 | uint64(w[6])<<40 | uint64(w[7])<<48 | uint64(w[8])<<56
		}
		d.off += 9 * i
	}
	// A short input or a foreign tag: the scalar reads take the rest and
	// report the fault.
	for ; i < len(dst) && d.err == nil; i++ {
		dst[i] = d.word("word")
		if d.err != nil {
			d.err = fmt.Errorf("%w (word %d of a run of %d)", d.err, i, len(dst))
		}
	}
	clear(dst[i:])
}

// Count reads a non-negative element count intended to size an
// allocation or bound a decode loop. Counts larger than the remaining
// input are rejected (every encoded element occupies at least one byte),
// so hostile input cannot drive huge allocations.
func (d *StateDecoder) Count() int {
	n := int(int64(d.word("count")))
	if d.err != nil {
		return 0
	}
	if n < 0 || n > d.Remaining() {
		d.Failf("sim: corrupt state: count %d out of range at offset %d (%d bytes remain)", n, d.off, d.Remaining())
		return 0
	}
	return n
}

// Bool reads a boolean.
func (d *StateDecoder) Bool() bool {
	if !d.tag(tagBool, "bool") {
		return false
	}
	if d.Remaining() < 1 {
		d.Failf("sim: truncated state: bool payload missing at offset %d", d.off)
		return false
	}
	b := d.buf[d.off]
	d.off++
	if b > 1 {
		d.Failf("sim: corrupt state: bool value 0x%02x at offset %d", b, d.off-1)
		return false
	}
	return b == 1
}

// lenPrefixed reads a length-prefixed payload as a view of the input,
// capped at its own length, so a nested decoder can read a section in
// place and an append to the view cannot reach the bytes after it.
func (d *StateDecoder) lenPrefixed(want byte, name string) []byte {
	if !d.tag(want, name) {
		return nil
	}
	if d.Remaining() < 4 {
		d.Failf("sim: truncated state: %s length missing at offset %d", name, d.off)
		return nil
	}
	b := d.buf[d.off:]
	n := int(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
	d.off += 4
	if n < 0 || n > d.Remaining() {
		d.Failf("sim: corrupt state: %s length %d exceeds %d remaining bytes", name, n, d.Remaining())
		return nil
	}
	view := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return view
}

// Bytes32 reads a length-prefixed byte section (a fresh copy).
func (d *StateDecoder) Bytes32() []byte {
	view := d.lenPrefixed(tagBytes, "bytes")
	if d.err != nil {
		return nil
	}
	out := make([]byte, len(view))
	copy(out, view)
	return out
}

// String reads a length-prefixed string.
func (d *StateDecoder) String() string { return string(d.lenPrefixed(tagString, "string")) }

// RNG restores an RNG stream position saved by StateEncoder.RNG. The
// saved presence must match the live component's (both nil or both not).
func (d *StateDecoder) RNG(r *RNG) {
	had := d.Bool()
	if d.err != nil {
		return
	}
	if had != (r != nil) {
		d.Failf("sim: state mismatch: snapshot RNG presence %v, component has %v", had, r != nil)
		return
	}
	if r != nil {
		r.SetState(d.U64())
	}
}

// SaveQueue appends a Queue's contents: the count followed by each
// element, head first, encoded by save.
func SaveQueue[T any](enc *StateEncoder, q *Queue[T], save func(*StateEncoder, T)) {
	enc.Int(q.Len())
	for i, n := 0, q.Len(); i < n; i++ {
		save(enc, *q.At(i))
	}
}

// LoadQueue resets a Queue and refills it from the stream written by
// SaveQueue, decoding each element with load.
func LoadQueue[T any](dec *StateDecoder, q *Queue[T], load func(*StateDecoder) T) {
	q.Reset()
	n := dec.Count()
	for i := 0; i < n && dec.Err() == nil; i++ {
		q.Push(load(dec))
	}
}

// SaveSlots appends a []Slot whose length is fixed by configuration.
func SaveSlots(enc *StateEncoder, s []Slot) {
	enc.Int(len(s))
	for _, v := range s {
		enc.Slot(v)
	}
}

// LoadSlots restores a []Slot in place; the saved length must match.
func LoadSlots(dec *StateDecoder, s []Slot) {
	if n := dec.Count(); n != len(s) && dec.Err() == nil {
		dec.Failf("sim: state mismatch: snapshot has %d slots, component has %d", n, len(s))
		return
	}
	for i := range s {
		s[i] = dec.Slot()
	}
}

// extraState is one harness-attached Stater (trace, metrics registry)
// that snapshots alongside the registered components.
type extraState struct {
	name string
	s    Stater
}

// attachExtra appends a named extra, rejecting duplicate names.
func attachExtra(extras []extraState, name string, s Stater) []extraState {
	if s == nil {
		panic("sim: AttachState with nil Stater")
	}
	for _, x := range extras {
		if x.name == name {
			panic(fmt.Sprintf("sim: AttachState: duplicate name %q", name))
		}
	}
	return append(extras, extraState{name: name, s: s})
}

// fnv1a is the checksum of the snapshot framing (offset basis and prime
// of 64-bit FNV-1a).
func fnv1a(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// writeCheckpoint serializes an engine's full state into enc, the
// engine's codec encoder, and hands its buffer to w in one Write.
// tickers must be in compiled (prio, seq) order — the caller compiles
// first. Every state section is framed in place on the one encoder, so
// no section is encoded apart and copied, and the buffer's capacity
// carries over to the next checkpoint. Nothing reaches w when any
// SaveState fails.
func writeCheckpoint(w io.Writer, enc *StateEncoder, now Slot, slotsRun, slotsFired, jumps int64, tickers []tickerEntry, extras []extraState) error {
	enc.buf, enc.err = append(enc.buf[:0], checkpointMagic...), nil
	enc.buf = appendU32(enc.buf, CheckpointVersion)
	enc.Slot(now)
	enc.I64(slotsRun)
	enc.I64(slotsFired)
	enc.I64(jumps)
	enc.Int(len(tickers))
	for i := range tickers {
		e := &tickers[i]
		enc.Bool(e.id.Parked())
		st, ok := e.t.(Stater)
		enc.Bool(ok)
		if ok {
			at := enc.beginSection()
			st.SaveState(enc)
			enc.endSection(at)
			if err := enc.Err(); err != nil {
				return fmt.Errorf("sim: checkpoint: component %d (%T): %w", i, e.t, err)
			}
		}
	}
	enc.Int(len(extras))
	for _, x := range extras {
		enc.String(x.name)
		at := enc.beginSection()
		x.s.SaveState(enc)
		enc.endSection(at)
		if err := enc.Err(); err != nil {
			return fmt.Errorf("sim: checkpoint: extra %q (%T): %w", x.name, x.s, err)
		}
	}
	if err := enc.Err(); err != nil {
		return err
	}
	enc.buf = appendU64(enc.buf, fnv1a(enc.buf))
	_, err := w.Write(enc.buf)
	return err
}

// readSnapshot reads r to EOF into *buf, the engine's codec buffer, and
// returns the bytes read. A reader that reports its size (Len, or Stat
// for a file) sizes the buffer up front; any other grows it as it goes.
func readSnapshot(r io.Reader, buf *[]byte) ([]byte, error) {
	b := (*buf)[:0]
	size := -1
	switch s := r.(type) {
	case interface{ Len() int }:
		size = s.Len()
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := s.Stat(); err == nil && int64(int(fi.Size())) == fi.Size() {
			size = int(fi.Size())
		}
	}
	if size >= cap(b) { // one byte over, so the Read that reports EOF needs no growth
		b = make([]byte, 0, size+1)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			*buf = b
			return b, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// engineSnapshot is the scalar engine state a restore hands back to the
// engine after the components have loaded.
type engineSnapshot struct {
	now        Slot
	slotsRun   int64
	slotsFired int64
	jumps      int64
}

// ErrUnsupportedVersion is wrapped by Restore when the snapshot's format
// version is newer than this build understands.
var ErrUnsupportedVersion = errors.New("unsupported checkpoint version")

// readCheckpoint validates a snapshot and loads it into the registered
// components and extras. tickers must be in compiled order with idlers
// bound. On error the components may be partially loaded; the engine
// should be considered unusable and rebuilt.
func readCheckpoint(r io.Reader, buf *[]byte, tickers []tickerEntry, extras []extraState) (engineSnapshot, error) {
	var zero engineSnapshot
	raw, err := readSnapshot(r, buf)
	if err != nil {
		return zero, fmt.Errorf("sim: restore: reading snapshot: %w", err)
	}
	if len(raw) < len(checkpointMagic)+4+8 {
		return zero, fmt.Errorf("sim: restore: snapshot too short (%d bytes)", len(raw))
	}
	if string(raw[:len(checkpointMagic)]) != checkpointMagic {
		return zero, fmt.Errorf("sim: restore: bad magic %q (not a CFM checkpoint)", raw[:len(checkpointMagic)])
	}
	body, sum := raw[:len(raw)-8], raw[len(raw)-8:]
	want := uint64(sum[0]) | uint64(sum[1])<<8 | uint64(sum[2])<<16 | uint64(sum[3])<<24 |
		uint64(sum[4])<<32 | uint64(sum[5])<<40 | uint64(sum[6])<<48 | uint64(sum[7])<<56
	if got := fnv1a(body); got != want {
		return zero, fmt.Errorf("sim: restore: checksum mismatch (snapshot corrupted): %016x != %016x", got, want)
	}
	vb := body[len(checkpointMagic):]
	version := uint32(vb[0]) | uint32(vb[1])<<8 | uint32(vb[2])<<16 | uint32(vb[3])<<24
	if version != CheckpointVersion {
		return zero, fmt.Errorf("sim: restore: %w: snapshot is v%d, this build reads v%d", ErrUnsupportedVersion, version, CheckpointVersion)
	}

	dec := NewStateDecoder(body[len(checkpointMagic)+4:])
	var sub StateDecoder // reused for every section, each a view of raw
	var snap engineSnapshot
	snap.now = dec.Slot()
	snap.slotsRun = dec.I64()
	snap.slotsFired = dec.I64()
	snap.jumps = dec.I64()
	n := dec.Count()
	if err := dec.Err(); err != nil {
		return zero, err
	}
	if n != len(tickers) {
		return zero, fmt.Errorf("sim: restore: snapshot has %d components, engine has %d registered — rebuild the scenario exactly as checkpointed", n, len(tickers))
	}
	for i := range tickers {
		e := &tickers[i]
		parked := dec.Bool()
		hasState := dec.Bool()
		if err := dec.Err(); err != nil {
			return zero, err
		}
		st, isStater := e.t.(Stater)
		if hasState != isStater {
			return zero, fmt.Errorf("sim: restore: component %d (%T): snapshot state presence %v, component Stater %v — scenario construction diverged from the checkpointed one", i, e.t, hasState, isStater)
		}
		if hasState {
			sub = StateDecoder{buf: dec.lenPrefixed(tagBytes, "bytes")}
			if err := dec.Err(); err != nil {
				return zero, err
			}
			st.LoadState(&sub)
			if err := sub.Err(); err != nil {
				return zero, fmt.Errorf("sim: restore: component %d (%T): %w", i, e.t, err)
			}
			if rem := sub.Remaining(); rem != 0 {
				return zero, fmt.Errorf("sim: restore: component %d (%T): %d bytes of its state section unread", i, e.t, rem)
			}
		}
		if parked && e.id == nil {
			return zero, fmt.Errorf("sim: restore: component %d (%T) was parked at checkpoint but is not a Parker here", i, e.t)
		}
		if e.id != nil {
			if parked {
				e.id.Park()
			} else {
				e.id.Wake()
			}
		}
	}
	ne := dec.Count()
	if err := dec.Err(); err != nil {
		return zero, err
	}
	if ne != len(extras) {
		return zero, fmt.Errorf("sim: restore: snapshot has %d attached extras, engine has %d", ne, len(extras))
	}
	for i := range extras {
		name := extras[i].name
		saved := dec.lenPrefixed(tagString, "string") // a view: compared, not kept
		if err := dec.Err(); err != nil {
			return zero, err
		}
		if string(saved) != name {
			return zero, fmt.Errorf("sim: restore: extra %d named %q in the snapshot, %q on the engine — attach extras in the same order", i, saved, name)
		}
		sub = StateDecoder{buf: dec.lenPrefixed(tagBytes, "bytes")}
		if err := dec.Err(); err != nil {
			return zero, err
		}
		extras[i].s.LoadState(&sub)
		if err := sub.Err(); err != nil {
			return zero, fmt.Errorf("sim: restore: extra %q (%T): %w", name, extras[i].s, err)
		}
		if rem := sub.Remaining(); rem != 0 {
			return zero, fmt.Errorf("sim: restore: extra %q (%T): %d bytes of its state section unread", name, extras[i].s, rem)
		}
	}
	if err := dec.Err(); err != nil {
		return zero, err
	}
	if rem := dec.Remaining(); rem != 0 {
		return zero, fmt.Errorf("sim: restore: %d trailing bytes after the last section", rem)
	}
	return snap, nil
}

// Restore builds a fresh engine with build — which must reconstruct the
// checkpointed scenario exactly (same constructors, same seeds, same
// registration order, same attached extras) — and loads the snapshot
// into it. The worker count need not match the checkpointing one:
// snapshots are engine-neutral, so a one-worker checkpoint restores
// into a worker pool and vice versa.
func Restore(r io.Reader, build func() Engine) (Engine, error) {
	eng := build()
	if err := eng.Restore(r); err != nil {
		return nil, err
	}
	return eng, nil
}

// SaveState implements Stater for the event trace: the recorded events
// and the disabled flag round-trip so a resumed run appends to the same
// history and reproduces the uninterrupted run's digest.
func (tr *Trace) SaveState(enc *StateEncoder) {
	enc.Bool(tr.disabled)
	enc.Int(len(tr.events))
	for _, e := range tr.events {
		enc.Slot(e.Slot)
		enc.String(e.Who)
		enc.String(e.What)
	}
}

// LoadState implements Stater.
func (tr *Trace) LoadState(dec *StateDecoder) {
	tr.disabled = dec.Bool()
	n := dec.Count()
	tr.events = tr.events[:0]
	for i := 0; i < n && dec.Err() == nil; i++ {
		ev := Event{Slot: dec.Slot(), Who: dec.String(), What: dec.String()}
		tr.events = append(tr.events, ev)
	}
}

// SaveState implements Stater for FuncTicker, delegating to the optional
// Save hook (see FuncTicker.Save); a hookless driver snapshots empty.
func (f *FuncTicker) SaveState(enc *StateEncoder) {
	if f.Save != nil {
		f.Save(enc)
	}
}

// LoadState implements Stater, delegating to the optional Load hook.
func (f *FuncTicker) LoadState(dec *StateDecoder) {
	if f.Load != nil {
		f.Load(dec)
	}
}
