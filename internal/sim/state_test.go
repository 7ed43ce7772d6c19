package sim

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// stateComp is a small stateful ticker for checkpoint tests: an RNG, a
// queue, and an accumulator that all evolve every slot.
type stateComp struct {
	rng *RNG
	q   Queue[int64]
	acc uint64
}

func newStateComp(seed uint64) *stateComp {
	return &stateComp{rng: NewRNG(seed)}
}

func (c *stateComp) Tick(t Slot, ph Phase) {
	if ph != PhaseUpdate {
		return
	}
	c.q.Push(int64(c.rng.Uint64() % 1000))
	if c.q.Len() > 4 {
		c.acc += uint64(c.q.Pop())
	}
}

func (c *stateComp) PhaseMask() PhaseMask { return MaskOf(PhaseUpdate) }

func (c *stateComp) SaveState(enc *StateEncoder) {
	enc.RNG(c.rng)
	SaveQueue(enc, &c.q, func(e *StateEncoder, v int64) { e.I64(v) })
	enc.U64(c.acc)
}

func (c *stateComp) LoadState(dec *StateDecoder) {
	dec.RNG(c.rng)
	LoadQueue(dec, &c.q, func(d *StateDecoder) int64 { return d.I64() })
	c.acc = dec.U64()
}

func (c *stateComp) fingerprint() string {
	parts := make([]string, 0, c.q.Len()+1)
	for i := 0; i < c.q.Len(); i++ {
		parts = append(parts, fmt.Sprint(*c.q.At(i)))
	}
	return fmt.Sprintf("rng=%x q=[%s] acc=%d", c.rng.State(), strings.Join(parts, ","), c.acc)
}

// buildStateEngine assembles the canonical two-component test scenario.
func buildStateEngine(seed uint64) (*Clock, *stateComp, *stateComp) {
	eng := NewClock()
	a, b := newStateComp(seed), newStateComp(seed^0x9e3779b97f4a7c15)
	eng.Register(a)
	eng.Register(b)
	return eng, a, b
}

// checkpointBytes runs the test scenario for n slots and snapshots it.
func checkpointBytes(t *testing.T, seed uint64, n int64) []byte {
	t.Helper()
	eng, _, _ := buildStateEngine(seed)
	eng.Run(n)
	var buf bytes.Buffer
	if err := eng.Checkpoint(&buf); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	return buf.Bytes()
}

// TestStateEncoderRoundTrip pins every primitive through a save/load
// cycle, including boundary values.
func TestStateEncoderRoundTrip(t *testing.T) {
	enc := NewStateEncoder()
	enc.U64(0)
	enc.U64(^uint64(0))
	enc.I64(-1 << 63)
	enc.Int(-42)
	enc.Slot(123456789)
	enc.Bool(true)
	enc.Bool(false)
	enc.Bytes32([]byte{1, 2, 3})
	enc.Bytes32(nil)
	enc.String("hello, 世界")
	enc.String("")
	rng := NewRNG(7)
	rng.Uint64()
	enc.RNG(rng)
	enc.RNG(nil)
	if err := enc.Err(); err != nil {
		t.Fatalf("encode: %v", err)
	}

	dec := NewStateDecoder(enc.Bytes())
	if got := dec.U64(); got != 0 {
		t.Errorf("U64: %d", got)
	}
	if got := dec.U64(); got != ^uint64(0) {
		t.Errorf("max U64: %d", got)
	}
	if got := dec.I64(); got != -1<<63 {
		t.Errorf("min I64: %d", got)
	}
	if got := dec.Int(); got != -42 {
		t.Errorf("Int: %d", got)
	}
	if got := dec.Slot(); got != 123456789 {
		t.Errorf("Slot: %d", got)
	}
	if !dec.Bool() || dec.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := dec.Bytes32(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes32: %v", got)
	}
	if got := dec.Bytes32(); len(got) != 0 {
		t.Errorf("empty Bytes32: %v", got)
	}
	if got := dec.String(); got != "hello, 世界" {
		t.Errorf("String: %q", got)
	}
	if got := dec.String(); got != "" {
		t.Errorf("empty String: %q", got)
	}
	r2 := NewRNG(0)
	dec.RNG(r2)
	if r2.State() != rng.State() {
		t.Errorf("RNG state: %x != %x", r2.State(), rng.State())
	}
	dec.RNG(nil)
	if err := dec.Err(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if rem := dec.Remaining(); rem != 0 {
		t.Fatalf("%d bytes left over", rem)
	}
}

// TestStateDecoderTypeMismatch: reading a value as the wrong type must
// produce a sticky error, not garbage.
func TestStateDecoderTypeMismatch(t *testing.T) {
	enc := NewStateEncoder()
	enc.Bool(true)
	dec := NewStateDecoder(enc.Bytes())
	dec.U64()
	if dec.Err() == nil {
		t.Fatal("decoding a bool as u64 succeeded")
	}
	// The error is sticky: later reads keep failing and return zero.
	if got := dec.Int(); got != 0 {
		t.Fatalf("read after error returned %d, want 0", got)
	}
}

// TestStateDecoderCountBounds: Count rejects negative and
// impossible-given-remaining-bytes sizes so corrupted snapshots cannot
// force huge allocations.
func TestStateDecoderCountBounds(t *testing.T) {
	enc := NewStateEncoder()
	enc.Int(-1)
	dec := NewStateDecoder(enc.Bytes())
	dec.Count()
	if dec.Err() == nil {
		t.Fatal("negative count accepted")
	}

	enc = NewStateEncoder()
	enc.Int(1 << 40)
	dec = NewStateDecoder(enc.Bytes())
	dec.Count()
	if dec.Err() == nil {
		t.Fatal("absurd count accepted")
	}
}

// TestCheckpointRestoreIdentity: checkpoint → restore into a fresh
// fleet → identical component fingerprints and identical re-checkpoint
// bytes, with the restored run continuing exactly as the original.
func TestCheckpointRestoreIdentity(t *testing.T) {
	eng, a, b := buildStateEngine(42)
	eng.Run(100)
	var buf bytes.Buffer
	if err := eng.Checkpoint(&buf); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	eng2, a2, b2 := buildStateEngine(0) // seed irrelevant: restore overwrites
	if err := eng2.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if eng2.Now() != eng.Now() {
		t.Fatalf("restored clock at %d, want %d", eng2.Now(), eng.Now())
	}
	if a2.fingerprint() != a.fingerprint() || b2.fingerprint() != b.fingerprint() {
		t.Fatalf("restored state diverged:\n%s\n%s", a.fingerprint(), a2.fingerprint())
	}

	var buf2 bytes.Buffer
	if err := eng2.Checkpoint(&buf2); err != nil {
		t.Fatalf("re-checkpoint: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("re-checkpoint of a restored engine is not byte-identical")
	}

	eng.Run(50)
	eng2.Run(50)
	if a2.fingerprint() != a.fingerprint() || b2.fingerprint() != b.fingerprint() {
		t.Fatal("restored engine diverged from original after resuming")
	}
}

// TestRestoreBuildHelper exercises the sim.Restore convenience wrapper.
func TestRestoreBuildHelper(t *testing.T) {
	ckpt := checkpointBytes(t, 9, 37)
	var a *stateComp
	eng, err := Restore(bytes.NewReader(ckpt), func() Engine {
		e, ca, _ := buildStateEngine(0)
		a = ca
		return e
	})
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if eng.Now() != 37 {
		t.Fatalf("restored at slot %d, want 37", eng.Now())
	}
	if a.acc == 0 && a.q.Len() == 0 {
		t.Fatal("restored component is still empty")
	}
}

// patchChecksum recomputes the trailing FNV-1a checksum after a test
// mutates checkpoint bytes, so the mutation reaches the layer under test.
func patchChecksum(raw []byte) {
	body := raw[:len(raw)-8]
	sum := fnv1a(body)
	for i := 0; i < 8; i++ {
		raw[len(raw)-8+i] = byte(sum >> (8 * i))
	}
}

// TestRestoreUnsupportedVersion: a snapshot from a future format version
// must fail with ErrUnsupportedVersion and a clear message, not
// misparse.
func TestRestoreUnsupportedVersion(t *testing.T) {
	raw := checkpointBytes(t, 1, 10)
	raw[len(checkpointMagic)] = 99 // bump the version u32's low byte
	patchChecksum(raw)
	eng, _, _ := buildStateEngine(1)
	err := eng.Restore(bytes.NewReader(raw))
	if !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("got %v, want ErrUnsupportedVersion", err)
	}
	if !strings.Contains(err.Error(), "v99") || !strings.Contains(err.Error(), "unsupported") {
		t.Fatalf("version error is unclear: %v", err)
	}
}

// TestRestoreRejectsCorruption: every single-byte corruption of a valid
// snapshot must be rejected by the checksum (or a later validation) —
// never silently accepted as different state.
func TestRestoreRejectsCorruption(t *testing.T) {
	raw := checkpointBytes(t, 5, 25)
	stride := len(raw)/40 + 1
	for off := 0; off < len(raw); off += stride {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x41
		eng, _, _ := buildStateEngine(5)
		if err := eng.Restore(bytes.NewReader(mut)); err == nil {
			t.Fatalf("corruption at byte %d accepted", off)
		}
	}
}

// TestRestoreRejectsTruncation: every proper prefix boundary must error.
func TestRestoreRejectsTruncation(t *testing.T) {
	raw := checkpointBytes(t, 6, 25)
	for _, n := range []int{0, 1, len(checkpointMagic), len(checkpointMagic) + 4, len(raw) / 2, len(raw) - 1} {
		eng, _, _ := buildStateEngine(6)
		if err := eng.Restore(bytes.NewReader(raw[:n])); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

// TestRestoreFleetMismatch: restoring into a scenario with a different
// component count must fail with a message naming the divergence.
func TestRestoreFleetMismatch(t *testing.T) {
	ckpt := checkpointBytes(t, 3, 10)
	eng := NewClock()
	eng.Register(newStateComp(3)) // one component; snapshot has two
	err := eng.Restore(bytes.NewReader(ckpt))
	if err == nil || !strings.Contains(err.Error(), "components") {
		t.Fatalf("fleet mismatch not diagnosed: %v", err)
	}
}

// TestRestoreExtraMismatch: attached extras are matched by name.
func TestRestoreExtraMismatch(t *testing.T) {
	eng, _, _ := buildStateEngine(4)
	tr := NewTrace()
	eng.AttachState("trace", tr)
	eng.Run(10)
	var buf bytes.Buffer
	if err := eng.Checkpoint(&buf); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	eng2, _, _ := buildStateEngine(4)
	tr2 := NewTrace()
	eng2.AttachState("wrong-name", tr2)
	if err := eng2.Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("extra name mismatch accepted")
	}

	eng3, _, _ := buildStateEngine(4)
	if err := eng3.Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("missing extra accepted")
	}
}

// TestCheckpointUnserializableCallback: a FuncTicker whose Save hook
// refuses (the stand-in for any component holding an external callback)
// must fail the checkpoint loudly, not write a partial snapshot.
// Once the callback can be saved, the same engine's next checkpoint
// equals a fresh engine's: the failure leaves nothing behind in the
// engine's reused codec buffer.
func TestCheckpointUnserializableCallback(t *testing.T) {
	build := func(refuse *bool) *Clock {
		eng := NewClock()
		eng.Register(newStateComp(8))
		eng.Register(&FuncTicker{
			OnTick: func(Slot, Phase) {},
			Save: func(enc *StateEncoder) {
				enc.U64(0xfeed)
				if *refuse {
					enc.Failf("external callback cannot be serialized")
				}
			},
			Load: func(dec *StateDecoder) { dec.U64() },
		})
		eng.Run(5)
		return eng
	}
	refuse := true
	eng := build(&refuse)
	var buf bytes.Buffer
	err := eng.Checkpoint(&buf)
	if err == nil || !strings.Contains(err.Error(), "external callback") {
		t.Fatalf("unserializable state not refused: %v", err)
	}
	if !strings.Contains(err.Error(), "component 1") {
		t.Fatalf("failure does not name the component: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("a refused checkpoint wrote %d bytes", buf.Len())
	}

	refuse = false
	if err := eng.Checkpoint(&buf); err != nil {
		t.Fatalf("checkpoint after the refusal: %v", err)
	}
	var fresh bytes.Buffer
	if err := build(&refuse).Checkpoint(&fresh); err != nil {
		t.Fatalf("fresh checkpoint: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), fresh.Bytes()) {
		t.Fatal("checkpoint after a refused one differs from a fresh engine's")
	}
}

// sizedComp is a Stater whose snapshot size its owner sets: vals is
// saved whole, and LoadState refills it in place.
type sizedComp struct{ vals []uint64 }

func (c *sizedComp) Tick(Slot, Phase) {}

func (c *sizedComp) SaveState(enc *StateEncoder) {
	enc.Int(len(c.vals))
	for _, v := range c.vals {
		enc.U64(v)
	}
}

func (c *sizedComp) LoadState(dec *StateDecoder) {
	n := dec.Count()
	if cap(c.vals) < n {
		c.vals = make([]uint64, n)
	}
	c.vals = c.vals[:n]
	for i := range c.vals {
		c.vals[i] = dec.U64()
	}
}

// buildSizedEngine registers a stateComp and a sizedComp of n values and
// attaches a trace, so a snapshot holds both component and extra
// sections.
func buildSizedEngine(n int) (*Clock, *sizedComp) {
	eng := NewClock()
	eng.Register(newStateComp(3))
	c := &sizedComp{vals: make([]uint64, n)}
	for i := range c.vals {
		c.vals[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	eng.Register(c)
	tr := NewTrace()
	tr.Add(1, "t", "e")
	eng.AttachState("trace", tr)
	eng.Run(10)
	return eng, c
}

// TestSectionFramedInPlace: a section framed in place on the parent
// encoder is byte-identical to Bytes32 of the same section encoded on
// an encoder of its own — the v2 framing the checkpoint codec relies on.
func TestSectionFramedInPlace(t *testing.T) {
	for _, n := range []int{0, 1, 300} {
		c := &sizedComp{vals: make([]uint64, n)}
		for i := range c.vals {
			c.vals[i] = uint64(i + n)
		}
		inPlace := NewStateEncoder()
		inPlace.String("before")
		at := inPlace.beginSection()
		c.SaveState(inPlace)
		inPlace.endSection(at)
		inPlace.Bool(true)

		apart := NewStateEncoder()
		apart.String("before")
		sub := NewStateEncoder()
		c.SaveState(sub)
		apart.Bytes32(sub.Bytes())
		apart.Bool(true)

		if err := inPlace.Err(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(inPlace.Bytes(), apart.Bytes()) {
			t.Fatalf("n=%d: in-place section differs from Bytes32 of the same section", n)
		}
	}
}

// TestCheckpointBufferReuse: one engine checkpoints a large state and
// then a smaller one; each equals a fresh engine's bytes, so nothing of
// the larger snapshot leaks into the smaller through the reused buffer.
// Restoring both into one engine reuses its buffer the same way.
func TestCheckpointBufferReuse(t *testing.T) {
	eng, c := buildSizedEngine(5000)
	snap := func(e *Clock) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := e.Checkpoint(&buf); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		return buf.Bytes()
	}
	large := snap(eng)
	if fresh, _ := buildSizedEngine(5000); !bytes.Equal(large, snap(fresh)) {
		t.Fatal("large checkpoint differs from a fresh engine's")
	}
	c.vals = c.vals[:7]
	small := snap(eng)
	if fresh, _ := buildSizedEngine(7); !bytes.Equal(small, snap(fresh)) {
		t.Fatal("smaller checkpoint after a larger one differs from a fresh engine's")
	}

	dst, _ := buildSizedEngine(0)
	for _, want := range [][]byte{large, small} {
		if err := dst.Restore(bytes.NewReader(want)); err != nil {
			t.Fatalf("restore: %v", err)
		}
		if got := snap(dst); !bytes.Equal(got, want) {
			t.Fatalf("re-checkpoint of a %d-byte restore differs", len(want))
		}
	}
}

// TestRestoreUnsizedReader: a reader that does not report its size —
// here one byte per Read — restores the same state as a bytes.Reader,
// and truncation and corruption are still rejected through it.
func TestRestoreUnsizedReader(t *testing.T) {
	eng, a, b := buildStateEngine(21)
	eng.Run(60)
	var buf bytes.Buffer
	if err := eng.Checkpoint(&buf); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	raw := buf.Bytes()

	dst, a2, b2 := buildStateEngine(0)
	if err := dst.Restore(iotest.OneByteReader(bytes.NewReader(raw))); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if dst.Now() != eng.Now() || a2.fingerprint() != a.fingerprint() || b2.fingerprint() != b.fingerprint() {
		t.Fatal("state restored through a one-byte reader diverged")
	}
	var again bytes.Buffer
	if err := dst.Checkpoint(&again); err != nil {
		t.Fatalf("re-checkpoint: %v", err)
	}
	if !bytes.Equal(again.Bytes(), raw) {
		t.Fatal("re-checkpoint after a one-byte-reader restore differs")
	}

	for _, n := range []int{0, len(checkpointMagic) + 4, len(raw) / 2, len(raw) - 1} {
		e, _, _ := buildStateEngine(21)
		if err := e.Restore(iotest.OneByteReader(bytes.NewReader(raw[:n]))); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	for off := 0; off < len(raw); off += len(raw)/16 + 1 {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x41
		e, _, _ := buildStateEngine(21)
		if err := e.Restore(iotest.OneByteReader(bytes.NewReader(mut))); err == nil {
			t.Fatalf("corruption at byte %d accepted", off)
		}
	}
}

// checkpointAllocs and restoreAllocs are the allocations one Checkpoint
// and one Restore make on a warmed engine whatever the snapshot's size:
// none for the write, and for the read the decoder reused across
// sections.
const (
	checkpointAllocs = 0
	restoreAllocs    = 1
)

// TestCheckpointAllocFree guards the copy-free write path: once the
// engine's codec buffer has grown to the snapshot, a checkpoint
// allocates a fixed, small number of times, however large the state.
func TestCheckpointAllocFree(t *testing.T) {
	for _, n := range []int{10, 20000} {
		eng, _ := buildSizedEngine(n)
		if err := eng.Checkpoint(io.Discard); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		avg := testing.AllocsPerRun(20, func() {
			if err := eng.Checkpoint(io.Discard); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
		})
		if avg != checkpointAllocs {
			t.Errorf("%d values: Checkpoint allocates %v times, want %d", n, avg, checkpointAllocs)
		}
	}
}

// TestRestoreAllocFree guards the view-based read path: a warmed engine
// restores into its codec buffer and decodes every section in place,
// so the allocation count does not grow with the snapshot.
func TestRestoreAllocFree(t *testing.T) {
	for _, n := range []int{10, 20000} {
		eng, _ := buildSizedEngine(n)
		var buf bytes.Buffer
		if err := eng.Checkpoint(&buf); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		r := bytes.NewReader(buf.Bytes())
		if err := eng.Restore(r); err != nil {
			t.Fatalf("restore: %v", err)
		}
		avg := testing.AllocsPerRun(20, func() {
			r.Reset(buf.Bytes())
			if err := eng.Restore(r); err != nil {
				t.Fatalf("restore: %v", err)
			}
		})
		if avg != restoreAllocs {
			t.Errorf("%d values: Restore allocates %v times, want %d", n, avg, restoreAllocs)
		}
	}
}

// FuzzCheckpointRoundTrip drives the two checkpoint invariants:
//
//  1. Arbitrary bytes fed to Restore must error or succeed — never
//     panic, never allocate absurdly (the corrupted/truncated corpus).
//  2. A state derived from the fuzz input must survive checkpoint →
//     restore → re-checkpoint byte-identically (the round-trip
//     property).
func FuzzCheckpointRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(checkpointMagic))
	f.Add([]byte("CFMCKPT\n\x01\x00\x00\x00garbage"))
	valid := func() []byte {
		eng, _, _ := buildStateEngine(11)
		eng.Run(20)
		var buf bytes.Buffer
		if err := eng.Checkpoint(&buf); err != nil {
			f.Fatalf("seed checkpoint: %v", err)
		}
		return buf.Bytes()
	}()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0xff
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Invariant 1: the decoder never panics on arbitrary input.
		eng, _, _ := buildStateEngine(11)
		_ = eng.Restore(bytes.NewReader(data))

		// Invariant 2: round-trip a state seeded from the input.
		seed := fnv1a(data)
		slots := int64(seed%97) + 1
		src, _, _ := buildStateEngine(seed)
		src.Run(slots)
		var buf bytes.Buffer
		if err := src.Checkpoint(&buf); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		dst, _, _ := buildStateEngine(0)
		if err := dst.Restore(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("restore of a fresh checkpoint: %v", err)
		}
		var buf2 bytes.Buffer
		if err := dst.Checkpoint(&buf2); err != nil {
			t.Fatalf("re-checkpoint: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatal("round trip is not byte-identical")
		}
	})
}

// checkWords reads n words from data with Words on one decoder and with
// n scalar U64 reads on another, after the same pre Bool reads, and
// fails unless both leave equal values, Remaining() and error-or-not,
// and a fault inside the run names the failing word's place in it.
func checkWords(t *testing.T, data []byte, pre, n int) {
	t.Helper()
	bulk, scalar := NewStateDecoder(data), NewStateDecoder(data)
	for i := 0; i < pre; i++ {
		bulk.Bool()
		scalar.Bool()
	}
	got := make([]uint64, n)
	for i := range got {
		got[i] = 0xdead // Words must overwrite every entry, as the reads do
	}
	bulk.Words(got)
	want := make([]uint64, n)
	failed := -1 // the word whose scalar read failed first
	for i := range want {
		ok := scalar.Err() == nil
		want[i] = scalar.U64()
		if ok && scalar.Err() != nil {
			failed = i
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pre %d, %d words of % x: word %d = %#x, scalar reads give %#x", pre, n, data, i, got[i], want[i])
		}
	}
	if bulk.Remaining() != scalar.Remaining() || (bulk.Err() == nil) != (scalar.Err() == nil) {
		t.Fatalf("pre %d, %d words of % x: Remaining %d err %v, scalar reads leave %d err %v",
			pre, n, data, bulk.Remaining(), bulk.Err(), scalar.Remaining(), scalar.Err())
	}
	if place := fmt.Sprintf("(word %d of a run of %d)", failed, n); failed >= 0 && !strings.HasSuffix(bulk.Err().Error(), place) {
		t.Fatalf("pre %d, %d words of % x: error %q does not end in %q", pre, n, data, bulk.Err(), place)
	}
}

// wordStream encodes the words 1..n, each of a different kind.
func wordStream(n int) []byte {
	enc := NewStateEncoder()
	for i := 1; i <= n; i++ {
		switch i % 4 {
		case 0:
			enc.U64(uint64(i) << 56)
		case 1:
			enc.I64(-int64(i))
		case 2:
			enc.Int(i)
		default:
			enc.Slot(Slot(i) << 20)
		}
	}
	return enc.Bytes()
}

// TestStateWordsMatchScalar binds Words to len(dst) scalar reads: whole
// runs, runs cut at every byte, a foreign tag at every word, a failed
// decoder, and a run followed by other values.
func TestStateWordsMatchScalar(t *testing.T) {
	const words = 6
	full := wordStream(words)
	for n := 0; n <= words+1; n++ {
		checkWords(t, full, 0, n)
		for cut := 0; cut < len(full); cut++ {
			checkWords(t, full[:cut], 0, n)
		}
		for w := 0; w < words; w++ {
			for _, tag := range []byte{tagBool, tagBytes, tagString, 0} {
				bad := bytes.Clone(full)
				bad[9*w] = tag
				checkWords(t, bad, 0, n)
			}
		}
		checkWords(t, full, 1, n) // the first read fails: every word reads 0
	}
	enc := NewStateEncoder()
	enc.Bool(true)
	enc.U64(7)
	enc.I64(-7)
	enc.String("tail")
	for n := 0; n <= 3; n++ {
		checkWords(t, enc.Bytes(), 1, n)
	}
}

// FuzzStateWords checks Words against scalar reads on arbitrary input.
func FuzzStateWords(f *testing.F) {
	f.Add(wordStream(5), uint8(0), uint8(5))
	f.Add(wordStream(5)[:30], uint8(0), uint8(5))
	f.Add([]byte{tagBool, 1, tagWord, 1, 2, 3, 4, 5, 6, 7, 8, tagWord}, uint8(1), uint8(2))
	for _, w := range []int{0, 2} { // a whole run in range with one wrong tag
		foreign := wordStream(5)
		foreign[9*w] = tagBool
		f.Add(foreign, uint8(0), uint8(5))
	}
	f.Fuzz(func(t *testing.T, data []byte, pre, n uint8) {
		checkWords(t, data, int(pre%4), int(n))
	})
}
