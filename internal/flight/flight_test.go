package flight

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"cfm/internal/sim"
)

func TestStageStrings(t *testing.T) {
	for s := Stage(0); s < numStages; s++ {
		name := s.String()
		if name == "" || strings.HasPrefix(name, "stage(") {
			t.Errorf("stage %d has no name", s)
		}
	}
	if got := Stage(250).String(); got != "stage(250)" {
		t.Errorf("out-of-range stage renders %q", got)
	}
	if Stages() != int(numStages) {
		t.Errorf("Stages() = %d, want %d", Stages(), numStages)
	}
}

func TestComposeIDRoundTrip(t *testing.T) {
	cases := []struct {
		actor  int
		issued sim.Slot
	}{
		{0, 0}, {1, 1}, {7, 12345}, {255, 1 << 31}, {1 << 20, 99},
	}
	for _, c := range cases {
		id := ComposeID(c.actor, c.issued)
		if got := IDActor(id); got != c.actor {
			t.Errorf("IDActor(ComposeID(%d,%d)) = %d", c.actor, c.issued, got)
		}
		if got := IDIssued(id); got != uint32(c.issued) {
			t.Errorf("IDIssued(ComposeID(%d,%d)) = %d", c.actor, c.issued, got)
		}
	}
	// Distinct (actor, slot) pairs must yield distinct IDs.
	seen := map[uint64]bool{}
	for actor := 0; actor < 8; actor++ {
		for slot := sim.Slot(0); slot < 8; slot++ {
			id := ComposeID(actor, slot)
			if seen[id] {
				t.Fatalf("duplicate ID %x for actor=%d slot=%d", id, actor, slot)
			}
			seen[id] = true
		}
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports Enabled")
	}
	r.Emit(1, 2, StageIssue, 3, 4) // must not panic
	r.Append(Event{})
	r.Reset()
	if r.Len() != 0 || r.Cap() != 0 || r.Dropped() != 0 {
		t.Error("nil recorder reports non-zero sizes")
	}
	if r.Events() != nil {
		t.Error("nil recorder returns events")
	}
	if got, want := r.Digest(), uint64(fnvOffset64); got != want {
		t.Errorf("nil digest %x, want offset basis %x", got, want)
	}
}

func TestRecorderFillAndWrap(t *testing.T) {
	r := NewRecorder(4)
	if !r.Enabled() {
		t.Fatal("recorder not enabled")
	}
	if r.Cap() != 4 {
		t.Fatalf("cap %d, want 4", r.Cap())
	}
	for i := 0; i < 3; i++ {
		r.Emit(uint64(i), sim.Slot(i), StageIssue, int32(i), 0)
	}
	if r.Len() != 3 || r.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d after 3 emits", r.Len(), r.Dropped())
	}
	evs := r.Events()
	for i, ev := range evs {
		if ev.ID != uint64(i) {
			t.Errorf("event %d has ID %d", i, ev.ID)
		}
	}
	// Push past capacity: the oldest two events fall off.
	for i := 3; i < 6; i++ {
		r.Emit(uint64(i), sim.Slot(i), StageRetire, int32(i), 1)
	}
	if r.Len() != 4 {
		t.Fatalf("len %d after wrap, want 4", r.Len())
	}
	if r.Dropped() != 2 {
		t.Fatalf("dropped %d after wrap, want 2", r.Dropped())
	}
	evs = r.Events()
	want := []uint64{2, 3, 4, 5}
	for i, ev := range evs {
		if ev.ID != want[i] {
			t.Errorf("post-wrap event %d has ID %d, want %d", i, ev.ID, want[i])
		}
	}
}

func TestRecorderClampsLimit(t *testing.T) {
	if got := NewRecorder(0).Cap(); got != DefaultLimit {
		t.Errorf("limit 0 gives cap %d, want DefaultLimit", got)
	}
	if got := NewRecorder(-5).Cap(); got != DefaultLimit {
		t.Errorf("limit -5 gives cap %d, want DefaultLimit", got)
	}
}

func TestRecorderReset(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 5; i++ {
		r.Emit(uint64(i), sim.Slot(i), StageHop, 0, 0)
	}
	d := r.Digest()
	r.Reset()
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Fatal("reset did not empty the ring")
	}
	if r.Digest() == d {
		t.Error("digest unchanged by reset of a non-empty ring")
	}
	// Refill identically: digest must reproduce.
	for i := 0; i < 5; i++ {
		r.Emit(uint64(i), sim.Slot(i), StageHop, 0, 0)
	}
	if r.Digest() != d {
		t.Error("identical refill digests differently")
	}
}

func TestDigestSensitivity(t *testing.T) {
	base := func() *Recorder {
		r := NewRecorder(8)
		r.Emit(1, 10, StageIssue, 2, 3)
		r.Emit(1, 12, StageRetire, 2, 2)
		return r
	}
	d0 := base().Digest()
	perturb := []func(r *Recorder){
		func(r *Recorder) { r.Emit(1, 13, StageHop, 2, 0) },  // extra event
		func(r *Recorder) { r.events[0].ID = 9 },             // field change
		func(r *Recorder) { r.events[1].Slot = 13 },          // slot change
		func(r *Recorder) { r.events[1].Stage = StageReply }, // stage change
		func(r *Recorder) { r.events[0].Actor = 5 },          // actor change
		func(r *Recorder) { r.events[0].Arg = 4 },            // arg change
		func(r *Recorder) { r.dropped = 1 },                  // drop count
	}
	for i, p := range perturb {
		r := base()
		p(r)
		if r.Digest() == d0 {
			t.Errorf("perturbation %d not visible in digest", i)
		}
	}
	if base().Digest() != d0 {
		t.Error("digest not deterministic")
	}
}

func TestEmitZeroAlloc(t *testing.T) {
	var nilRec *Recorder
	if n := testing.AllocsPerRun(100, func() {
		nilRec.Emit(1, 2, StageIssue, 3, 4)
	}); n != 0 {
		t.Errorf("disabled Emit allocates %v/op, want 0", n)
	}
	r := NewRecorder(16)
	slot := sim.Slot(0)
	if n := testing.AllocsPerRun(100, func() {
		r.Emit(ComposeID(1, slot), slot, StageBankService, 1, 4)
		slot++
	}); n != 0 {
		t.Errorf("enabled Emit allocates %v/op, want 0 (ring is preallocated)", n)
	}
	// Wrapping emits must not allocate either.
	if n := testing.AllocsPerRun(100, func() {
		r.Emit(ComposeID(2, slot), slot, StageHop, 2, 0)
		slot++
	}); n != 0 {
		t.Errorf("wrapping Emit allocates %v/op, want 0", n)
	}
}

func TestRecorderStateRoundTrip(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 6; i++ { // wraps: dropped=2
		r.Emit(ComposeID(i, sim.Slot(10+i)), sim.Slot(10+i), StageIssue, int32(i), int64(i))
	}
	enc := sim.NewStateEncoder()
	r.SaveState(enc)
	if enc.Err() != nil {
		t.Fatalf("encode: %v", enc.Err())
	}

	fresh := NewRecorder(4)
	dec := sim.NewStateDecoder(enc.Bytes())
	fresh.LoadState(dec)
	if dec.Err() != nil {
		t.Fatalf("decode: %v", dec.Err())
	}
	if fresh.Digest() != r.Digest() {
		t.Error("restored recorder digests differently")
	}
	if fresh.Dropped() != r.Dropped() {
		t.Errorf("restored dropped %d, want %d", fresh.Dropped(), r.Dropped())
	}

	// Capacity mismatch must fail loudly, not silently truncate.
	small := NewRecorder(2)
	dec = sim.NewStateDecoder(enc.Bytes())
	small.LoadState(dec)
	if dec.Err() == nil {
		t.Error("capacity mismatch not rejected")
	}
}

func TestRecorderStateRejectsBadStage(t *testing.T) {
	enc := sim.NewStateEncoder()
	enc.Int(4)                     // capacity
	enc.U64(0)                     // dropped
	enc.Int(1)                     // count
	enc.U64(1)                     // id
	enc.Slot(2)                    // slot
	enc.U64(uint64(numStages) + 3) // stage out of range
	enc.I64(0)                     // actor
	enc.I64(0)                     // arg
	r := NewRecorder(4)
	dec := sim.NewStateDecoder(enc.Bytes())
	r.LoadState(dec)
	if dec.Err() == nil {
		t.Error("out-of-range stage accepted")
	}
}

// appendTwins feeds evs to got in one AppendAll and to want one Append
// at a time.
func appendTwins(got, want *Recorder, evs []Event) {
	got.AppendAll(evs)
	for _, ev := range evs {
		want.Append(ev)
	}
}

// recorderState returns the SaveState bytes of r.
func recorderState(t *testing.T, r *Recorder) []byte {
	t.Helper()
	enc := sim.NewStateEncoder()
	r.SaveState(enc)
	if err := enc.Err(); err != nil {
		t.Fatal(err)
	}
	return enc.Bytes()
}

// TestRecorderAppendAllMatchesAppend binds AppendAll to its definition:
// after every batch — empty, ending exactly at the wrap, longer than the
// ring, starting at any head — the ring reads as after one Append per
// event.
func TestRecorderAppendAllMatchesAppend(t *testing.T) {
	var nilRec *Recorder
	nilRec.AppendAll([]Event{{ID: 1}}) // must not panic
	for _, capacity := range []int{1, 2, 7, 64} {
		got, want := NewRecorder(capacity), NewRecorder(capacity)
		next := uint64(0)
		batch := func(n int) []Event {
			evs := make([]Event, n)
			for i := range evs {
				next++
				evs[i] = Event{ID: next, Slot: sim.Slot(next), Stage: Stage(next % uint64(numStages)),
					Actor: int32(next * 3), Arg: -int64(next)}
			}
			return evs
		}
		sizes := []int{0, capacity, 0, 1, capacity - 1, 2*capacity + 3, 0, 3, capacity, 5*capacity + 1, 1}
		for i := 0; i < 3*capacity; i++ { // batches starting at every head
			sizes = append(sizes, 1+i%3, capacity-i%capacity)
		}
		for step, n := range sizes {
			appendTwins(got, want, batch(n))
			if got.head != want.head || !slices.Equal(got.events, want.events) {
				t.Fatalf("cap %d, batch %d of %d: ring storage or head %d differs from the per-event twin's (head %d)",
					capacity, step, n, got.head, want.head)
			}
			if got.Len() != want.Len() || got.Dropped() != want.Dropped() || got.Digest() != want.Digest() {
				t.Fatalf("cap %d, batch %d of %d: Len/Dropped/Digest %d/%d/%x, per-event twin %d/%d/%x",
					capacity, step, n, got.Len(), got.Dropped(), got.Digest(), want.Len(), want.Dropped(), want.Digest())
			}
			if g, w := got.Events(), want.Events(); !slices.Equal(g, w) {
				t.Fatalf("cap %d, batch %d of %d: Events %v, per-event twin %v", capacity, step, n, g, w)
			}
			if g, w := recorderState(t, got), recorderState(t, want); !bytes.Equal(g, w) {
				t.Fatalf("cap %d, batch %d of %d: SaveState bytes differ from the per-event twin's", capacity, step, n)
			}
		}
	}
}

// TestRecorderAppendAllAllocFree guards the bulk drain: a batch that
// fills, wraps or overruns the preallocated ring allocates nothing.
func TestRecorderAppendAllAllocFree(t *testing.T) {
	r := NewRecorder(16)
	evs := make([]Event, 11)
	var nilRec *Recorder
	if n := testing.AllocsPerRun(100, func() { nilRec.AppendAll(evs) }); n != 0 {
		t.Errorf("disabled AppendAll allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { r.AppendAll(evs) }); n != 0 {
		t.Errorf("AppendAll allocates %v/op, want 0 (ring is preallocated)", n)
	}
	long := make([]Event, 40)
	if n := testing.AllocsPerRun(100, func() { r.AppendAll(long) }); n != 0 {
		t.Errorf("AppendAll of a batch longer than the ring allocates %v/op, want 0", n)
	}
}

// TestRecorderLoadStateMatchesEmits checks the one-pass ring decode
// against the ring Reset and one Emit per saved event build, across the
// decoder's chunk boundary, and that a truncated section still fails.
func TestRecorderLoadStateMatchesEmits(t *testing.T) {
	for _, capacity := range []int{1, 5, loadChunk, loadChunk + 1, 3*loadChunk + 7} {
		for _, emits := range []int{0, 1, capacity - 1, capacity, 2*capacity + 1} {
			src := NewRecorder(capacity)
			for i := 0; i < emits; i++ {
				src.Emit(ComposeID(i, sim.Slot(i)), sim.Slot(i), Stage(i%int(numStages)), int32(-i), int64(i)<<40)
			}
			saved := recorderState(t, src)
			got := NewRecorder(capacity)
			got.Emit(99, 99, StageHop, 99, 99) // stale contents the load must replace
			dec := sim.NewStateDecoder(saved)
			got.LoadState(dec)
			if err := dec.Err(); err != nil || dec.Remaining() != 0 {
				t.Fatalf("cap %d emits %d: load err %v, %d bytes unread", capacity, emits, err, dec.Remaining())
			}
			want := NewRecorder(capacity)
			for _, ev := range src.Events() {
				want.Emit(ev.ID, ev.Slot, ev.Stage, ev.Actor, ev.Arg)
			}
			want.dropped = src.dropped
			if got.Digest() != want.Digest() || !slices.Equal(got.Events(), want.Events()) {
				t.Fatalf("cap %d emits %d: loaded ring differs from the emitted one", capacity, emits)
			}
			if !bytes.Equal(recorderState(t, got), saved) {
				t.Fatalf("cap %d emits %d: loaded ring does not save the bytes it loaded", capacity, emits)
			}
			dec = sim.NewStateDecoder(saved[:len(saved)-1])
			NewRecorder(capacity).LoadState(dec)
			if dec.Err() == nil {
				t.Fatalf("cap %d emits %d: truncated section accepted", capacity, emits)
			}
		}
	}
}
