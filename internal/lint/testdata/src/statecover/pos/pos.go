// Package pos hosts Staters that break the checkpoint-coverage
// contract: dropped persistent fields, one-sided encodes, missing and
// stale markers, and save/load traces that diverge in order, arity, or
// branch shape. Every marked line must be reported.
package pos

import "cfm/internal/sim"

// Dropped advances credits every tick but neither encodes nor restores
// it: a resumed run silently starts from a different ledger.
type Dropped struct {
	kept    uint64
	credits int // want "persistent field Dropped.credits"
}

func (m *Dropped) Tick(t sim.Slot, ph sim.Phase) {
	m.kept++
	m.credits--
}

func (m *Dropped) SaveState(enc *sim.StateEncoder) { enc.U64(m.kept) }
func (m *Dropped) LoadState(dec *sim.StateDecoder) { m.kept = dec.U64() }

// SaveOnly writes tail into the snapshot and then never reads it back —
// both the coverage and the symmetry halves of the pass see it.
type SaveOnly struct {
	head int
	tail int // want "encoded in SaveState but never restored"
}

func (m *SaveOnly) Tick(t sim.Slot, ph sim.Phase) {
	m.head++
	m.tail++
}

func (m *SaveOnly) SaveState(enc *sim.StateEncoder) {
	enc.Int(m.head)
	enc.Int(m.tail) // want "SaveState writes int that LoadState never reads"
}

func (m *SaveOnly) LoadState(dec *sim.StateDecoder) { m.head = dec.Int() }

// Unmarked legitimately rebuilds peak from the decoded slice, but the
// derived-state contract must be spelled out on the field.
type Unmarked struct {
	depth []int
	peak  int // want "mark the field //cfm:rebuilt"
}

func (m *Unmarked) Tick(t sim.Slot, ph sim.Phase) { m.peak = len(m.depth) }

func (m *Unmarked) SaveState(enc *sim.StateEncoder) {
	enc.Int(len(m.depth))
	for _, v := range m.depth {
		enc.Int(v)
	}
}

func (m *Unmarked) LoadState(dec *sim.StateDecoder) {
	m.depth = m.depth[:0]
	for n := dec.Count(); n > 0; n-- {
		m.depth = append(m.depth, dec.Int())
	}
	m.peak = len(m.depth)
}

// Scratch waives tmp without saying why a checkpoint may drop it.
type Scratch struct {
	//cfm:no-save
	tmp []int // want "bare //cfm:no-save"
	n   int
}

func (m *Scratch) Tick(t sim.Slot, ph sim.Phase) { m.tmp = append(m.tmp, int(t)) }

func (m *Scratch) SaveState(enc *sim.StateEncoder) { enc.Int(m.n) }
func (m *Scratch) LoadState(dec *sim.StateDecoder) { m.n = dec.Int() }

// StaleWaiver still carries the no-save waiver from before gen was
// added to the wire format.
type StaleWaiver struct {
	//cfm:no-save reset at phase start anyway
	gen uint64 // want "waiver is stale"
}

func (m *StaleWaiver) Tick(t sim.Slot, ph sim.Phase) { m.gen++ }

func (m *StaleWaiver) SaveState(enc *sim.StateEncoder) { enc.U64(m.gen) }
func (m *StaleWaiver) LoadState(dec *sim.StateDecoder) { m.gen = dec.U64() }

// StaleHelperWaiver waives gen, yet SaveState hands the encoder to a
// helper that encodes it.
type StaleHelperWaiver struct {
	//cfm:no-save reset at phase start anyway
	gen uint64 // want "waiver is stale"
}

func (m *StaleHelperWaiver) Tick(t sim.Slot, ph sim.Phase) { m.gen++ }

func (m *StaleHelperWaiver) saveGen(enc *sim.StateEncoder) { enc.U64(m.gen) }
func (m *StaleHelperWaiver) loadGen(dec *sim.StateDecoder) { m.gen = dec.U64() }

func (m *StaleHelperWaiver) SaveState(enc *sim.StateEncoder) { m.saveGen(enc) }
func (m *StaleHelperWaiver) LoadState(dec *sim.StateDecoder) { m.loadGen(dec) }

// Settled reads through in SaveState only to settle what it owes, and
// resets it in LoadState: the settle helper is not handed the encoder,
// so through is rebuilt, not saved, and needs the marker.
type Settled struct {
	owed    sim.Slot
	through sim.Slot // want "mark the field //cfm:rebuilt"
}

func (m *Settled) Tick(t sim.Slot, ph sim.Phase) { m.through = t }

func (m *Settled) settle() {
	for m.owed <= m.through {
		m.owed++
	}
}

func (m *Settled) SaveState(enc *sim.StateEncoder) {
	m.settle()
	enc.Slot(m.owed)
}

func (m *Settled) LoadState(dec *sim.StateDecoder) {
	m.owed = dec.Slot()
	m.through = -1
}

// StaleRebuilt claims cache is derived, yet SaveState encodes it.
type StaleRebuilt struct {
	//cfm:rebuilt
	cache int // want "marker is stale"
}

func (m *StaleRebuilt) Tick(t sim.Slot, ph sim.Phase) { m.cache++ }

func (m *StaleRebuilt) SaveState(enc *sim.StateEncoder) { enc.Int(m.cache) }
func (m *StaleRebuilt) LoadState(dec *sim.StateDecoder) { m.cache = dec.Int() }

// Shuffled restores the fields in the opposite order from the save —
// the wire words land in the wrong fields.
type Shuffled struct {
	a uint64
	b int
}

func (m *Shuffled) Tick(t sim.Slot, ph sim.Phase) {
	m.a++
	m.b++
}

func (m *Shuffled) SaveState(enc *sim.StateEncoder) {
	enc.U64(m.a)
	enc.Int(m.b)
}

func (m *Shuffled) LoadState(dec *sim.StateDecoder) {
	m.b = dec.Int() // want "SaveState writes u64 .* where LoadState reads int"
	m.a = dec.U64()
}

// Lopsided reads one word more than the snapshot holds.
type Lopsided struct {
	n int
}

func (m *Lopsided) Tick(t sim.Slot, ph sim.Phase) { m.n++ }

func (m *Lopsided) SaveState(enc *sim.StateEncoder) { enc.Int(m.n) }

func (m *Lopsided) LoadState(dec *sim.StateDecoder) {
	m.n = dec.Int()
	_ = dec.U64() // want "LoadState reads u64 that SaveState never wrote"
}

// Armed moves bytes in one conditional arm on save but in two on load:
// the else arm reads a word the snapshot only sometimes wrote.
type Armed struct {
	hot  bool
	heat uint64
}

func (m *Armed) Tick(t sim.Slot, ph sim.Phase) { m.heat++ }

func (m *Armed) SaveState(enc *sim.StateEncoder) {
	enc.Bool(m.hot)
	if m.hot {
		enc.U64(m.heat)
	}
}

func (m *Armed) LoadState(dec *sim.StateDecoder) {
	m.hot = dec.Bool()
	if m.hot { // want "1 arm.s. on save .* but 2 on load"
		m.heat = dec.U64()
	} else {
		m.heat = dec.U64()
	}
}
