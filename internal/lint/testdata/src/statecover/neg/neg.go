// Package neg holds checkpointable tickers that honor the coverage
// contract through every idiom the pass must tolerate: nested save
// framing against flat load replay, guard branches whose skip arm moves
// no bytes, paired save/load helpers (methods, package functions, and
// the sim.SaveSlots/LoadSlots pair), processor-order codecs over
// permuted storage, reasoned no-save waivers, rebuilt markers, excluded
// callback fields, and codec escapes that stand the symmetry check down.
// The pass must stay silent.
package neg

import "cfm/internal/sim"

// req is a payload record with a paired helper codec.
type req struct {
	proc int
	when sim.Slot
}

func saveReq(enc *sim.StateEncoder, r req) {
	enc.Int(r.proc)
	enc.Slot(r.when)
}

func loadReq(dec *sim.StateDecoder) req {
	return req{proc: dec.Int(), when: dec.Slot()}
}

// cell is a sub-object mutated through a method: the write-effect
// summary must still mark the owning field persistent.
type cell struct{ v uint64 }

func (c *cell) add(d uint64) { c.v += d }

// Mirror round-trips every persistent field.
type Mirror struct {
	count   uint64
	bias    int64
	label   string
	hash    []byte
	arrival []sim.Slot
	rows    [][]uint64
	cells   []cell
	inbox   []req
	rng     *sim.RNG
	//cfm:no-save per-phase staging, drained before every checkpoint boundary
	stage []req
	//cfm:rebuilt
	peak   int
	onDrop func(req)
}

func (m *Mirror) Tick(t sim.Slot, ph sim.Phase) {
	m.count++
	m.bias--
	m.arrival = append(m.arrival, t)
	m.inbox = append(m.inbox, req{proc: 0, when: t})
	m.stage = append(m.stage, req{})
	m.cells[0].add(1)
	if m.peak < len(m.inbox) {
		m.peak = len(m.inbox)
	}
	m.fold()
}

// fold is one hop down the tick graph; its writes count too.
func (m *Mirror) fold() {
	m.rows = append(m.rows, nil)
	m.label = "folded"
	m.hash = m.hash[:0]
	m.onDrop = nil
}

func (m *Mirror) SaveState(enc *sim.StateEncoder) {
	enc.U64(m.count)
	enc.I64(m.bias)
	enc.String(m.label)
	enc.Bytes32(m.hash)
	sim.SaveSlots(enc, m.arrival)
	// Nested framing: a length per row, then the row words.
	enc.Int(len(m.rows))
	for _, row := range m.rows {
		enc.Int(len(row))
		for _, v := range row {
			enc.U64(v)
		}
	}
	enc.Int(len(m.cells))
	for i := range m.cells {
		enc.U64(m.cells[i].v)
	}
	// Presence guard: the save arm moves bytes, the skip arm is empty.
	enc.Bool(m.rng != nil)
	if m.rng != nil {
		enc.RNG(m.rng)
	}
	enc.Int(len(m.inbox))
	for _, r := range m.inbox {
		saveReq(enc, r)
	}
}

func (m *Mirror) LoadState(dec *sim.StateDecoder) {
	m.count = dec.U64()
	m.bias = dec.I64()
	m.label = dec.String()
	m.hash = dec.Bytes32()
	sim.LoadSlots(dec, m.arrival)
	m.rows = make([][]uint64, dec.Count())
	for i := range m.rows {
		row := make([]uint64, dec.Count())
		for j := range row {
			row[j] = dec.U64()
		}
		m.rows[i] = row
	}
	m.cells = make([]cell, dec.Count())
	for i := range m.cells {
		m.cells[i].v = dec.U64()
	}
	// The reset arm moves no bytes, so it pairs with save's lone arm.
	if dec.Bool() {
		dec.RNG(m.rng)
	} else {
		m.rng = nil
	}
	m.inbox = m.inbox[:0]
	for n := dec.Count(); n > 0; n-- {
		m.inbox = append(m.inbox, loadReq(dec))
	}
	m.stage = m.stage[:0]
	m.peak = len(m.inbox)
}

// Hooked hands the encoder to a configured hook: the trace escapes the
// model, so the symmetry check stands down (the wire format's type tags
// and the resume-equivalence tests are the backstop).
type Hooked struct {
	n    int
	hook func(*sim.StateEncoder)
}

func (h *Hooked) Tick(t sim.Slot, ph sim.Phase) { h.n++ }

func (h *Hooked) SaveState(enc *sim.StateEncoder) {
	enc.Int(h.n)
	h.hook(enc)
}

func (h *Hooked) LoadState(dec *sim.StateDecoder) { h.n = dec.Int() }

// Paired saves through a method helper pair on its own type.
type Paired struct {
	ring []uint64
	rpos int
}

func (p *Paired) Tick(t sim.Slot, ph sim.Phase) {
	p.ring[p.rpos] = uint64(t)
	p.rpos = (p.rpos + 1) % len(p.ring)
}

func (p *Paired) SaveState(enc *sim.StateEncoder) { p.saveRing(enc) }
func (p *Paired) LoadState(dec *sim.StateDecoder) { p.loadRing(dec) }

func (p *Paired) saveRing(enc *sim.StateEncoder) {
	enc.Int(p.rpos)
	enc.Int(len(p.ring))
	for _, v := range p.ring {
		enc.U64(v)
	}
}

func (p *Paired) loadRing(dec *sim.StateDecoder) {
	p.rpos = dec.Int()
	p.ring = make([]uint64, dec.Count())
	for i := range p.ring {
		p.ring[i] = dec.U64()
	}
}

// Permuted stores its per-processor arrays set-major but snapshots them
// in processor order: each codec loop walks processors and indexes the
// storage through the index map at, directly or inside a paired
// save/load helper.
type Permuted struct {
	sets, per int
	rngs      []sim.RNG
	wake      []sim.Slot
	state     []uint8
}

func (m *Permuted) at(i int) int { return i%m.sets*m.per + i/m.sets }

func (m *Permuted) Tick(t sim.Slot, ph sim.Phase) {
	for j := range m.wake {
		m.wake[j] = t + sim.Slot(m.rngs[j].Intn(4))
		m.state[j]++
	}
}

func (m *Permuted) SaveState(enc *sim.StateEncoder) {
	enc.Int(len(m.rngs))
	for i := range m.rngs {
		enc.RNG(&m.rngs[m.at(i)])
	}
	m.saveSlots(enc, m.wake)
	enc.Int(len(m.state))
	for i := range m.state {
		enc.Int(int(m.state[m.at(i)]))
	}
}

func (m *Permuted) LoadState(dec *sim.StateDecoder) {
	if n := dec.Count(); n != len(m.rngs) && dec.Err() == nil {
		dec.Failf("snapshot has %d streams, system has %d", n, len(m.rngs))
		return
	}
	for i := range m.rngs {
		dec.RNG(&m.rngs[m.at(i)])
	}
	m.loadSlots(dec, m.wake)
	if n := dec.Count(); n != len(m.state) && dec.Err() == nil {
		dec.Failf("snapshot has %d states, system has %d", n, len(m.state))
		return
	}
	for i := range m.state {
		m.state[m.at(i)] = uint8(dec.Int())
	}
}

func (m *Permuted) saveSlots(enc *sim.StateEncoder, s []sim.Slot) {
	enc.Int(len(s))
	for i := range s {
		enc.Slot(s[m.at(i)])
	}
}

func (m *Permuted) loadSlots(dec *sim.StateDecoder, s []sim.Slot) {
	if n := dec.Count(); n != len(s) && dec.Err() == nil {
		dec.Failf("snapshot has %d slots, system has %d", n, len(s))
		return
	}
	for i := range s {
		s[m.at(i)] = dec.Slot()
	}
}

// Lazy defers work its ticks could do at once and settles it in SaveState
// before the encode. SaveState reads the deferral bound through the
// settle helper, which is not handed the encoder, so the waiver on the
// bound is not stale.
type Lazy struct {
	owed sim.Slot
	//cfm:no-save SaveState settles everything owed through it, so a restore owes nothing
	through sim.Slot
}

func (m *Lazy) Tick(t sim.Slot, ph sim.Phase) { m.through = t }

func (m *Lazy) settle() {
	for m.owed <= m.through {
		m.owed++
	}
}

func (m *Lazy) SaveState(enc *sim.StateEncoder) {
	m.settle()
	enc.Slot(m.owed)
}

func (m *Lazy) LoadState(dec *sim.StateDecoder) {
	m.owed = dec.Slot()
	m.through = -1
}
