package memory

import (
	"math/bits"

	"cfm/internal/sim"
)

// SaveState implements sim.Stater for the arena: for each bank in
// order, its contents (ascending by offset, so the snapshot is
// byte-stable and matches the sorted-map format of earlier revisions
// exactly), timing state, and statistics. Bank count and cycle are
// configuration.
func (ar *BankArena) SaveState(enc *sim.StateEncoder) {
	for i := 0; i < ar.nbanks; i++ {
		ar.saveBank(enc, i)
	}
}

// LoadState implements sim.Stater.
func (ar *BankArena) LoadState(dec *sim.StateDecoder) {
	for i := 0; i < ar.nbanks && dec.Err() == nil; i++ {
		ar.loadBank(dec, i)
	}
}

// saveBank encodes bank i.
func (ar *BankArena) saveBank(enc *sim.StateEncoder, i int) {
	n := 0
	for pn := 0; pn < len(ar.dir); pn++ {
		if g := ar.dir[pn]; g >= 0 {
			n += bits.OnesCount64(ar.present[int(g)*ar.nbanks+i])
		}
	}
	enc.Int(n)
	for pn := 0; pn < len(ar.dir); pn++ {
		g := ar.dir[pn]
		if g < 0 {
			continue
		}
		base := int(g)*ar.nbanks + i
		pres := ar.present[base]
		if pres == 0 {
			continue
		}
		for b := 0; b < pageWords; b++ {
			if pres>>uint(b)&1 == 0 {
				continue
			}
			enc.Int(pn<<pageShift | b)
			enc.U64(uint64(ar.words[(base<<pageShift)+b]))
		}
	}
	enc.Slot(ar.busyTill[i])
	enc.I64(ar.accesses[i])
	enc.I64(ar.conflicts[i])
}

// loadBank restores bank i from a saveBank stream.
func (ar *BankArena) loadBank(dec *sim.StateDecoder, i int) {
	ar.clearBank(i)
	n := dec.Count()
	for k := 0; k < n && dec.Err() == nil; k++ {
		o := dec.Int()
		if dec.Err() != nil {
			break
		}
		if o < 0 || o > maxSnapshotOffset {
			dec.Failf("memory: implausible word offset %d in snapshot", o)
			return
		}
		ar.storeWord(i, o, Word(dec.U64()))
	}
	ar.busyTill[i] = dec.Slot()
	ar.accesses[i] = dec.I64()
	ar.conflicts[i] = dec.I64()
}

// SaveBlock encodes a block (length + words) for higher layers that
// snapshot in-flight accesses.
func SaveBlock(enc *sim.StateEncoder, b Block) {
	enc.Int(len(b))
	for _, w := range b {
		enc.U64(uint64(w))
	}
}

// LoadBlock decodes a block written by SaveBlock.
func LoadBlock(dec *sim.StateDecoder) Block {
	n := dec.Count()
	if n == 0 || dec.Err() != nil {
		return nil
	}
	b := make(Block, n)
	for i := range b {
		b[i] = Word(dec.U64())
	}
	return b
}

// saveProcStates encodes a []procState with its length.
func saveProcStates(enc *sim.StateEncoder, s []procState) {
	enc.Int(len(s))
	for _, v := range s {
		enc.Int(int(v))
	}
}

// loadProcStates restores a []procState in place (length fixed by
// configuration).
func loadProcStates(dec *sim.StateDecoder, s []procState) {
	if n := dec.Count(); n != len(s) && dec.Err() == nil {
		dec.Failf("memory: snapshot has %d processor states, system has %d", n, len(s))
		return
	}
	for i := range s {
		v := dec.Int()
		if v < int(procIdle) || v > int(procInFlight) {
			dec.Failf("memory: invalid processor state %d", v)
			return
		}
		s[i] = procState(v)
	}
}

// SaveState implements sim.Stater for the conventional baseline: the RNG
// stream, module timing, every processor automaton (state, wake/done/
// issue slots, open-loop arrival clocks, backlog queues, chosen
// modules), and the public measurements.
func (c *Conventional) SaveState(enc *sim.StateEncoder) {
	enc.RNG(c.rng)
	sim.SaveSlots(enc, c.mods)
	saveProcStates(enc, c.state)
	sim.SaveSlots(enc, c.wakeAt)
	sim.SaveSlots(enc, c.doneAt)
	sim.SaveSlots(enc, c.issuedAt)
	sim.SaveSlots(enc, c.nextArrival)
	enc.Int(len(c.backlog))
	for i := range c.backlog {
		sim.SaveQueue(enc, &c.backlog[i], func(e *sim.StateEncoder, v sim.Slot) { e.Slot(v) })
	}
	enc.Int(len(c.targetMod))
	for _, m := range c.targetMod {
		enc.Int(m)
	}
	enc.I64(c.Completed)
	enc.I64(c.Retries)
	enc.I64(c.TotalLatency)
	enc.I64(c.TotalQueued)
}

// LoadState implements sim.Stater.
func (c *Conventional) LoadState(dec *sim.StateDecoder) {
	dec.RNG(c.rng)
	sim.LoadSlots(dec, c.mods)
	loadProcStates(dec, c.state)
	sim.LoadSlots(dec, c.wakeAt)
	sim.LoadSlots(dec, c.doneAt)
	sim.LoadSlots(dec, c.issuedAt)
	sim.LoadSlots(dec, c.nextArrival)
	if n := dec.Count(); n != len(c.backlog) && dec.Err() == nil {
		dec.Failf("memory: snapshot has %d backlogs, system has %d", n, len(c.backlog))
		return
	}
	for i := range c.backlog {
		sim.LoadQueue(dec, &c.backlog[i], func(d *sim.StateDecoder) sim.Slot { return d.Slot() })
	}
	if n := dec.Count(); n != len(c.targetMod) && dec.Err() == nil {
		dec.Failf("memory: snapshot has %d target modules, system has %d", n, len(c.targetMod))
		return
	}
	for i := range c.targetMod {
		c.targetMod[i] = dec.Int()
	}
	c.Completed = dec.I64()
	c.Retries = dec.I64()
	c.TotalLatency = dec.I64()
	c.TotalQueued = dec.I64()
}
