package network

import (
	"cfm/internal/sim"
)

// savePacket and loadPacket encode one in-network packet. The flight
// ID is part of the checkpoint (format v2): a restored packet must
// keep contributing hop events to the same span.
func savePacket(enc *sim.StateEncoder, p Packet) {
	enc.U64(p.ID)
	enc.Int(p.Dest)
	enc.Slot(p.Born)
	enc.Bool(p.Hot)
}

func loadPacket(dec *sim.StateDecoder) Packet {
	return Packet{ID: dec.U64(), Dest: dec.Int(), Born: dec.Slot(), Hot: dec.Bool()}
}

// SaveState implements sim.Stater for the buffered MIN: injection RNG
// streams, every source and switch-output queue, arbiter state, module
// busy clocks, the occupancy counts, and the public measurements. The
// topology and rates are configuration.
func (b *BufferedOmega) SaveState(enc *sim.StateEncoder) {
	enc.Int(len(b.rngs))
	for i := range b.rngs {
		enc.RNG(&b.rngs[i])
	}
	enc.Int(len(b.inject))
	for i := range b.inject {
		sim.SaveQueue(enc, &b.inject[i], savePacket)
	}
	// The queue slab and arbiter state are flat in memory but the
	// snapshot keeps the nested column/position framing of earlier
	// revisions, so the bytes are unchanged.
	cols, terms, spc := b.o.Columns(), b.cfg.Terminals, b.o.SwitchesPerColumn()
	enc.Int(cols)
	for j := 0; j < cols; j++ {
		enc.Int(terms)
		for i := 0; i < terms; i++ {
			sim.SaveQueue(enc, b.colQ(j, i), savePacket)
		}
	}
	enc.Int(cols)
	for j := 0; j < cols; j++ {
		enc.Int(spc)
		for sw := 0; sw < spc; sw++ {
			enc.Int(b.rr[j*spc+sw])
		}
	}
	sim.SaveSlots(enc, b.busy)
	enc.Int(b.injectCount)
	enc.Int(len(b.colCount))
	for _, v := range b.colCount {
		enc.Int(v)
	}
	enc.I64(b.Injected)
	enc.I64(b.DeliveredBg)
	enc.I64(b.DeliveredHot)
	enc.I64(b.LatencyBgTotal)
	enc.I64(b.LatencyHotTotal)
}

// LoadState implements sim.Stater.
func (b *BufferedOmega) LoadState(dec *sim.StateDecoder) {
	if n := dec.Count(); n != len(b.rngs) && dec.Err() == nil {
		dec.Failf("network: snapshot has %d RNG streams, network has %d", n, len(b.rngs))
		return
	}
	for i := range b.rngs {
		dec.RNG(&b.rngs[i])
	}
	if n := dec.Count(); n != len(b.inject) && dec.Err() == nil {
		dec.Failf("network: snapshot has %d source queues, network has %d", n, len(b.inject))
		return
	}
	for i := range b.inject {
		sim.LoadQueue(dec, &b.inject[i], loadPacket)
	}
	cols, terms, spc := b.o.Columns(), b.cfg.Terminals, b.o.SwitchesPerColumn()
	if n := dec.Count(); n != cols && dec.Err() == nil {
		dec.Failf("network: snapshot has %d columns, network has %d", n, cols)
		return
	}
	for j := 0; j < cols; j++ {
		if n := dec.Count(); n != terms && dec.Err() == nil {
			dec.Failf("network: snapshot column %d has %d queues, network has %d", j, n, terms)
			return
		}
		for i := 0; i < terms; i++ {
			sim.LoadQueue(dec, b.colQ(j, i), loadPacket)
		}
	}
	if n := dec.Count(); n != cols && dec.Err() == nil {
		dec.Failf("network: snapshot has %d arbiter columns, network has %d", n, cols)
		return
	}
	for j := 0; j < cols; j++ {
		if n := dec.Count(); n != spc && dec.Err() == nil {
			dec.Failf("network: snapshot arbiter column %d has %d switches, network has %d", j, n, spc)
			return
		}
		for sw := 0; sw < spc; sw++ {
			b.rr[j*spc+sw] = dec.Int()
		}
	}
	sim.LoadSlots(dec, b.busy)
	b.injectCount = dec.Int()
	if n := dec.Count(); n != len(b.colCount) && dec.Err() == nil {
		dec.Failf("network: snapshot has %d occupancy counts, network has %d", n, len(b.colCount))
		return
	}
	for i := range b.colCount {
		b.colCount[i] = dec.Int()
	}
	b.Injected = dec.I64()
	b.DeliveredBg = dec.I64()
	b.DeliveredHot = dec.I64()
	b.LatencyBgTotal = dec.I64()
	b.LatencyHotTotal = dec.I64()
	b.recount()
}
