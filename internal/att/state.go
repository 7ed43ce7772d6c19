package att

import (
	"cfm/internal/memory"
	"cfm/internal/sim"
)

// SetModifyRebinder installs the hook LoadState uses to reconstruct the
// modify body of an in-flight swap. Callbacks are code, not data: a
// checkpoint records only that an operation had one, and the harness
// that owns the body must rebuild it from the operation's identity.
// Checkpointing a swap with a modify body fails loudly when no rebinder
// is installed. A completion callback has no rebinder, so checkpointing
// an operation that carries one fails too.
func (tr *Tracked) SetModifyRebinder(f func(proc, offset int) func(memory.Block) memory.Block) {
	tr.modifyRebind = f
}

func saveEntry(enc *sim.StateEncoder, e entry) {
	enc.Bool(e.valid)
	enc.Int(e.offset)
	enc.Bool(e.swap)
}

func loadEntry(dec *sim.StateDecoder) entry {
	return entry{valid: dec.Bool(), offset: dec.Int(), swap: dec.Bool()}
}

// SaveState implements sim.Stater for the tracked memory: every bank,
// every ATT row, this slot's pending insertions, the in-flight
// operations, and the statistics with their registry-flush watermarks.
func (tr *Tracked) SaveState(enc *sim.StateEncoder) {
	tr.ar.SaveState(enc)
	for b := range tr.att {
		enc.Int(len(tr.att[b]))
		for _, e := range tr.att[b] {
			saveEntry(enc, e)
		}
	}
	for b := range tr.pending {
		saveEntry(enc, tr.pending[b])
	}
	for p, o := range tr.ops {
		enc.Bool(o != nil)
		if o == nil {
			continue
		}
		if o.done != nil {
			enc.Failf("att: P%d's in-flight %v carries a completion callback, which a restore cannot rebuild", p, o.kind)
			return
		}
		if o.modify != nil && tr.modifyRebind == nil {
			enc.Failf("att: P%d's in-flight swap carries a modify body but no rebinder is installed (SetModifyRebinder)", p)
			return
		}
		enc.Int(int(o.kind))
		enc.Int(o.offset)
		enc.Slot(o.started)
		enc.Slot(o.issued)
		enc.Int(int(o.phase))
		enc.Int(o.n)
		enc.Bool(o.passed0)
		memory.SaveBlock(enc, o.buf)
		memory.SaveBlock(enc, o.writeBuf)
		enc.Int(o.restarts)
		enc.Bool(o.modify != nil)
		enc.Bool(o.done != nil)
	}
	enc.I64(tr.CompletedWrites)
	enc.I64(tr.AbortedWrites)
	enc.I64(tr.CompletedReads)
	enc.I64(tr.CompletedSwaps)
	enc.I64(tr.Restarts)
	enc.I64(tr.mWrites)
	enc.I64(tr.mAborts)
	enc.I64(tr.mReads)
	enc.I64(tr.mSwaps)
	enc.I64(tr.mRestarts)
}

// LoadState implements sim.Stater.
func (tr *Tracked) LoadState(dec *sim.StateDecoder) {
	tr.ar.LoadState(dec)
	for b := range tr.att {
		n := dec.Count()
		if dec.Err() != nil {
			return
		}
		if n > tr.m-1 {
			dec.Failf("att: snapshot ATT %d has %d rows, table holds %d", b, n, tr.m-1)
			return
		}
		tr.att[b] = tr.att[b][:0]
		for i := 0; i < n; i++ {
			tr.att[b] = append(tr.att[b], loadEntry(dec))
		}
	}
	for b := range tr.pending {
		tr.pending[b] = loadEntry(dec)
	}
	for p := range tr.ops {
		tr.ops[p] = nil
		if !dec.Bool() {
			continue
		}
		o := &op{proc: p}
		k := dec.Int()
		if dec.Err() != nil {
			return
		}
		if k < int(OpWrite) || k > int(OpSwap) {
			dec.Failf("att: invalid operation kind %d", k)
			return
		}
		o.kind = OpKind(k)
		o.offset = dec.Int()
		o.started = dec.Slot()
		o.issued = dec.Slot()
		ph := dec.Int()
		if dec.Err() != nil {
			return
		}
		if ph < int(phaseWrite) || ph > int(phaseRead) {
			dec.Failf("att: invalid operation phase %d", ph)
			return
		}
		o.phase = opPhase(ph)
		o.n = dec.Int()
		o.passed0 = dec.Bool()
		o.buf = memory.LoadBlock(dec)
		o.writeBuf = memory.LoadBlock(dec)
		o.restarts = dec.Int()
		hasModify := dec.Bool()
		hasDone := dec.Bool()
		if dec.Err() != nil {
			return
		}
		if hasModify {
			if tr.modifyRebind == nil {
				dec.Failf("att: P%d's snapshot swap needs a modify rebinder (SetModifyRebinder)", p)
				return
			}
			o.modify = tr.modifyRebind(p, o.offset)
			if o.modify == nil {
				dec.Failf("att: modify rebinder returned nil for P%d", p)
				return
			}
		}
		if hasDone {
			dec.Failf("att: P%d's snapshot %v carries a completion callback, which cannot be rebuilt", p, o.kind)
			return
		}
		tr.ops[p] = o
	}
	tr.CompletedWrites = dec.I64()
	tr.AbortedWrites = dec.I64()
	tr.CompletedReads = dec.I64()
	tr.CompletedSwaps = dec.I64()
	tr.Restarts = dec.I64()
	tr.mWrites = dec.I64()
	tr.mAborts = dec.I64()
	tr.mReads = dec.I64()
	tr.mSwaps = dec.I64()
	tr.mRestarts = dec.I64()
}
