package cache

import (
	"sort"

	"cfm/internal/consistency"
	"cfm/internal/memory"
	"cfm/internal/sim"
)

// This file implements sim.Stater for the coherence protocol and the
// front-end group. Requests carry provenance tags (cb/mod) instead of
// serialized functions; saving a request whose callbacks came from
// outside the package (cbExternal/modExternal) fails the checkpoint
// loudly, and restoring rebinds the tagged ones to the registered
// front-end's fixed callbacks and the identity RMW body.

// saveRequest encodes one queued or in-flight processor request.
func saveRequest(enc *sim.StateEncoder, r request) {
	if r.cb == cbExternal || r.mod == modExternal {
		enc.Failf("cache: request for block %d carries a caller-supplied callback; external callbacks cannot be checkpointed", r.offset)
		return
	}
	if (r.done != nil) != (r.cb != cbNone) || (r.modify != nil) != (r.mod != modNone) {
		enc.Failf("cache: request for block %d has inconsistent callback tags", r.offset)
		return
	}
	enc.Bool(r.isStore)
	enc.Bool(r.prefetch)
	enc.Bool(r.borrow)
	enc.Int(r.offset)
	enc.Int(r.word)
	enc.U64(uint64(r.value))
	enc.Int(int(r.cb))
	enc.Int(int(r.mod))
}

// loadRequest decodes one request for processor p, rebinding its tagged
// callbacks.
func (c *Protocol) loadRequest(dec *sim.StateDecoder, p int) request {
	var r request
	r.isStore = dec.Bool()
	r.prefetch = dec.Bool()
	r.borrow = dec.Bool()
	r.offset = dec.Int()
	r.word = dec.Int()
	r.value = memory.Word(dec.U64())
	r.cb = uint8(dec.Int())
	r.mod = uint8(dec.Int())
	if dec.Err() != nil {
		return r
	}
	switch r.cb {
	case cbNone:
	case cbFELoad, cbFEPlain, cbFERel:
		fe := c.fes[p]
		if fe == nil {
			dec.Failf("cache: P%d's request expects a front-end callback but no front-end is attached", p)
			return r
		}
		switch r.cb {
		case cbFELoad:
			r.done = fe.doneLoad
		case cbFEPlain:
			r.done = fe.donePlain
		default:
			r.done = fe.doneRel
		}
	default:
		dec.Failf("cache: P%d's request has callback tag %d, which this build cannot rebind", p, r.cb)
		return r
	}
	switch r.mod {
	case modNone:
	case modIdentity:
		r.modify = identityBlock
	default:
		dec.Failf("cache: P%d's request has modify tag %d, which this build cannot rebind", p, r.mod)
	}
	return r
}

// savePrimitive encodes one in-flight primitive (proc is implied by
// position).
func savePrimitive(enc *sim.StateEncoder, op *primitive) {
	enc.Int(int(op.kind))
	enc.Int(op.offset)
	enc.Slot(op.start)
	enc.Slot(op.issued)
	enc.Int(op.k)
	enc.Slot(op.wait)
	enc.Bool(op.hasReq)
	if op.hasReq {
		saveRequest(enc, op.req)
	}
}

// loadPrimitive decodes one primitive for processor p.
func (c *Protocol) loadPrimitive(dec *sim.StateDecoder, p int) *primitive {
	op := c.allocPrimitive()
	*op = primitive{proc: p}
	k := dec.Int()
	if dec.Err() != nil {
		return op
	}
	if k < int(opRead) || k > int(opWriteBack) {
		dec.Failf("cache: invalid primitive kind %d", k)
		return op
	}
	op.kind = opKind(k)
	op.offset = dec.Int()
	op.start = dec.Slot()
	op.issued = dec.Slot()
	op.k = dec.Int()
	op.wait = dec.Slot()
	op.hasReq = dec.Bool()
	if op.hasReq {
		op.req = c.loadRequest(dec, p)
	}
	return op
}

// SaveState implements sim.Stater for the coherence protocol: backing
// memory (sorted by offset), every directory line, in-flight and
// suspended primitives, request queues, pending write-back triggers, the
// RMW guards, and the statistics with their registry-flush watermarks.
func (c *Protocol) SaveState(enc *sim.StateEncoder) {
	offs := make([]int, 0, len(c.mem))
	for o := range c.mem {
		offs = append(offs, o)
	}
	sort.Ints(offs)
	enc.Int(len(offs))
	for _, o := range offs {
		enc.Int(o)
		memory.SaveBlock(enc, c.mem[o])
	}
	enc.Int(len(c.dirs))
	for p := range c.dirs {
		enc.Int(len(c.dirs[p]))
		for i := range c.dirs[p] {
			ln := &c.dirs[p][i]
			enc.Int(int(ln.state))
			enc.Int(ln.tag)
			memory.SaveBlock(enc, ln.data)
		}
	}
	for p := range c.ops {
		enc.Bool(c.ops[p] != nil)
		if c.ops[p] != nil {
			savePrimitive(enc, c.ops[p])
		}
	}
	for p := range c.susp {
		enc.Bool(c.susp[p] != nil)
		if c.susp[p] != nil {
			savePrimitive(enc, c.susp[p])
		}
	}
	for p := range c.reqs {
		sim.SaveQueue(enc, &c.reqs[p], saveRequest)
	}
	for p := range c.wbReq {
		enc.Int(len(c.wbReq[p]))
		for _, o := range c.wbReq[p] {
			enc.Int(o)
		}
	}
	enc.Int(len(c.rmwLocked))
	for _, o := range c.rmwLocked {
		enc.Int(o)
	}
	enc.I64(c.Hits)
	enc.I64(c.Misses)
	enc.I64(c.Invalidations)
	enc.I64(c.WriteBacks)
	enc.I64(c.Retries)
	enc.I64(c.TriggeredWBs)
	enc.I64(c.Prefetches)
	enc.I64(c.lastHits)
	enc.I64(c.lastMisses)
	enc.I64(c.lastInvs)
	enc.I64(c.lastWBs)
	enc.I64(c.lastRetries)
	enc.I64(c.lastTrigWBs)
	enc.I64(c.lastPrefetches)
}

// LoadState implements sim.Stater.
func (c *Protocol) LoadState(dec *sim.StateDecoder) {
	nm := dec.Count()
	c.mem = make(map[int]memory.Block, nm)
	for i := 0; i < nm && dec.Err() == nil; i++ {
		o := dec.Int()
		blk := memory.LoadBlock(dec)
		if dec.Err() == nil && len(blk) != c.blockSize() {
			dec.Failf("cache: backing block %d has %d words, want %d", o, len(blk), c.blockSize())
			return
		}
		c.mem[o] = blk
	}
	if n := dec.Count(); n != len(c.dirs) && dec.Err() == nil {
		dec.Failf("cache: snapshot has %d directories, protocol has %d", n, len(c.dirs))
		return
	}
	for p := range c.dirs {
		if n := dec.Count(); n != len(c.dirs[p]) && dec.Err() == nil {
			dec.Failf("cache: snapshot directory %d has %d lines, protocol has %d", p, n, len(c.dirs[p]))
			return
		}
		for i := range c.dirs[p] {
			ln := &c.dirs[p][i]
			st := dec.Int()
			if dec.Err() != nil {
				return
			}
			if st < int(Invalid) || st > int(Dirty) {
				dec.Failf("cache: invalid line state %d", st)
				return
			}
			ln.state = LineState(st)
			ln.tag = dec.Int()
			ln.data = memory.LoadBlock(dec)
		}
	}
	for p := range c.ops {
		if c.ops[p] != nil {
			c.releasePrimitive(c.ops[p])
			c.ops[p] = nil
		}
		if dec.Bool() {
			c.ops[p] = c.loadPrimitive(dec, p)
		}
		if dec.Err() != nil {
			return
		}
	}
	for p := range c.susp {
		if c.susp[p] != nil {
			c.releasePrimitive(c.susp[p])
			c.susp[p] = nil
		}
		if dec.Bool() {
			c.susp[p] = c.loadPrimitive(dec, p)
		}
		if dec.Err() != nil {
			return
		}
	}
	for p := range c.reqs {
		sim.LoadQueue(dec, &c.reqs[p], func(d *sim.StateDecoder) request {
			return c.loadRequest(d, p)
		})
	}
	for p := range c.wbReq {
		n := dec.Count()
		c.wbReq[p] = c.wbReq[p][:0]
		for i := 0; i < n && dec.Err() == nil; i++ {
			c.wbReq[p] = append(c.wbReq[p], dec.Int())
		}
	}
	if n := dec.Count(); n != len(c.rmwLocked) && dec.Err() == nil {
		dec.Failf("cache: snapshot has %d RMW guards, protocol has %d", n, len(c.rmwLocked))
		return
	}
	for i := range c.rmwLocked {
		c.rmwLocked[i] = dec.Int()
	}
	c.Hits = dec.I64()
	c.Misses = dec.I64()
	c.Invalidations = dec.I64()
	c.WriteBacks = dec.I64()
	c.Retries = dec.I64()
	c.TriggeredWBs = dec.I64()
	c.Prefetches = dec.I64()
	c.lastHits = dec.I64()
	c.lastMisses = dec.I64()
	c.lastInvs = dec.I64()
	c.lastWBs = dec.I64()
	c.lastRetries = dec.I64()
	c.lastTrigWBs = dec.I64()
	c.lastPrefetches = dec.I64()
}

// saveFeOp encodes one program-order operation for processor proc.
// doneLive marks whether the done callback can still fire (a stale
// pending record's cannot). A live load callback belongs to the caller
// and nothing can rebuild it, so saving one fails; the snapshot keeps
// the flag, which a successful save always writes false.
func saveFeOp(enc *sim.StateEncoder, proc int, op feOp, doneLive bool) {
	if doneLive && op.done != nil {
		enc.Failf("cache: P%d's program op %d carries a load callback, which a restore cannot rebuild", proc, op.index)
		return
	}
	enc.Int(op.index)
	enc.Int(int(op.kind))
	enc.Int(op.offset)
	enc.Int(op.word)
	enc.U64(uint64(op.value))
	enc.Bool(false)
}

// loadFeOp decodes one program-order operation.
func (f *Frontend) loadFeOp(dec *sim.StateDecoder) feOp {
	var op feOp
	op.index = dec.Int()
	k := dec.Int()
	if dec.Err() != nil {
		return op
	}
	if k < int(consistency.Load) || k > int(consistency.Release_) {
		dec.Failf("cache: invalid program operation kind %d", k)
		return op
	}
	op.kind = consistency.OpKind(k)
	op.offset = dec.Int()
	op.word = dec.Int()
	op.value = memory.Word(dec.U64())
	if dec.Bool() {
		dec.Failf("cache: P%d's program op %d carries a load callback, which cannot be rebuilt", f.proc, op.index)
	}
	return op
}

// saveState encodes one front-end's issue state and recorded execution.
func (f *Frontend) saveState(enc *sim.StateEncoder) {
	enc.Int(f.nextIndex)
	enc.Bool(f.busy)
	sim.SaveQueue(enc, &f.program, func(e *sim.StateEncoder, op feOp) { saveFeOp(e, f.proc, op, true) })
	enc.Int(len(f.storeBuf))
	for _, op := range f.storeBuf {
		saveFeOp(enc, f.proc, op, true)
	}
	saveFeOp(enc, f.proc, f.pending, f.busy)
	saveFeOp(enc, f.proc, f.pendingRel, false) // doneRel never reads its done
	enc.Int(len(f.Ops))
	for _, o := range f.Ops {
		enc.Int(o.Proc)
		enc.Int(o.Index)
		enc.Int(int(o.Kind))
		enc.Int(o.Addr)
		enc.I64(o.PerformedAt)
		enc.I64(o.GloballyPerformedAt)
	}
}

// loadState restores one front-end.
func (f *Frontend) loadState(dec *sim.StateDecoder) {
	f.nextIndex = dec.Int()
	f.busy = dec.Bool()
	sim.LoadQueue(dec, &f.program, f.loadFeOp)
	n := dec.Count()
	f.storeBuf = f.storeBuf[:0]
	for i := 0; i < n && dec.Err() == nil; i++ {
		f.storeBuf = append(f.storeBuf, f.loadFeOp(dec))
	}
	f.pending = f.loadFeOp(dec)
	f.pendingRel = f.loadFeOp(dec)
	no := dec.Count()
	f.Ops = f.Ops[:0]
	for i := 0; i < no && dec.Err() == nil; i++ {
		var o consistency.Op
		o.Proc = dec.Int()
		o.Index = dec.Int()
		o.Kind = consistency.OpKind(dec.Int())
		o.Addr = dec.Int()
		o.PerformedAt = dec.I64()
		o.GloballyPerformedAt = dec.I64()
		f.Ops = append(f.Ops, o)
	}
}

// SaveState implements sim.Stater for the front-end group: every
// member's state, in processor order.
func (g *FrontendGroup) SaveState(enc *sim.StateEncoder) {
	enc.Int(len(g.fes))
	for _, f := range g.fes {
		f.saveState(enc)
	}
}

// LoadState implements sim.Stater.
func (g *FrontendGroup) LoadState(dec *sim.StateDecoder) {
	if n := dec.Count(); n != len(g.fes) && dec.Err() == nil {
		dec.Failf("cache: snapshot has %d front-ends, group has %d", n, len(g.fes))
		return
	}
	for _, f := range g.fes {
		f.loadState(dec)
		if dec.Err() != nil {
			return
		}
	}
}
