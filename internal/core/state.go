package core

import (
	"cfm/internal/memory"
	"cfm/internal/sim"
)

// This file implements sim.Stater for the core simulators. Callbacks are
// code, not data: a snapshot records only whether an in-flight access or
// remote request carried one, and restoring such a snapshot requires the
// owning layer (ClusterSystem internally, the harness via the rebinder
// hooks) to reconstruct the closure. Save fails loudly — via Failf —
// when a callback has nothing to rebuild it, rather than writing a
// snapshot that no restore can accept.

// SetDoneRebinder installs the hook LoadState uses to reconstruct the
// completion callbacks of in-flight accesses. A harness that checkpoints
// while accesses with callbacks are in flight must install one before
// checkpointing; returning nil from the hook fails the restore.
func (m *CFMemory) SetDoneRebinder(f func(proc int, kind AccessKind, offset int, start sim.Slot) func(memory.Block)) {
	m.doneRebind = f
}

// SaveState implements sim.Stater for the conflict-free memory: bank
// contents and timing (in bank order), every in-flight access, the
// per-processor address-path clocks, and the completion count. The AT
// space, pools, and stage buffers are configuration or scratch.
func (m *CFMemory) SaveState(enc *sim.StateEncoder) {
	m.ar.SaveState(enc)
	enc.Int(len(m.cur))
	for p := range m.cur {
		enc.Int(len(m.cur[p]))
		for _, a := range m.cur[p] {
			if a.done != nil && m.doneRebind == nil {
				enc.Failf("core: P%d's in-flight %s carries a completion callback but no rebinder is installed (SetDoneRebinder)", p, a.kind)
				return
			}
			enc.Int(int(a.kind))
			enc.Int(a.offset)
			enc.Slot(a.start)
			memory.SaveBlock(enc, a.buf)
			enc.Bool(a.done != nil)
		}
	}
	sim.SaveSlots(enc, m.free)
	enc.I64(m.Completed)
}

// LoadState implements sim.Stater.
func (m *CFMemory) LoadState(dec *sim.StateDecoder) {
	m.ar.LoadState(dec)
	if n := dec.Count(); n != len(m.cur) && dec.Err() == nil {
		dec.Failf("core: snapshot has %d processors, memory has %d", n, len(m.cur))
		return
	}
	for p := range m.cur {
		for _, a := range m.cur[p] {
			m.recycle(a)
		}
		m.cur[p] = m.cur[p][:0]
		n := dec.Count()
		for i := 0; i < n && dec.Err() == nil; i++ {
			a := m.alloc(p)
			k := dec.Int()
			if k < int(ReadBlock) || k > int(WriteBlock) {
				dec.Failf("core: invalid access kind %d", k)
				return
			}
			a.kind = AccessKind(k)
			a.offset = dec.Int()
			a.start = dec.Slot()
			blk := memory.LoadBlock(dec)
			if dec.Err() != nil {
				return
			}
			if len(blk) != m.cfg.Banks() {
				dec.Failf("core: in-flight block of %d words, memory has %d banks", len(blk), m.cfg.Banks())
				return
			}
			copy(a.buf, blk)
			a.done = nil
			if dec.Bool() {
				if m.doneRebind == nil {
					dec.Failf("core: P%d has an in-flight %s with a completion callback but no rebinder is installed (SetDoneRebinder)", p, a.kind)
					return
				}
				a.done = m.doneRebind(p, a.kind, a.offset, a.start)
				if a.done == nil {
					dec.Failf("core: done rebinder returned nil for P%d %s offset %d (start %d)", p, a.kind, a.offset, a.start)
					return
				}
			}
			m.cur[p] = append(m.cur[p], a)
		}
	}
	sim.LoadSlots(dec, m.free)
	m.Completed = dec.I64()
}

// saveRemoteReq encodes one queued or in-service remote request. The
// reply callback is presence-only; LoadState rebuilds it through the
// system's reply rebinder.
func saveRemoteReq(enc *sim.StateEncoder, r *remoteReq) {
	enc.Int(int(r.kind))
	enc.Int(r.offset)
	memory.SaveBlock(enc, r.data)
	enc.Slot(r.arrive)
	enc.Int(r.replyDelay)
	enc.Bool(r.replyTo != nil)
}

// loadRemoteReq decodes one remote request for serving cluster ci,
// rebuilding its replyTo through the harness rebinder when present.
func (cs *ClusterSystem) loadRemoteReq(dec *sim.StateDecoder, ci int) *remoteReq {
	r := &remoteReq{}
	k := dec.Int()
	if dec.Err() != nil {
		return r
	}
	if k < int(ReadBlock) || k > int(WriteBlock) {
		dec.Failf("core: invalid remote access kind %d", k)
		return r
	}
	r.kind = AccessKind(k)
	r.offset = dec.Int()
	r.data = memory.LoadBlock(dec)
	r.arrive = dec.Slot()
	r.replyDelay = dec.Int()
	if dec.Bool() {
		if cs.replyRebind == nil {
			dec.Failf("core: cluster %d has a remote %s with a reply callback but no rebinder is installed (SetReplyRebinder)", ci, r.kind)
			return r
		}
		r.replyTo = cs.replyRebind(ci, r.kind, r.offset, r.arrive)
		if r.replyTo == nil && dec.Err() == nil {
			dec.Failf("core: reply rebinder returned nil for cluster %d %s offset %d (arrive %d)", ci, r.kind, r.offset, r.arrive)
		}
	}
	return r
}

// SetReplyRebinder installs the hook LoadState uses to reconstruct the
// harness replyTo callbacks of queued and in-service remote requests.
func (cs *ClusterSystem) SetReplyRebinder(f func(cluster int, kind AccessKind, offset int, arrive sim.Slot) func(memory.Block, sim.Slot)) {
	cs.replyRebind = f
}

// SaveState implements sim.Stater for the multi-cluster system: the
// served-remote count, then per cluster its pending queue, its
// in-service requests, and its member memory's full state. Topology and
// link delays are configuration. A local access's completion callback
// belongs to the caller and nothing can rebuild it, so saving one fails.
func (cs *ClusterSystem) SaveState(enc *sim.StateEncoder) {
	enc.I64(cs.RemoteCompleted)
	enc.Int(len(cs.clusters))
	for ci, cl := range cs.clusters {
		for p := 0; p < cs.localProc; p++ {
			for _, a := range cl.cur[p] {
				if a.done != nil {
					enc.Failf("core: cluster %d P%d's in-flight local %s carries a completion callback, which a restore cannot rebuild", ci, p, a.kind)
					return
				}
			}
		}
		sim.SaveQueue(enc, &cs.queues[ci], saveRemoteReq)
		enc.Int(len(cs.serving[ci]))
		for _, rec := range cs.serving[ci] {
			saveRemoteReq(enc, rec.req)
			enc.Slot(rec.start)
		}
		cl.SaveState(enc)
	}
}

// LoadState implements sim.Stater. In-service requests are loaded before
// the member memory so the memory's in-flight free-division accesses can
// rebind their completion callbacks (see bindMembers) to freshly built
// reply closures.
func (cs *ClusterSystem) LoadState(dec *sim.StateDecoder) {
	cs.RemoteCompleted = dec.I64()
	if n := dec.Count(); n != len(cs.clusters) && dec.Err() == nil {
		dec.Failf("core: snapshot has %d clusters, system has %d", n, len(cs.clusters))
		return
	}
	for ci, cl := range cs.clusters {
		ci := ci
		sim.LoadQueue(dec, &cs.queues[ci], func(d *sim.StateDecoder) *remoteReq {
			return cs.loadRemoteReq(d, ci)
		})
		ns := dec.Count()
		cs.serving[ci] = cs.serving[ci][:0]
		for i := 0; i < ns && dec.Err() == nil; i++ {
			rec := &servingRec{req: cs.loadRemoteReq(dec, ci)}
			rec.start = dec.Slot()
			cs.serving[ci] = append(cs.serving[ci], rec)
		}
		if dec.Err() != nil {
			return
		}
		cl.LoadState(dec)
		if dec.Err() != nil {
			return
		}
	}
}

// bindMembers installs each member memory's done rebinder: a restored
// free-division access gets the reply closure of the in-service record
// that dispatched it. Local accesses never reach it, since SaveState
// refuses to write their callbacks.
func (cs *ClusterSystem) bindMembers() {
	for ci, cl := range cs.clusters {
		ci := ci
		cl.SetDoneRebinder(func(proc int, kind AccessKind, offset int, start sim.Slot) func(memory.Block) {
			if proc != cs.freeDiv {
				return nil
			}
			for _, rec := range cs.serving[ci] {
				if rec.start == start {
					return cs.makeReply(ci, rec)
				}
			}
			return nil // no in-service record matches: fail the restore
		})
	}
}

// SaveState implements sim.Stater for the partially conflict-free
// system: per-processor RNG streams, port busy clocks, every processor
// automaton, and the public measurements. Partial stores its arrays
// set-major (see Partial), but the snapshot walks them in processor
// order — and the ports in (module, set) order — so its bytes do not
// depend on the in-memory layout. One walk serves both: port
// (module, set) is k = module·cs + set, which idx maps to set·m + module.
func (p *Partial) SaveState(enc *sim.StateEncoder) {
	enc.Int(len(p.rngs))
	for i := range p.rngs {
		enc.RNG(&p.rngs[p.idx(i)])
	}
	p.saveSlots(enc, p.ports)
	enc.Int(len(p.state))
	for i := range p.state {
		enc.Int(int(p.state[p.idx(i)]))
	}
	p.saveSlots(enc, p.wakeAt)
	p.saveSlots(enc, p.doneAt)
	p.saveSlots(enc, p.issuedAt)
	p.saveSlots(enc, p.nextArrival)
	enc.Int(len(p.backlog))
	for i := range p.backlog {
		sim.SaveQueue(enc, &p.backlog[p.idx(i)], func(e *sim.StateEncoder, v sim.Slot) { e.Slot(v) })
	}
	enc.Int(len(p.targetMod))
	for i := range p.targetMod {
		enc.Int(int(p.targetMod[p.idx(i)]))
	}
	enc.I64(p.Completed)
	enc.I64(p.Retries)
	enc.I64(p.TotalLatency)
	enc.I64(p.LocalAcc)
	enc.I64(p.RemoteAcc)
}

// LoadState implements sim.Stater.
func (p *Partial) LoadState(dec *sim.StateDecoder) {
	if n := dec.Count(); n != len(p.rngs) && dec.Err() == nil {
		dec.Failf("core: snapshot has %d RNG streams, system has %d", n, len(p.rngs))
		return
	}
	for i := range p.rngs {
		dec.RNG(&p.rngs[p.idx(i)])
	}
	p.loadSlots(dec, p.ports)
	if n := dec.Count(); n != len(p.state) && dec.Err() == nil {
		dec.Failf("core: snapshot has %d processor states, system has %d", n, len(p.state))
		return
	}
	for i := range p.state {
		v := dec.Int()
		if v < int(procIdle) || v > int(procInFlight) {
			dec.Failf("core: invalid processor state %d", v)
			return
		}
		p.state[p.idx(i)] = procState(v)
	}
	p.loadSlots(dec, p.wakeAt)
	p.loadSlots(dec, p.doneAt)
	p.loadSlots(dec, p.issuedAt)
	p.loadSlots(dec, p.nextArrival)
	if n := dec.Count(); n != len(p.backlog) && dec.Err() == nil {
		dec.Failf("core: snapshot has %d backlogs, system has %d", n, len(p.backlog))
		return
	}
	for i := range p.backlog {
		sim.LoadQueue(dec, &p.backlog[p.idx(i)], func(d *sim.StateDecoder) sim.Slot { return d.Slot() })
	}
	if n := dec.Count(); n != len(p.targetMod) && dec.Err() == nil {
		dec.Failf("core: snapshot has %d target modules, system has %d", n, len(p.targetMod))
		return
	}
	// A module outside [0, Modules) would index another contention set's
	// port (breaking EpochSafe's shard closure) or run off the array.
	for i := range p.targetMod {
		mod := dec.Int()
		if mod < 0 || mod >= p.cfg.Modules {
			dec.Failf("core: processor %d targets module %d, system has %d modules", i, mod, p.cfg.Modules)
			return
		}
		p.targetMod[p.idx(i)] = int32(mod)
	}
	p.Completed = dec.I64()
	p.Retries = dec.I64()
	p.TotalLatency = dec.I64()
	p.LocalAcc = dec.I64()
	p.RemoteAcc = dec.I64()
	// nextEvent and setNext are derived state (the per-processor and
	// per-set quiescence bounds the shard sweep skips on); rebuild them
	// from the restored automata.
	for j := range p.nextEvent {
		p.nextEvent[j] = p.eventSlot(j)
	}
	p.refreshSets()
}

// saveSlots appends a set-major []Slot of length n in processor order.
func (p *Partial) saveSlots(enc *sim.StateEncoder, s []sim.Slot) {
	enc.Int(len(s))
	for i := range s {
		enc.Slot(s[p.idx(i)])
	}
}

// loadSlots restores a set-major []Slot from the processor-order stream
// saveSlots wrote; the saved length must match.
func (p *Partial) loadSlots(dec *sim.StateDecoder, s []sim.Slot) {
	if n := dec.Count(); n != len(s) && dec.Err() == nil {
		dec.Failf("core: snapshot has %d slots, system has %d", n, len(s))
		return
	}
	for i := range s {
		s[p.idx(i)] = dec.Slot()
	}
}
