package hier

import (
	"fmt"

	"cfm/internal/cache"
	"cfm/internal/flight"
	"cfm/internal/memory"
	"cfm/internal/sim"
)

// Load queues a block load by processor p of cluster cl. done receives
// the block and the completion slot.
func (s *System) Load(cl, p, offset int, done func(memory.Block, sim.Slot)) {
	s.checkIDs(cl, p)
	s.pending[cl][p] = append(s.pending[cl][p], func(t sim.Slot) {
		s.loadAttempt(t, cl, p, offset, done)
	})
}

// Store queues a word store by processor p of cluster cl.
func (s *System) Store(cl, p, offset, word int, v memory.Word, done func(sim.Slot)) {
	s.checkIDs(cl, p)
	if word < 0 || word >= s.blockSize() {
		panic(fmt.Sprintf("hier: word %d out of block range [0,%d)", word, s.blockSize()))
	}
	s.pending[cl][p] = append(s.pending[cl][p], func(t sim.Slot) {
		s.storeAttempt(t, cl, p, offset, word, v, done)
	})
}

func (s *System) checkIDs(cl, p int) {
	if cl < 0 || cl >= s.cfg.Clusters || p < 0 || p >= s.cfg.ProcsPerCluster {
		panic(fmt.Sprintf("hier: processor (%d,%d) out of range", cl, p))
	}
}

// release frees the processor at slot t and retires its request's span.
func (s *System) release(cl, p int, t sim.Slot) {
	s.procBusy[cl][p] = t + 1
	if s.flt.Enabled() {
		a := s.fltActor(cl, p)
		issued := s.fltStart[cl][p]
		s.flt.Emit(flight.ComposeID(a, issued), t, flight.StageRetire, int32(a), int64(t-issued))
	}
}

// ---- Load ----

func (s *System) loadAttempt(t sim.Slot, cl, p, offset int, done func(memory.Block, sim.Slot)) {
	if st := s.L1State(cl, p, offset); st != cache.Invalid {
		s.L1Hits++
		if s.trace.Enabled() {
			s.trace.Add(t, s.pname(cl, p), "L1 %v hit block %d", st, offset)
		}
		s.release(cl, p, t)
		if done != nil {
			done(s.l1Line(cl, p, offset).data.Clone(), t)
		}
		return
	}
	s.L1Misses++
	// The local pass that discovers where the block is (one cluster β).
	s.schedule(t+sim.Slot(s.model.ClusterBeta), func() {
		s.afterLocalReadPass(t+sim.Slot(s.model.ClusterBeta), cl, p, offset, done)
	})
}

func (s *System) afterLocalReadPass(t sim.Slot, cl, p, offset int, done func(memory.Block, sim.Slot)) {
	// A dirty sibling copy inside the cluster must be flushed to L2 first
	// (intra-cluster trigger, as in the flat protocol).
	if q := s.dirtySibling(cl, p, offset); q >= 0 {
		s.schedule(t+sim.Slot(s.model.ClusterBeta), func() {
			s.l1WriteBack(cl, q, offset)
			// Retry the local pass.
			at := t + sim.Slot(2*s.model.ClusterBeta)
			s.schedule(at, func() { s.afterLocalReadPass(at, cl, p, offset, done) })
		})
		return
	}
	if st := s.L2State(cl, offset); st != cache.Invalid {
		s.L2Hits++
		s.fillL1Valid(cl, p, offset)
		if s.trace.Enabled() {
			s.trace.Add(t, s.pname(cl, p), "L2 %v hit block %d", st, offset)
		}
		s.release(cl, p, t)
		if done != nil {
			done(s.l1Line(cl, p, offset).data.Clone(), t)
		}
		return
	}
	s.L2Misses++
	// The network controller fetches the block; then a local refill pass.
	s.ncSubmit(cl, ncJob{prio: 4, offset: offset, run: func() {
		s.globalRead(cl, offset, func(fetchDone sim.Slot) {
			refillAt := fetchDone + sim.Slot(s.model.ClusterBeta)
			s.schedule(refillAt, func() {
				// The refill is itself a local pass, re-validated from
				// scratch: the fresh L2 copy may have been stolen, or a
				// sibling may have dirtied the block meanwhile.
				if s.trace.Enabled() {
					s.trace.Add(refillAt, s.pname(cl, p), "refill pass block %d", offset)
				}
				s.afterLocalReadPass(refillAt, cl, p, offset, done)
			})
		})
	}})
}

// ---- Store ----

func (s *System) storeAttempt(t sim.Slot, cl, p, offset, word int, v memory.Word, done func(sim.Slot)) {
	if s.L1State(cl, p, offset) == cache.Dirty {
		s.L1Hits++
		s.l1Line(cl, p, offset).data[word] = v
		if s.trace.Enabled() {
			s.trace.Add(t, s.pname(cl, p), "L1 dirty hit store block %d", offset)
		}
		s.release(cl, p, t)
		if done != nil {
			done(t)
		}
		return
	}
	s.L1Misses++
	s.schedule(t+sim.Slot(s.model.ClusterBeta), func() {
		s.afterLocalInvPass(t+sim.Slot(s.model.ClusterBeta), cl, p, offset, word, v, done)
	})
}

func (s *System) afterLocalInvPass(t sim.Slot, cl, p, offset, word int, v memory.Word, done func(sim.Slot)) {
	if q := s.dirtySibling(cl, p, offset); q >= 0 {
		s.schedule(t+sim.Slot(s.model.ClusterBeta), func() {
			s.l1WriteBack(cl, q, offset)
			at := t + sim.Slot(2*s.model.ClusterBeta)
			s.schedule(at, func() { s.afterLocalInvPass(at, cl, p, offset, word, v, done) })
		})
		return
	}
	// The pass invalidates every sibling valid copy (pipelined, no acks).
	s.invalidateClusterL1(cl, p, offset)
	if s.L2State(cl, offset) == cache.Dirty {
		// The cluster already owns the block globally.
		s.finishStore(t, cl, p, offset, word, v, done)
		return
	}
	// Obtain global exclusive ownership through the network controller.
	s.ncSubmit(cl, ncJob{prio: 3, offset: offset, run: func() {
		s.globalReadInv(cl, offset, func(fetchDone sim.Slot) {
			ownAt := fetchDone + sim.Slot(s.model.ClusterBeta)
			s.schedule(ownAt, func() { s.finishStore(ownAt, cl, p, offset, word, v, done) })
		})
	}})
}

func (s *System) finishStore(t sim.Slot, cl, p, offset, word int, v memory.Word, done func(sim.Slot)) {
	// The exclusive L2 copy may have been flushed or stolen between the
	// network controller's grant and this local pass, or a sibling's
	// store may have taken L1 ownership first; retry through the
	// invalidating pass in either case.
	if s.L2State(cl, offset) != cache.Dirty || s.dirtySibling(cl, p, offset) >= 0 {
		s.afterLocalInvPass(t, cl, p, offset, word, v, done)
		return
	}
	s.fillL1Dirty(cl, p, offset)
	s.l1Line(cl, p, offset).data[word] = v
	if s.trace.Enabled() {
		s.trace.Add(t, s.pname(cl, p), "store complete block %d", offset)
	}
	s.release(cl, p, t)
	if done != nil {
		done(t)
	}
}

// ---- Network controller operations ----

// ncSubmit queues a job on cluster cl's network controller.
func (s *System) ncSubmit(cl int, j ncJob) { s.ncs[cl].queue = append(s.ncs[cl].queue, j) }

// globalRead performs a second-level read: one global pass; if a remote
// cluster owns the block dirty, the remote flush chain runs first and the
// read retries.
func (s *System) globalRead(cl, offset int, cont func(sim.Slot)) {
	s.GlobalReads++
	n := s.ncs[cl]
	t := s.now
	end := t + sim.Slot(s.model.GlobalBeta)
	n.busyUntil = end
	s.schedule(end, func() {
		// Defer to another network controller's in-progress global
		// operation on this block (autonomous access control, §5.2.4
		// applied recursively).
		if s.globalBusy[offset] {
			s.ncSubmit(cl, ncJob{prio: 4, offset: offset, run: func() {
				s.globalRead(cl, offset, cont)
			}})
			return
		}
		if owner := s.dirtyL2Owner(offset, cl); owner >= 0 {
			s.RemoteDirtyChains++
			if s.trace.Enabled() {
				s.trace.Add(end, s.ncName(cl), "global read of %d found dirty L2 at cluster %d", offset, owner)
			}
			s.remoteFlush(owner, offset, false, func(flushDone sim.Slot) {
				// Retry the global read as a fresh NC job.
				s.ncSubmit(cl, ncJob{prio: 4, offset: offset, run: func() {
					s.globalRead(cl, offset, cont)
				}})
			})
			return
		}
		// A sibling's chain may have brought the block in (possibly dirty)
		// while this job was queued; do not clobber it.
		if s.L2State(cl, offset) != cache.Invalid {
			cont(end)
			return
		}
		s.globalBusy[offset] = true
		s.evictL2IfNeeded(cl, offset, func(at sim.Slot) {
			ln := s.l2Line(cl, offset)
			s.dropL2Victim(cl, ln, offset)
			ln.state = cache.Valid
			ln.tag = offset
			ln.data = s.memBlock(offset).Clone()
			if s.trace.Enabled() {
				s.trace.Add(at, s.ncName(cl), "L2 filled valid block %d", offset)
			}
			delete(s.globalBusy, offset)
			cont(at)
		}, end)
	})
}

// globalReadInv performs a second-level read-invalidate: invalidate every
// remote L2 copy (and, atomically with it, the L1 copies above), flushing
// a dirty remote first.
func (s *System) globalReadInv(cl, offset int, cont func(sim.Slot)) {
	n := s.ncs[cl]
	t := s.now
	end := t + sim.Slot(s.model.GlobalBeta)
	n.busyUntil = end
	s.schedule(end, func() {
		if s.globalBusy[offset] {
			s.ncSubmit(cl, ncJob{prio: 3, offset: offset, run: func() {
				s.globalReadInv(cl, offset, cont)
			}})
			return
		}
		if owner := s.dirtyL2Owner(offset, cl); owner >= 0 {
			s.RemoteDirtyChains++
			s.remoteFlush(owner, offset, true, func(flushDone sim.Slot) {
				s.ncSubmit(cl, ncJob{prio: 3, offset: offset, run: func() {
					s.globalReadInv(cl, offset, cont)
				}})
			})
			return
		}
		// Invalidate all remote valid L2 copies (pipelined in the pass).
		for r := 0; r < s.cfg.Clusters; r++ {
			if r != cl && s.L2State(r, offset) == cache.Valid {
				s.invalidateL2(r, offset)
			}
		}
		// Already owned dirty (a sibling's chain won the race): done.
		if s.L2State(cl, offset) == cache.Dirty {
			cont(end)
			return
		}
		s.globalBusy[offset] = true
		s.evictL2IfNeeded(cl, offset, func(at sim.Slot) {
			ln := s.l2Line(cl, offset)
			s.dropL2Victim(cl, ln, offset)
			// Upgrading an own valid copy keeps its data (it matches
			// memory); a cold fill takes the block from memory.
			if !(ln.state == cache.Valid && ln.tag == offset) {
				ln.data = s.memBlock(offset).Clone()
			}
			ln.state = cache.Dirty
			ln.tag = offset
			if s.trace.Enabled() {
				s.trace.Add(at, s.ncName(cl), "L2 filled dirty block %d", offset)
			}
			delete(s.globalBusy, offset)
			cont(at)
		}, end)
	})
}

// evictL2IfNeeded flushes a dirty other-tag occupant of offset's L2 line
// before cont runs.
func (s *System) evictL2IfNeeded(cl, offset int, cont func(sim.Slot), at sim.Slot) {
	ln := s.l2Line(cl, offset)
	if ln.state != cache.Dirty || ln.tag == offset {
		cont(at)
		return
	}
	victim := ln.tag
	// Any L1 dirty copy of the victim must come down first.
	if q := s.dirtySibling(cl, -1, victim); q >= 0 {
		s.schedule(at+sim.Slot(s.model.ClusterBeta), func() {
			s.l1WriteBack(cl, q, victim)
			s.evictL2IfNeeded(cl, offset, cont, at+sim.Slot(s.model.ClusterBeta))
		})
		return
	}
	end := at + sim.Slot(s.model.GlobalBeta)
	s.schedule(end, func() {
		// Re-check at the boundary: activity during the write-back pass
		// may have re-dirtied or re-filled L1 copies of the victim.
		if s.dirtySibling(cl, -1, victim) >= 0 {
			s.evictL2IfNeeded(cl, offset, cont, end)
			return
		}
		s.invalidateClusterL1(cl, -1, victim)
		s.l2WriteBack(cl, victim)
		s.l2Line(cl, offset).state = cache.Invalid
		cont(end)
	})
}

// remoteFlush runs the dirty-remote chain on the owner's network
// controller: a trigger pass, the owner processor's L1 write-back (if a
// dirty L1 copy exists), and the L2 write-back to global memory. If
// invalidate is set the remote copies are invalidated afterwards
// (read-invalidate case); otherwise they remain valid (read case).
func (s *System) remoteFlush(owner, offset int, invalidate bool, cont func(sim.Slot)) {
	s.ncSubmit(owner, ncJob{prio: 2, offset: offset, run: func() {
		n := s.ncs[owner]
		t := s.now
		// Trigger pass: the remote NC signals its cluster (one cluster β).
		cursor := t + sim.Slot(s.model.ClusterBeta)
		dirtyProc := s.dirtySibling(owner, -1, offset)
		if dirtyProc >= 0 {
			// The owner processor's L1 write-back (one cluster β).
			wbAt := cursor + sim.Slot(s.model.ClusterBeta)
			s.schedule(wbAt, func() { s.l1WriteBack(owner, dirtyProc, offset) })
			cursor = wbAt
		}
		// The L2 write-back to global memory (one global β).
		end := cursor + sim.Slot(s.model.GlobalBeta)
		n.busyUntil = end
		s.schedule(end, func() {
			// A store in the owner cluster may have re-dirtied an L1 copy
			// while the chain was in flight; the flush must then restart
			// (the L2 cannot be written back under a dirty L1).
			if s.dirtySibling(owner, -1, offset) >= 0 {
				s.remoteFlush(owner, offset, invalidate, cont)
				return
			}
			s.l2WriteBack(owner, offset)
			if invalidate {
				s.invalidateL2(owner, offset)
			}
			if s.trace.Enabled() {
				s.trace.Add(end, s.ncName(owner), "remote flush of block %d complete", offset)
			}
			cont(end)
		})
	}})
}

// ---- State helpers (atomic at step boundaries) ----

// dirtySibling returns a processor in cl (≠ exclude) holding offset dirty
// in L1, or −1.
func (s *System) dirtySibling(cl, exclude, offset int) int {
	for q := 0; q < s.cfg.ProcsPerCluster; q++ {
		if q != exclude && s.L1State(cl, q, offset) == cache.Dirty {
			return q
		}
	}
	return -1
}

// dirtyL2Owner returns the cluster (≠ exclude) whose L2 holds offset
// dirty, or −1.
func (s *System) dirtyL2Owner(offset, exclude int) int {
	for r := 0; r < s.cfg.Clusters; r++ {
		if r != exclude && s.L2State(r, offset) == cache.Dirty {
			return r
		}
	}
	return -1
}

// fillL1Valid installs offset valid in (cl,p)'s L1 from the L2 data. A
// dirty occupant of the line is first flushed to L2 (charged to the same
// pass — the intra-cluster CFM write-back is pipelined with the refill).
func (s *System) fillL1Valid(cl, p, offset int) {
	ln := s.l1Line(cl, p, offset)
	if ln.state == cache.Dirty && ln.tag != offset {
		s.l1WriteBack(cl, p, ln.tag)
	}
	l2 := s.l2Line(cl, offset)
	if l2.state == cache.Invalid || l2.tag != offset {
		panic(fmt.Sprintf("hier: L1 fill of block %d without L2 copy (Table 5.3 violation)", offset))
	}
	ln.state = cache.Valid
	ln.tag = offset
	ln.data = l2.data.Clone()
}

// fillL1Dirty installs offset dirty in (cl,p)'s L1; the L2 line must
// already be dirty (Table 5.3: L1 dirty requires L2 dirty).
func (s *System) fillL1Dirty(cl, p, offset int) {
	ln := s.l1Line(cl, p, offset)
	if ln.state == cache.Dirty && ln.tag != offset {
		s.l1WriteBack(cl, p, ln.tag)
	}
	l2 := s.l2Line(cl, offset)
	if l2.state != cache.Dirty || l2.tag != offset {
		panic(fmt.Sprintf("hier: L1 dirty fill of block %d without dirty L2 (Table 5.3 violation)", offset))
	}
	// Ownership is exclusive within the cluster too: any sibling valid
	// copy that slipped in since the invalidating pass is cleared now,
	// atomically with the ownership grant.
	s.invalidateClusterL1(cl, p, offset)
	ln.state = cache.Dirty
	ln.tag = offset
	ln.data = l2.data.Clone()
}

// l1WriteBack flushes (cl,p)'s dirty copy of offset into the L2.
func (s *System) l1WriteBack(cl, p, offset int) {
	ln := s.l1Line(cl, p, offset)
	if ln.state != cache.Dirty || ln.tag != offset {
		return // already flushed or invalidated
	}
	l2 := s.l2Line(cl, offset)
	if l2.state != cache.Dirty || l2.tag != offset {
		panic(fmt.Sprintf("hier: L1 dirty block %d above non-dirty L2 (Table 5.3 violation)", offset))
	}
	l2.data = ln.data.Clone()
	ln.state = cache.Valid
}

// l2WriteBack flushes cl's dirty L2 copy of offset to global memory.
func (s *System) l2WriteBack(cl, offset int) {
	ln := s.l2Line(cl, offset)
	if ln.state != cache.Dirty || ln.tag != offset {
		return
	}
	if q := s.dirtySibling(cl, -1, offset); q >= 0 {
		panic(fmt.Sprintf("hier: L2 write-back of block %d with L1 dirty copy above", offset))
	}
	s.mem[offset] = ln.data.Clone()
	ln.state = cache.Valid
	s.L2WriteBacks++
}

// dropL2Victim invalidates the L1 copies above a valid other-tag block
// about to be replaced in an L2 line (the inclusive-hierarchy rule: no L1
// copy may outlive its L2 line).
func (s *System) dropL2Victim(cl int, ln *line, offset int) {
	if ln.state == cache.Valid && ln.tag != offset {
		s.invalidateClusterL1(cl, -1, ln.tag)
	}
}

// invalidateL2 invalidates cluster cl's L2 copy of offset and, atomically
// with it, every L1 copy above (which must not be dirty).
func (s *System) invalidateL2(cl, offset int) {
	ln := s.l2Line(cl, offset)
	if ln.tag != offset || ln.state == cache.Invalid {
		return
	}
	if q := s.dirtySibling(cl, -1, offset); q >= 0 {
		panic(fmt.Sprintf("hier: invalidating L2 block %d with dirty L1 above", offset))
	}
	s.invalidateClusterL1(cl, -1, offset)
	ln.state = cache.Invalid
	s.InvalidationsSent++
}

// invalidateClusterL1 invalidates every L1 valid copy of offset in
// cluster cl except processor exclude.
func (s *System) invalidateClusterL1(cl, exclude, offset int) {
	for q := 0; q < s.cfg.ProcsPerCluster; q++ {
		if q == exclude {
			continue
		}
		ln := s.l1Line(cl, q, offset)
		if ln.tag == offset && ln.state == cache.Valid {
			ln.state = cache.Invalid
		}
	}
}

func (s *System) pname(cl, p int) string { return fmt.Sprintf("C%dP%d", cl, p) }
func (s *System) ncName(cl int) string   { return fmt.Sprintf("NC%d", cl) }

// CheckInvariants verifies the Table 5.3 state-pair rules and the
// coherence invariants across the hierarchy.
func (s *System) CheckInvariants() error {
	for cl := 0; cl < s.cfg.Clusters; cl++ {
		dirtyL1 := map[int]int{} // offset -> count within cluster
		for p := 0; p < s.cfg.ProcsPerCluster; p++ {
			for li := range s.l1[cl][p] {
				ln := &s.l1[cl][p][li]
				if ln.state == cache.Invalid {
					continue
				}
				l2st := s.L2State(cl, ln.tag)
				switch ln.state {
				case cache.Valid:
					if l2st == cache.Invalid {
						return fmt.Errorf("C%dP%d: L1 valid block %d with invalid L2 (Table 5.3)", cl, p, ln.tag)
					}
				case cache.Dirty:
					if l2st != cache.Dirty {
						return fmt.Errorf("C%dP%d: L1 dirty block %d with L2 %v (Table 5.3)", cl, p, ln.tag, l2st)
					}
					dirtyL1[ln.tag]++
				}
			}
		}
		for off, cnt := range dirtyL1 {
			if cnt > 1 {
				return fmt.Errorf("cluster %d: block %d dirty in %d L1 caches", cl, off, cnt)
			}
			// Dirty excludes valid within the cluster.
			for p := 0; p < s.cfg.ProcsPerCluster; p++ {
				if s.L1State(cl, p, off) == cache.Valid {
					return fmt.Errorf("cluster %d: block %d dirty and valid (P%d) simultaneously", cl, off, p)
				}
			}
		}
	}
	// Global level: dirty L2 exclusive; valid L2 copies match memory.
	dirtyL2 := map[int][]int{}
	for cl := 0; cl < s.cfg.Clusters; cl++ {
		for li := range s.l2[cl] {
			ln := &s.l2[cl][li]
			if ln.state == cache.Invalid {
				continue
			}
			if ln.state == cache.Dirty {
				dirtyL2[ln.tag] = append(dirtyL2[ln.tag], cl)
			} else if !ln.data.Equal(s.memBlock(ln.tag)) {
				return fmt.Errorf("cluster %d: valid L2 block %d differs from memory", cl, ln.tag)
			}
		}
	}
	for off, owners := range dirtyL2 {
		if len(owners) > 1 {
			return fmt.Errorf("block %d dirty in L2 of clusters %v", off, owners)
		}
	}
	return nil
}
