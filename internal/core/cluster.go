package core

import (
	"fmt"

	"cfm/internal/memory"
	"cfm/internal/metrics"
	"cfm/internal/sim"
)

// ClusterSystem models the multi-cluster CFM extension of Fig. 3.12: each
// conflict-free cluster installs fewer processors than it has AT-space
// divisions, and the free time slots serve remote memory access requests
// arriving over an inter-cluster interconnection. A remote access is
// "just a slower regular memory access": it pays the link latency both
// ways and waits for the serving cluster's free slot, but introduces no
// memory or network contention inside the serving cluster.
type ClusterSystem struct {
	cfg       Config // per-cluster configuration (Processors = AT divisions)
	localProc int    // processors actually installed per cluster
	linkDelay int    // one-way inter-cluster link latency, cycles
	clusters  []*CFMemory
	// freeDiv is the AT-space division index lent to remote service in
	// each cluster (the first division not occupied by a local processor).
	freeDiv int
	// queue of pending remote requests per serving cluster.
	queues []sim.Queue[*remoteReq]
	// serving tracks, per cluster, the remote requests currently occupying
	// the free division (dispatched, reply not yet staged). Explicit
	// tracking — rather than leaving the request captured only inside the
	// memory's completion closure — is what lets a checkpoint record
	// in-service remote work and a restore rebuild the closures.
	serving [][]*servingRec
	// Optional inter-cluster topology (§3.3); when set, link delays are
	// Hops × perHop instead of the flat linkDelay.
	topo   Topology
	perHop int
	// stage buffers each cluster shard's deferred side effects (remote
	// completion counts and reply callbacks); FinishShards folds them in
	// ascending cluster order.
	//cfm:no-save fold scratch, drained by FinishShards before any checkpoint boundary
	stage []clusterStage

	// RemoteCompleted counts served remote accesses.
	RemoteCompleted int64

	// Registry handle (nil when unobserved); added to in FinishShards.
	mRemote *metrics.Counter

	// id is the engine's parking handle (nil when driven manually).
	id *sim.Idler

	// replyRebind reconstructs a harness replyTo callback while restoring
	// a checkpoint (set via SetReplyRebinder; required only when the
	// snapshot holds queued or in-service requests that carried one).
	replyRebind func(cluster int, kind AccessKind, offset int, arrive sim.Slot) func(memory.Block, sim.Slot)
}

// clusterStage buffers one cluster shard's per-phase side effects.
type clusterStage struct {
	remote  int64
	replies []func()
}

type remoteReq struct {
	kind    AccessKind
	offset  int
	data    memory.Block
	arrive  sim.Slot // when the request reaches the serving cluster
	replyTo func(memory.Block, sim.Slot)
	// replyDelay is the return-leg latency; −1 means use the system's
	// flat link delay.
	replyDelay int
}

// servingRec pairs an in-service remote request with its dispatch slot —
// everything makeReply needs, so the reply closure can be rebuilt from a
// checkpoint.
type servingRec struct {
	req   *remoteReq
	start sim.Slot // slot the request was dispatched onto the free division
}

// NewClusterSystem builds numClusters clusters with the given per-cluster
// configuration, localProc (< cfg.Processors) installed processors each,
// and the given one-way link delay. The remaining divisions serve remote
// requests.
func NewClusterSystem(cfg Config, numClusters, localProc, linkDelay int) *ClusterSystem {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if numClusters < 1 {
		panic(fmt.Sprintf("core: need >=1 cluster, got %d", numClusters))
	}
	if localProc < 0 || localProc >= cfg.Processors {
		panic(fmt.Sprintf("core: local processors %d must leave a free division (config has %d)",
			localProc, cfg.Processors))
	}
	if linkDelay < 0 {
		panic(fmt.Sprintf("core: negative link delay %d", linkDelay))
	}
	cs := &ClusterSystem{
		cfg:       cfg,
		localProc: localProc,
		linkDelay: linkDelay,
		freeDiv:   localProc,
		queues:    make([]sim.Queue[*remoteReq], numClusters),
		serving:   make([][]*servingRec, numClusters),
		stage:     make([]clusterStage, numClusters),
	}
	for i := 0; i < numClusters; i++ {
		cs.clusters = append(cs.clusters, NewCFMemory(cfg, nil))
	}
	cs.bindMembers()
	return cs
}

// Instrument attaches registry metrics: a served-remote-access counter
// plus every member cluster's CFMemory instrumentation (bank counters
// aggregate across clusters because Registry.Counter returns one shared
// handle per name).
func (cs *ClusterSystem) Instrument(r *metrics.Registry) {
	if r == nil {
		return
	}
	cs.mRemote = r.Counter("cluster_remote_completed_total")
	for _, cl := range cs.clusters {
		cl.Instrument(r)
	}
}

// Cluster exposes cluster i's memory.
func (cs *ClusterSystem) Cluster(i int) *CFMemory { return cs.clusters[i] }

// LocalRead starts an ordinary conflict-free read by processor p (< local
// processors) of its own cluster.
func (cs *ClusterSystem) LocalRead(t sim.Slot, cluster, p, offset int, done func(memory.Block)) sim.Slot {
	if p >= cs.localProc {
		panic(fmt.Sprintf("core: local processor %d out of range [0,%d)", p, cs.localProc))
	}
	cs.id.Wake()
	return cs.clusters[cluster].StartRead(t, p, offset, done)
}

// LocalWrite starts an ordinary conflict-free write.
func (cs *ClusterSystem) LocalWrite(t sim.Slot, cluster, p, offset int, data memory.Block, done func(memory.Block)) sim.Slot {
	if p >= cs.localProc {
		panic(fmt.Sprintf("core: local processor %d out of range [0,%d)", p, cs.localProc))
	}
	cs.id.Wake()
	return cs.clusters[cluster].StartWrite(t, p, offset, data, done)
}

// RemoteRead issues a read from a processor in fromCluster against the
// memory of toCluster via the memory-mapped inter-cluster port. done
// receives the block and the slot at which the reply arrives back.
func (cs *ClusterSystem) RemoteRead(t sim.Slot, toCluster, offset int, done func(memory.Block, sim.Slot)) {
	cs.id.Wake()
	cs.queues[toCluster].Push(&remoteReq{
		kind: ReadBlock, offset: offset,
		arrive: t + sim.Slot(cs.linkDelay), replyTo: done, replyDelay: -1,
	})
}

// RemoteWrite issues a write against toCluster's memory.
func (cs *ClusterSystem) RemoteWrite(t sim.Slot, toCluster, offset int, data memory.Block, done func(memory.Block, sim.Slot)) {
	cs.id.Wake()
	cs.queues[toCluster].Push(&remoteReq{
		kind: WriteBlock, offset: offset, data: data.Clone(),
		arrive: t + sim.Slot(cs.linkDelay), replyTo: done, replyDelay: -1,
	})
}

// Tick implements sim.Ticker by delegating to the shard path, so the
// serial and parallel engines execute identical code: it drives every
// cluster's memory and, in the issue phase, dispatches queued remote
// requests onto each cluster's free AT-space division.
func (cs *ClusterSystem) Tick(t sim.Slot, ph sim.Phase) { sim.SerialTick(cs, t, ph) }

// PhaseMask implements sim.PhaseMasker: dispatch happens in PhaseIssue
// and the member CFMemories only work in PhaseTransfer/PhaseUpdate.
func (cs *ClusterSystem) PhaseMask() sim.PhaseMask {
	return sim.MaskOf(sim.PhaseIssue, sim.PhaseTransfer, sim.PhaseUpdate)
}

// BindIdler implements sim.Parker. The member CFMemories are driven
// manually (never registered), so their own handles stay nil; the system
// parks as one unit once every cluster drains.
func (cs *ClusterSystem) BindIdler(id *sim.Idler) { cs.id = id }

// Horizon implements sim.Horizoner: the earliest member-memory event or
// remote-dispatch opportunity. A queued request can dispatch no earlier
// than both its link arrival and the serving cluster's free division
// becoming free, and dispatch polls every slot after that, so the max of
// the two bounds the next observable slot for that queue.
func (cs *ClusterSystem) Horizon(now sim.Slot) sim.Slot {
	h := sim.HorizonNone
	for ci, cl := range cs.clusters {
		if v := cl.Horizon(now); v < h {
			h = v
		}
		if !cs.queues[ci].Empty() {
			v := (*cs.queues[ci].Peek()).arrive
			if f := cl.free[cs.freeDiv]; f > v {
				v = f
			}
			if v < h {
				h = v
			}
		}
	}
	if h < now {
		return now
	}
	return h
}

// Shards implements sim.Shardable: one shard per cluster. Clusters share
// no memory, queues, or bank state; the only cross-cluster effects —
// RemoteCompleted and reply callbacks into the requesting cluster — are
// staged per shard and folded by FinishShards.
func (cs *ClusterSystem) Shards() int { return len(cs.clusters) }

// TickShard implements sim.Shardable: cluster ci's remote dispatch and
// memory work for this phase.
func (cs *ClusterSystem) TickShard(t sim.Slot, ph sim.Phase, ci int) {
	if ph == sim.PhaseIssue {
		cs.dispatch(t, ci)
	}
	cs.clusters[ci].Tick(t, ph)
}

// FinishShards implements sim.ShardFinalizer: fold remote completion
// counts and run reply callbacks in ascending cluster order. Replies run
// here — single-threaded — because they re-enter the requesting
// cluster's state (recording arrival, chaining a next access), which
// would race with that cluster's own shard.
func (cs *ClusterSystem) FinishShards(t sim.Slot, ph sim.Phase) {
	// RemoteCompleted folds in cluster order, ahead of each cluster's
	// replies; the registry counter (an atomic) takes the summed delta
	// once.
	var remote int64
	for ci := range cs.stage {
		st := &cs.stage[ci]
		cs.RemoteCompleted += st.remote
		remote += st.remote
		st.remote = 0
		for _, reply := range st.replies {
			reply()
		}
		st.replies = st.replies[:0]
	}
	cs.mRemote.Add(remote)
	if ph == sim.PhaseUpdate && cs.drained() {
		// Replies above may have chained new local/remote accesses (and
		// woken us); drained() runs after them, so parking is safe.
		cs.id.Park()
	}
}

// drained reports whether no cluster has queued or in-flight work.
func (cs *ClusterSystem) drained() bool {
	for ci := range cs.queues {
		if !cs.queues[ci].Empty() {
			return false
		}
	}
	for _, cl := range cs.clusters {
		for p := range cl.cur {
			if len(cl.cur[p]) > 0 {
				return false
			}
		}
	}
	return true
}

// dispatch starts the oldest arrived remote request on cluster ci's free
// division if that division's address path is free.
func (cs *ClusterSystem) dispatch(t sim.Slot, ci int) {
	q := &cs.queues[ci]
	if q.Empty() || t < (*q.Peek()).arrive {
		return
	}
	cl := cs.clusters[ci]
	if !cl.CanStart(t, cs.freeDiv) {
		return
	}
	req := q.Pop()
	rec := &servingRec{req: req, start: t}
	cs.serving[ci] = append(cs.serving[ci], rec)
	reply := cs.makeReply(ci, rec)
	switch req.kind {
	case ReadBlock:
		cl.StartRead(t, cs.freeDiv, req.offset, reply)
	case WriteBlock:
		cl.StartWrite(t, cs.freeDiv, req.offset, req.data, reply)
	}
}

// makeReply builds the completion callback for an in-service remote
// request. dispatch installs it when the request starts; LoadState
// installs an identical one when restoring a checkpoint that caught the
// request mid-service.
func (cs *ClusterSystem) makeReply(ci int, rec *servingRec) func(memory.Block) {
	return func(blk memory.Block) { //cfm:alloc-ok remote replies clone the block regardless; cross-cluster traffic is not in the pinned tick loop
		cs.unserve(ci, rec)
		st := &cs.stage[ci]
		st.remote++
		if rec.req.replyTo != nil {
			// The reply crosses the link back to the requester. It is
			// staged (not fired inline) because replyTo re-enters the
			// requesting cluster; FinishShards runs it single-threaded.
			back := cs.linkDelay
			if rec.req.replyDelay >= 0 {
				back = rec.req.replyDelay
			}
			at := cs.clusters[ci].ATSpace().CompletionSlot(rec.start) + sim.Slot(back)
			data := blk.Clone()
			st.replies = append(st.replies, func() { rec.req.replyTo(data, at) })
		}
	}
}

// unserve drops a completed request from a cluster's in-service list.
func (cs *ClusterSystem) unserve(ci int, rec *servingRec) {
	s := cs.serving[ci]
	for i := range s {
		if s[i] == rec {
			cs.serving[ci] = append(s[:i], s[i+1:]...)
			return
		}
	}
}

// PendingRemote returns the number of queued remote requests for a
// cluster (for tests).
func (cs *ClusterSystem) PendingRemote(cluster int) int { return cs.queues[cluster].Len() }
