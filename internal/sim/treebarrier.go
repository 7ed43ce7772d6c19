package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the combining-tree barrier behind ParallelClock.
// The previous engine synchronized on a two-counter sense-reversing
// barrier: every crossing funneled all workers through one shared
// fan-in counter and one shared generation word — exactly the
// centralized contention the dissertation's conflict-free memory is
// designed to kill. Mellor-Crummey & Scott (1991) showed the fix for
// barriers: arrange the workers in a static tree where every waiter
// spins on a flag it owns, arrivals combine up the tree, and the
// release propagates back down by one remote write per tree edge. A
// crossing then costs each worker O(1) remote references regardless of
// worker count, and no cache line is ever contended by more than a
// node's own children.
//
// Layout: worker w owns nodes[w]. Its children are workers
// w*arity+1 .. w*arity+arity (when present); its parent is
// (w-1)/arity; worker 0 is the root. Arrival: a worker first gathers
// its children's arrive flags (spinning on words inside its OWN node,
// each written once per round by the corresponding child), then posts
// its combined arrival into its parent's node and spins on its own
// release word. The root's gather completing IS the barrier; it then
// releases its children, each of which releases its own children on
// the way out. Rounds are generation-numbered, so flags never need
// resetting and a fast worker re-arriving for round g+1 cannot corrupt
// round g (all waits are monotonic >= comparisons).
//
// The spin phase is bounded (defaultBarrierSpins); after it a waiter
// blocks on the barrier's condition variable, so an idle engine —
// workers parked on the pool gate between runs — costs no CPU. Flag
// writers broadcast only when the sleeper count says someone is
// actually blocked: the store-flag-then-load-sleepers /
// increment-sleepers-then-recheck-flag pair is sequentially consistent
// under sync/atomic, so the wakeup cannot be lost. Panics propagate by
// poisoning: every spin and every block recheck the poison flag, and
// poisonAndWake's empty critical section orders the flag ahead of the
// broadcast (the same idiom the old barrier used).

// barrierMaxArity bounds the tree fan-in; pickArity chooses 2..4 from
// the worker count per the MCS guidance (wider trees mean fewer rounds,
// narrower ones spread the combining across more nodes).
const barrierMaxArity = 4

// defaultBarrierSpins bounds the spin phase of a barrier wait before
// the waiter blocks on the condition variable.
const defaultBarrierSpins = 2048

// pickArity selects the tree fan-in for n workers: flat-ish trees for
// the small pools this simulator typically runs (one round of remote
// writes), narrowing only as the pool grows.
func pickArity(n int) int {
	switch {
	case n <= 4:
		return 2
	case n <= 9:
		return 3
	default:
		return barrierMaxArity
	}
}

// treeNode is one worker's slot in the combining tree. All flags a
// worker spins on live in its own node: arrive[c] is written (once per
// round) by child c, release by the parent. The struct is padded to a
// whole cache line so adjacent workers' nodes never share one — the
// whole point of the tree is that a crossing's remote traffic is one
// write per edge, and false sharing would silently reintroduce the
// shared-counter behaviour. The structlayout cfmlint pass pins this.
//
//cfm:cacheline
type treeNode struct {
	arrive  [barrierMaxArity]atomic.Uint64 // child c arrived for round g
	release atomic.Uint64                  // parent released round g
	_       [24]byte                       // pad to 64 bytes
}

// treeBarrier is the combining-tree barrier. init once, then await from
// every worker with a per-worker monotonically increasing sense.
type treeBarrier struct {
	nodes []treeNode
	arity int
	spins int

	poison   atomic.Bool
	sleepers atomic.Int32 // waiters blocked on cond (not spinning)
	mu       sync.Mutex
	cond     sync.Cond
}

func (b *treeBarrier) init(n, arity, spins int) {
	if arity < 2 {
		arity = 2
	}
	if arity > barrierMaxArity {
		arity = barrierMaxArity
	}
	if spins < 1 {
		spins = defaultBarrierSpins
	}
	b.nodes = make([]treeNode, n)
	b.arity = arity
	b.spins = spins
	b.cond.L = &b.mu
}

// await blocks worker w until all workers have arrived at the round
// *sense+1, then advances *sense. Worker indices are the tree
// positions; every worker must call await the same number of times.
func (b *treeBarrier) await(w int, sense *uint64) {
	g := *sense + 1
	*sense = g
	nd := &b.nodes[w]
	first := w*b.arity + 1
	for c := 0; c < b.arity && first+c < len(b.nodes); c++ {
		b.spinWait(&nd.arrive[c], g)
	}
	if w > 0 {
		parent := &b.nodes[(w-1)/b.arity]
		b.post(&parent.arrive[(w-1)%b.arity], g)
		b.spinWait(&nd.release, g)
	}
	for c := 0; c < b.arity && first+c < len(b.nodes); c++ {
		b.post(&b.nodes[first+c].release, g)
	}
}

// post publishes a flag value and wakes blocked waiters if any. The
// empty critical section orders the store ahead of the broadcast for a
// waiter between its final flag recheck and cond.Wait.
func (b *treeBarrier) post(f *atomic.Uint64, g uint64) {
	f.Store(g)
	if b.sleepers.Load() > 0 {
		b.mu.Lock()
		b.mu.Unlock() //nolint:staticcheck // empty critical section orders the store before the broadcast
		b.cond.Broadcast()
	}
}

// spinWait waits for *f >= g: a bounded local spin, then a block on the
// condition variable. Poison converts the wait into the sentinel panic.
func (b *treeBarrier) spinWait(f *atomic.Uint64, g uint64) {
	for i := 0; i < b.spins; i++ {
		if f.Load() >= g {
			return
		}
		if b.poison.Load() {
			panic(poisonedBarrier{})
		}
		runtime.Gosched()
	}
	b.mu.Lock()
	b.sleepers.Add(1)
	for f.Load() < g && !b.poison.Load() {
		b.cond.Wait()
	}
	b.sleepers.Add(-1)
	b.mu.Unlock()
	if f.Load() < g {
		// Released by poison, not by the flag.
		panic(poisonedBarrier{})
	}
}

// poisonAndWake marks the barrier poisoned and wakes every blocked
// waiter so a worker panic propagates instead of deadlocking the tree.
func (b *treeBarrier) poisonAndWake() {
	b.poison.Store(true)
	b.mu.Lock()
	b.mu.Unlock() //nolint:staticcheck // empty critical section orders the store before the broadcast
	b.cond.Broadcast()
}

// sleeping reports how many waiters are blocked on the condition
// variable (as opposed to spinning or running) — the idle-engine
// regression tests poll it to prove the cond-block path is reached.
func (b *treeBarrier) sleeping() int32 { return b.sleepers.Load() }
