// The process runtime here hosts real goroutines by design: binding
// clients are host-language threads, not simulated tickers.
//
//cfm:concurrency-ok binding clients are host goroutines synchronized through the runtime's own locks, outside the simulated clock
package binding

import (
	"fmt"
	"hash/fnv"

	"cfm/internal/cache"
	"cfm/internal/sim"
	"cfm/internal/syncprim"
)

// This file implements the CFM-backed resource binding runtime of §6.5.1:
// "For those data structures with larger granularity, they can be divided
// into components, with each component controlled by a lock. … A binding
// target can consist of multiple components and can be bound by applying
// an atomic multiple lock to the components."
//
// A CFMBinder maps every datum of a bound region onto one of the 64 lock
// bits of a lock block (a component), and acquires the whole component
// set with ONE atomic multiple test-and-set on the simulated CFM cache
// protocol — all-or-nothing, so partial-acquisition deadlock is
// impossible, exactly as in the dissertation's implementation sketch.
// The simulation clock runs in a dedicated goroutine; callers are
// ordinary goroutines that submit requests over channels.

// components is the number of lock bits in the multiple-lock block.
const components = 64

// CFMBinder is a resource binding runtime whose conflicts are resolved by
// the CFM atomic multiple lock hardware.
type CFMBinder struct {
	reqs chan cfmReq
	done chan struct{}

	// Collisions counts distinct data mapped to the same component — the
	// granularity cost of the component scheme (false conflicts).
	// Maintained inside the simulation goroutine.
}

// cfmLease is a granted CFM-backed binding.
type cfmLease struct {
	pattern syncprim.Pattern
	proc    int
}

// CFMLease is the descriptor returned by a CFMBinder bind.
type CFMLease struct {
	l      cfmLease
	region Region
}

// Region returns the bound region.
func (l *CFMLease) Region() Region { return l.region }

// Pattern exposes the component bit map the bind acquired.
func (l *CFMLease) Pattern() uint64 { return uint64(l.l.pattern) }

type cfmReq struct {
	bind    bool
	proc    int
	pattern syncprim.Pattern
	reply   chan bool // bind: granted (always true eventually); unbind: ack
}

// NewCFMBinder starts the runtime on a simulated CFM with the given
// processor count (each concurrently binding client needs its own
// processor; clients pass their processor index to Bind).
func NewCFMBinder(processors int) *CFMBinder {
	if processors < 2 {
		panic(fmt.Sprintf("binding: CFM binder needs >=2 processors, got %d", processors))
	}
	b := &CFMBinder{
		reqs: make(chan cfmReq),
		done: make(chan struct{}),
	}
	go b.run(processors)
	return b
}

// Stop terminates the simulation goroutine.
func (b *CFMBinder) Stop() { close(b.done) }

// run drives the simulated CFM cache protocol and multiple-lock unit,
// stepping the clock and servicing bind/unbind requests.
func (b *CFMBinder) run(processors int) {
	proto := cache.New(cache.Config{Processors: processors, Lines: 4, RetryDelay: 1}, nil)
	ml := syncprim.NewMultiLocker(proto, 0)
	clk := sim.NewClock()
	clk.Register(ml)
	clk.Register(proto)

	// pending[proc] = reply channel awaiting that processor's grant;
	// releasing[proc] = reply channel awaiting the end of its unlock, so a
	// client never rebinds a processor whose unlock is still in flight.
	pending := make(map[int]chan bool)
	releasing := make(map[int]chan bool)
	handle := func(req cfmReq) {
		if req.bind {
			ml.Request(req.proc, req.pattern)
			pending[req.proc] = req.reply
		} else {
			ml.Release(req.proc)
			releasing[req.proc] = req.reply
		}
	}
	for {
		// Service any due grants and finished unlocks.
		for proc, reply := range pending {
			if ml.Holding(proc) != 0 {
				delete(pending, proc)
				reply <- true
			}
		}
		for proc, reply := range releasing {
			if ml.Idle(proc) {
				delete(releasing, proc)
				reply <- true
			}
		}
		if len(pending) == 0 && len(releasing) == 0 && proto.Idle() {
			// Nothing in flight: block until the next request instead of
			// spinning the clock.
			select {
			case <-b.done:
				return
			case req := <-b.reqs:
				handle(req)
			}
		} else {
			select {
			case <-b.done:
				return
			case req := <-b.reqs:
				handle(req)
			default:
			}
		}
		clk.Step()
	}
}

// PatternFor maps a region onto its component bit map: every selected
// element hashes to one of the 64 components. Overlapping regions always
// share at least one component (same element → same bit), so mutual
// exclusion is preserved; disjoint regions may occasionally collide on a
// bit (a false conflict — the granularity trade-off of §6.5.1).
func PatternFor(r Region) syncprim.Pattern {
	var pat syncprim.Pattern
	addBit := func(idx []int) {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s.%s", r.Target, r.Field)
		for _, i := range idx {
			fmt.Fprintf(h, "/%d", i)
		}
		pat |= 1 << (h.Sum64() % components)
	}
	// Enumerate the region's elements (product of dimensions), bounded:
	// once every component bit could be set we can stop early.
	var walk func(dim int, idx []int)
	walk = func(dim int, idx []int) {
		if pat == ^syncprim.Pattern(0) {
			return
		}
		if dim == len(r.Dims) {
			addBit(idx)
			return
		}
		d := r.Dims[dim]
		step := d.Step
		if step <= 0 {
			step = 1
		}
		for x := d.Start; x <= d.Stop; x += step {
			walk(dim+1, append(idx, x))
		}
	}
	walk(0, nil)
	if pat == 0 {
		// A region with no dims still needs a component.
		addBit(nil)
	}
	return pat
}

// Bind atomically acquires every component of the region for the given
// simulated processor, blocking until granted. Field selectors
// participate in the hash, so disjoint fields of the same elements do
// not (necessarily) conflict.
func (b *CFMBinder) Bind(proc int, r Region) (*CFMLease, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	pat := PatternFor(r)
	reply := make(chan bool, 1)
	b.reqs <- cfmReq{bind: true, proc: proc, pattern: pat, reply: reply}
	<-reply
	return &CFMLease{l: cfmLease{pattern: pat, proc: proc}, region: r}, nil
}

// Unbind releases a CFM-backed binding.
func (b *CFMBinder) Unbind(l *CFMLease) {
	if l == nil {
		panic("binding: unbind of nil CFM lease")
	}
	reply := make(chan bool, 1)
	b.reqs <- cfmReq{bind: false, proc: l.l.proc, reply: reply}
	<-reply
}
