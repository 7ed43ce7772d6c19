// Package neg holds tempting-but-legal TickShard graphs: shard-indexed
// writes, ownership propagation, strided and contiguous sweeps, closures
// built for later phases, reasoned waivers, and FinishShards folds. The
// pass must stay silent.
package neg

import "cfm/internal/sim"

// access mirrors the simulator's pooled access records: data popped
// from a shard's queue carries shard-owned coordinates.
type access struct {
	proc int
	when sim.Slot
}

// Sharded exercises the legal idioms.
type Sharded struct {
	state   []int
	arrival []sim.Slot
	cur     [][]access
	pool    []int
	cols    []column
	pending [][]func()
	next    []sim.Slot
	stride  int
	procs   int
	per     int
	mark    int
	total   int
}

type column struct{ depth int }

func (c *column) push(v int) { c.depth += v }

func (d *Sharded) Shards() int                   { return 4 }
func (d *Sharded) Tick(t sim.Slot, ph sim.Phase) {}

func (d *Sharded) TickShard(t sim.Slot, ph sim.Phase, s int) {
	// Plain shard-indexed writes: the shard owns its column.
	d.state[s]++
	d.arrival[s] = t

	// Strided sweep: i starts at the shard parameter, so every index it
	// reaches is shard-owned.
	for i := s; i < d.procs; i += d.stride {
		d.state[i] = int(t)
	}

	// Contiguous sweep over set-major storage: shard s owns the range
	// [s·per, (s+1)·per) of every array. The range key is local, but
	// base+j is shard-owned through base.
	base := s * d.per
	for j, v := range d.next[base : base+d.per] {
		if v <= t {
			d.state[base+j] = int(t)
		}
	}

	// Ownership propagation: a was read out of shard s's queue, so its
	// coordinates index shard-owned columns (a.proc == s by contract).
	for _, a := range d.cur[s] {
		d.pool[a.proc] += int(a.when)
	}

	// A helper mutating a shard-owned sub-object is receiver-rooted.
	d.cols[s].push(1)

	// Helper-computed indexes keep their shard taint.
	d.state[offset(s, d.stride)] = 0

	// Closures are data here: the body runs under FinishShards, which
	// the pass does not analyze.
	d.pending[s] = append(d.pending[s], func() { d.total++ })

	// Locals are always writable.
	acc := 0
	for _, v := range d.cur[s] {
		acc += v.proc
	}
	buf := make([]int, 0, 4)
	buf = append(buf, acc)
	_ = buf

	if s == 0 {
		d.mark = int(t) //cfm:shard-ok single-writer: only shard 0 takes this branch
	}
	d.audit(s)
}

// offset is a pure index helper; its result inherits the shard class.
func offset(s, stride int) int { return s + stride }

// audit is exempted wholesale with a reason.
//
//cfm:shard-ok diagnostic counter, reset before every parallel phase and read only after the barrier
func (d *Sharded) audit(s int) {
	d.total += s
}

// FinishShards is the sanctioned fold point: cross-shard writes here
// are the design, not a bug.
func (d *Sharded) FinishShards(t sim.Slot, ph sim.Phase) {
	d.total = 0
	for s := range d.pending {
		for _, fn := range d.pending[s] {
			fn()
		}
		d.pending[s] = d.pending[s][:0]
	}
}
