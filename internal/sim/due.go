package sim

// dueVector is the shortest range DueOffsets hands to the AVX-512
// kernel: one compare covers eight Slots, and a shorter range runs the
// scalar loop alone.
const dueVector = 8

// DueOffsets writes to out, in ascending order, every offset c with
// ne[c] ≤ t, and returns how many it wrote. out must be at least
// len(ne) long; DueOffsets writes only out[:len(ne)]. On a CPU with
// AVX-512 the whole multiple-of-eight prefix of ne goes through one
// vector compare per eight entries (dueAVX512) and the rest through
// dueScalar, the definition; the result is the same either way.
//
//cfm:shard-ok writes only out[:len(ne)], the range the caller passes in
func DueOffsets(ne []Slot, t Slot, out []int32) int {
	out = out[:len(ne)]
	v, k := 0, 0
	if haveAVX512 && len(ne) >= dueVector {
		v = len(ne) &^ (dueVector - 1)
		k = dueAVX512(&ne[0], v, t, &out[0])
	}
	return dueScalar(ne[v:], t, out, v, k)
}

// dueScalar is DueOffsets without the kernel: it appends off+c to
// out[k:] for every offset c of ne with ne[c] ≤ t and returns the new
// count. The offset is written whether or not the entry is due, and k
// advances by the comparison, so a quiescent entry costs a store and an
// add and no mispredicted jump. k ≤ off+c at every step, so no store
// lands past out[off+len(ne)−1].
func dueScalar(ne []Slot, t Slot, out []int32, off, k int) int {
	for c, v := range ne {
		out[k] = int32(off + c)
		k += b2i(v <= t)
	}
	return k
}

// b2i is 1 for true and 0 for false; the compiler turns it into a SETcc,
// not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
