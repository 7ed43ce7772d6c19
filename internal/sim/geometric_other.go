//go:build !amd64

package sim

// haveAVX512 is false off amd64: Geometric runs the four-draw blocks
// alone, and DueOffsets the scalar loop.
const haveAVX512 = false

// searchAVX512 exists only on amd64; geometric never calls it here.
func searchAVX512(s, lim uint64, blocks int) (int, bool) {
	panic("sim: the AVX-512 geometric kernel needs amd64")
}

// dueAVX512 exists only on amd64; DueOffsets never calls it here.
func dueAVX512(ne *Slot, n int, t Slot, out *int32) int {
	panic("sim: the AVX-512 due kernel needs amd64")
}
