//go:build !amd64

package sim

// haveAVX512 is false off amd64: Geometric runs the four-draw blocks
// alone.
const haveAVX512 = false

// searchAVX512 exists only on amd64; geometric never calls it here.
func searchAVX512(s, lim uint64, blocks int) (int, bool) {
	panic("sim: the AVX-512 geometric kernel needs amd64")
}
