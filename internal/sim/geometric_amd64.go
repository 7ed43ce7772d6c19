package sim

// haveAVX512 reports whether the CPU runs the AVX-512 kernels,
// searchAVX512 and dueAVX512: they need AVX-512F, AVX-512DQ (for
// VPMULLQ), and an OS that saves the opmask and ZMM registers. It is
// fixed at start-up; the result never depends on it, only the speed.
var haveAVX512 = detectAVX512()

func detectAVX512() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&(1<<27) == 0 { // OSXSAVE
		return false
	}
	// XCR0: SSE, AVX, opmask, upper halves of ZMM0-15, ZMM16-31.
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xcr0, _ := xgetbv(); xcr0&zmmState != zmmState {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const f, dq = 1 << 16, 1 << 17
	return ebx7&f != 0 && ebx7&dq != 0
}

// searchAVX512 finds the first draw k in 1..32·blocks (blocks ≥ 1) with
// mix(s + k·gamma) < lim, 32 draws per step. It returns (k, true), or
// (32·blocks, false) when no draw in range succeeds.
func searchAVX512(s, lim uint64, blocks int) (k int, found bool)

// cpuid executes CPUID with the given EAX and ECX inputs.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns XCR0, the OS-enabled register state, as EDX:EAX.
func xgetbv() (eax, edx uint32)

// dueAVX512 writes the offsets c in [0, n) with ne[c] ≤ t to out, in
// ascending order, and returns how many it wrote; n is a positive
// multiple of 8. It writes nothing past out[k−1].
//
//go:noescape
func dueAVX512(ne *Slot, n int, t Slot, out *int32) (k int)
