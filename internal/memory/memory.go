// Package memory models the storage substrate of a shared-memory
// multiprocessor: memory words, blocks, banks with a configurable bank
// cycle, interleaved modules, and the conventional interleaved memory
// system that serves as the baseline the CFM is evaluated against
// (dissertation §3.4.1, Figs. 3.13–3.15).
//
// Terminology follows Table 3.2 of the dissertation:
//
//	n  number of processors
//	b  number of memory banks
//	m  number of memory modules
//	l  block (and cache line) size in bits
//	w  memory word width in bits
//	c  memory bank cycle in CPU cycles
//	β  block access time in CPU cycles (β = b + c − 1)
//
// A memory word is the data unit retrieved from or stored in a memory
// bank within one memory access; a block is the set of memory locations
// with the same offset in all banks of a module.
package memory

import (
	"fmt"

	"cfm/internal/metrics"
	"cfm/internal/sim"
)

// Word is one memory word. The simulator fixes the in-memory
// representation at 64 bits regardless of the modelled word width w; w
// matters only for configuration arithmetic (l = b·w), not for storage.
type Word uint64

// Block is a sequence of words with the same offset across the banks of a
// module, transferred as a unit by every CFM access.
type Block []Word

// Clone returns an independent copy of the block.
func (b Block) Clone() Block {
	out := make(Block, len(b))
	copy(out, b)
	return out
}

// Equal reports whether two blocks have identical length and contents.
func (b Block) Equal(o Block) bool {
	if len(b) != len(o) {
		return false
	}
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}

// pageShift/pageWords/pageMask size the paged word store: bank contents
// live in fixed 64-word pages held in one flat slab per arena, so the
// hot path indexes arrays instead of hashing map keys.
const (
	pageShift = 6
	pageWords = 1 << pageShift
	pageMask  = pageWords - 1
)

// maxSnapshotOffset bounds word offsets accepted from snapshots, so a
// corrupted checkpoint cannot demand an absurd directory allocation.
const maxSnapshotOffset = 1 << 28

// BankArena owns the state of a fleet of memory banks: word-addressed
// storage plus the timing state needed to model a bank cycle of c CPU
// cycles. A bank can accept a new word access only when it is not busy;
// accepting one makes it busy for the next c slots.
//
// The fleet is held as struct-of-arrays: flat parallel arrays indexed
// by bank, plus a paged word store shared by the fleet. Timing state,
// statistics, and contents for bank i all sit at index i of
// primitive-element slices, so a dense tick loop over the fleet sweeps
// contiguous memory with no per-bank pointer chasing.
//
// Word storage is paged: a page holds pageWords consecutive offsets of
// one bank. Pages for the same page number are allocated for all banks
// at once (a "page group"), so the slab position of (group g, bank i)
// is simply g*nbanks+i and never needs a per-bank directory. A
// presence bitmap per page preserves the old map semantics — an offset
// reads as zero until stored, and snapshots enumerate exactly the
// stored offsets.
//
//cfm:soa
type BankArena struct {
	cycle  int // c, in CPU cycles
	nbanks int

	busyTill  []sim.Slot // first slot at which bank i is free again
	accesses  []int64    // accepted word accesses per bank
	conflicts []int64    // rejected attempts while busy, per bank

	// dir maps a page number (offset >> pageShift) to its page-group
	// index, or -1 while untouched. Shared by all banks of the arena.
	dir []int32
	// words holds the page of (group g, bank i) at
	// [(g*nbanks+i) << pageShift:][:pageWords].
	words []Word
	// present holds one presence bitmap per page: bit offset&pageMask
	// of present[g*nbanks+i] is set iff that word has been stored.
	// Invariant: a words entry is zero whenever its presence bit is
	// clear, so the load path never consults the bitmap.
	present []uint64

	// Registry handles (nil when unobserved — nil-safe no-ops). Counter
	// adds are atomic and commutative, so banks ticked from parallel
	// shards still produce deterministic registry totals. Several banks
	// may share one handle to aggregate into a single metric.
	mAccesses  []*metrics.Counter //cfm:soa-ok cold observation handles, not ticked state
	mConflicts []*metrics.Counter //cfm:soa-ok cold observation handles, not ticked state
}

// NewBankArena returns an arena of n idle banks sharing bank cycle c
// (≥ 1).
func NewBankArena(n, c int) *BankArena {
	if n < 1 {
		panic(fmt.Sprintf("memory: bank count %d < 1", n))
	}
	if c < 1 {
		panic(fmt.Sprintf("memory: bank cycle %d < 1", c))
	}
	return &BankArena{
		cycle:      c,
		nbanks:     n,
		busyTill:   make([]sim.Slot, n),
		accesses:   make([]int64, n),
		conflicts:  make([]int64, n),
		mAccesses:  make([]*metrics.Counter, n),
		mConflicts: make([]*metrics.Counter, n),
	}
}

// Banks returns the number of banks in the arena.
func (ar *BankArena) Banks() int { return ar.nbanks }

// Cycle returns the shared bank cycle c.
func (ar *BankArena) Cycle() int { return ar.cycle }

// Observe attaches registry counters for bank i's accepted accesses and
// rejected conflicts. Several banks may share the same handles to
// aggregate into one metric (e.g. all banks of a CFMemory). Nil handles
// disable observation.
func (ar *BankArena) Observe(i int, accesses, conflicts *metrics.Counter) {
	ar.mAccesses[i] = accesses
	ar.mConflicts[i] = conflicts
}

// pageBase returns the slab index of bank i's page containing offset, or
// -1 when the page group does not exist yet. It never allocates.
func (ar *BankArena) pageBase(i, offset int) int {
	pn := offset >> pageShift
	if pn >= len(ar.dir) {
		return -1
	}
	g := ar.dir[pn]
	if g < 0 {
		return -1
	}
	return int(g)*ar.nbanks + i
}

// ensurePage returns the slab index of bank i's page containing offset,
// allocating the page group on first touch.
func (ar *BankArena) ensurePage(i, offset int) int {
	pn := offset >> pageShift
	if pn >= len(ar.dir) {
		grown := make([]int32, pn+1) //cfm:alloc-ok directory growth is amortized and absent in steady state
		copy(grown, ar.dir)
		for j := len(ar.dir); j < len(grown); j++ {
			grown[j] = -1
		}
		ar.dir = grown
	}
	g := ar.dir[pn]
	if g < 0 {
		g = int32(len(ar.present) / ar.nbanks)
		ar.dir[pn] = g
		ar.words = append(ar.words, make([]Word, pageWords*ar.nbanks)...) //cfm:alloc-ok page-group growth is amortized and absent in steady state
		ar.present = append(ar.present, make([]uint64, ar.nbanks)...)     //cfm:alloc-ok page-group growth is amortized and absent in steady state
	}
	return int(g)*ar.nbanks + i
}

// loadWord reads bank i's word at offset; absent words read as zero.
// This is the single load path shared by timed reads and Peek.
func (ar *BankArena) loadWord(i, offset int) Word {
	if offset < 0 {
		panic(fmt.Sprintf("memory: negative word offset %d", offset))
	}
	base := ar.pageBase(i, offset)
	if base < 0 {
		return 0
	}
	return ar.words[(base<<pageShift)+(offset&pageMask)]
}

// storeWord writes bank i's word at offset, marking it present. This is
// the single store path shared by timed writes, Poke, and LoadState.
func (ar *BankArena) storeWord(i, offset int, w Word) {
	if offset < 0 {
		panic(fmt.Sprintf("memory: negative word offset %d", offset))
	}
	base := ar.ensurePage(i, offset)
	bit := uint(offset & pageMask)
	ar.present[base] |= 1 << bit
	ar.words[(base<<pageShift)+int(bit)] = w
}

// clearBank drops bank i's contents: presence bits cleared and the
// backing words zeroed, so absent offsets read as zero again.
func (ar *BankArena) clearBank(i int) {
	for base := i; base < len(ar.present); base += ar.nbanks {
		if ar.present[base] == 0 {
			continue
		}
		ar.present[base] = 0
		page := ar.words[base<<pageShift : (base+1)<<pageShift]
		for j := range page {
			page[j] = 0
		}
	}
}

// Busy reports whether bank i is still serving an access at slot t.
func (ar *BankArena) Busy(i int, t sim.Slot) bool { return t < ar.busyTill[i] }

// Peek reads bank i's word without touching timing state (for tests and
// assertions, not for simulated accesses). It goes through the same
// storage path as timed reads.
func (ar *BankArena) Peek(i, offset int) Word { return ar.loadWord(i, offset) }

// Poke writes bank i's word without touching timing state, through the
// same storage path as timed writes.
func (ar *BankArena) Poke(i, offset int, w Word) { ar.storeWord(i, offset, w) }

// Read performs a timed word read on bank i at slot t. ok is false (and
// the access is rejected, counting a conflict) if the bank is busy.
func (ar *BankArena) Read(t sim.Slot, i, offset int) (w Word, ok bool) {
	if t < ar.busyTill[i] {
		ar.conflicts[i]++
		ar.mConflicts[i].Inc()
		return 0, false
	}
	ar.busyTill[i] = t + sim.Slot(ar.cycle)
	ar.accesses[i]++
	ar.mAccesses[i].Inc()
	return ar.loadWord(i, offset), true
}

// Write performs a timed word write on bank i at slot t. ok is false
// (and the access is rejected, counting a conflict) if the bank is busy.
func (ar *BankArena) Write(t sim.Slot, i, offset int, w Word) bool {
	if t < ar.busyTill[i] {
		ar.conflicts[i]++
		ar.mConflicts[i].Inc()
		return false
	}
	ar.busyTill[i] = t + sim.Slot(ar.cycle)
	ar.accesses[i]++
	ar.mAccesses[i].Inc()
	ar.storeWord(i, offset, w)
	return true
}

// Reset clears bank i's timing state and statistics but keeps contents.
func (ar *BankArena) Reset(i int) {
	ar.busyTill[i] = 0
	ar.accesses[i] = 0
	ar.conflicts[i] = 0
}

// Accesses returns the number of accepted word accesses of bank i.
func (ar *BankArena) Accesses(i int) int64 { return ar.accesses[i] }

// Conflicts returns the number of rejected attempts on bank i while busy.
func (ar *BankArena) Conflicts(i int) int64 { return ar.conflicts[i] }
