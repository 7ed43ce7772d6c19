package memory

import (
	"testing"

	"cfm/internal/sim"
)

// TestBankArenaTimedAccessAllocFree guards the zero-allocation steady
// state of the SoA tick path: once the pages backing the working set
// exist, timed Read/Write traffic is pure index arithmetic on the
// arena's flat arrays — no map nodes, no per-access boxing.
func TestBankArenaTimedAccessAllocFree(t *testing.T) {
	const banks, span = 16, 4 * pageWords
	ar := NewBankArena(banks, 2)
	for i := 0; i < banks; i++ {
		for o := 0; o < span; o++ {
			ar.Poke(i, o, Word(i*span+o)) // warm-up: materialize every page
		}
	}
	var tick sim.Slot
	if avg := testing.AllocsPerRun(50, func() {
		for i := 0; i < banks; i++ {
			ar.Write(tick, i, int(tick)%span, Word(tick))
			ar.Read(tick+1, i, (int(tick)+7)%span)
		}
		tick += 4
	}); avg != 0 {
		t.Fatalf("steady-state timed accesses allocate %v times per run, want 0", avg)
	}
	var acc int64
	for i := 0; i < banks; i++ {
		acc += ar.Accesses(i)
	}
	if acc == 0 {
		t.Fatal("no accesses served: guard is vacuous")
	}
}

// FuzzBankArenaPageRoundTrip drives arbitrary (page-boundary-hugging)
// offsets through the paged word storage: every poked word peeks back,
// untouched neighbors read as zero (the map-era absent semantics), and
// the snapshot stream round-trips byte-stably through a fresh arena.
func FuzzBankArenaPageRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint32(pageWords-1), uint32(pageWords), uint32(4096))
	f.Add(uint32(1), uint32(2*pageWords-1), uint32(2*pageWords), uint32(2*pageWords+1))
	f.Add(uint32(pageWords+1), uint32(pageWords+1), uint32(1<<19), uint32(7))
	f.Add(uint32(1<<20-1), uint32(0), uint32(3*pageWords), uint32(pageWords/2))
	f.Fuzz(func(t *testing.T, a, b, c, d uint32) {
		const banks = 3
		offs := []int{int(a % (1 << 20)), int(b % (1 << 20)), int(c % (1 << 20)), int(d % (1 << 20))}
		ar := NewBankArena(banks, 2)
		want := make([]map[int]Word, banks)
		for i := 0; i < banks; i++ {
			want[i] = make(map[int]Word)
			for k, o := range offs {
				w := Word(uint64(i+1)<<40 | uint64(o)<<4 | uint64(k))
				ar.Poke(i, o, w)
				want[i][o] = w
			}
		}
		for i := 0; i < banks; i++ {
			for o, w := range want[i] {
				if got := ar.Peek(i, o); got != w {
					t.Fatalf("bank %d offset %d: peek %d, want %d", i, o, got, w)
				}
				for _, n := range []int{o - 1, o + 1} {
					if n < 0 {
						continue
					}
					if _, stored := want[i][n]; stored {
						continue
					}
					if got := ar.Peek(i, n); got != 0 {
						t.Fatalf("bank %d offset %d: untouched neighbor reads %d, want 0", i, n, got)
					}
				}
			}
		}
		enc := sim.NewStateEncoder()
		ar.SaveState(enc)
		if enc.Err() != nil {
			t.Fatalf("snapshot failed: %v", enc.Err())
		}
		ar2 := NewBankArena(banks, 2)
		dec := sim.NewStateDecoder(enc.Bytes())
		ar2.LoadState(dec)
		if dec.Err() != nil {
			t.Fatalf("restore failed: %v", dec.Err())
		}
		for i := 0; i < banks; i++ {
			for o, w := range want[i] {
				if got := ar2.Peek(i, o); got != w {
					t.Fatalf("bank %d offset %d after restore: peek %d, want %d", i, o, got, w)
				}
			}
		}
		enc2 := sim.NewStateEncoder()
		ar2.SaveState(enc2)
		if string(enc.Bytes()) != string(enc2.Bytes()) {
			t.Fatal("snapshot bytes not stable across a save/load/save round trip")
		}
	})
}
