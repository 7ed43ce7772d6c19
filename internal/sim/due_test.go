package sim

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// dueBoth runs DueOffsets and dueScalar, the definition, on ne at t, each
// into an out of len(ne)+guard entries pre-filled with a sentinel, and
// fails on a different count, a different offset, or a store past
// out[len(ne)−1].
func dueBoth(t *testing.T, ne []Slot, now Slot) {
	t.Helper()
	const guard, sentinel = 16, -7
	fill := func() []int32 {
		out := make([]int32, len(ne)+guard)
		for i := range out {
			out[i] = sentinel
		}
		return out
	}
	want, got := fill(), fill()
	kw := dueScalar(ne, now, want, 0, 0)
	kg := DueOffsets(ne, now, got[:len(ne)])
	if kg != kw {
		t.Fatalf("n=%d t=%d: DueOffsets found %d due, scalar loop %d", len(ne), now, kg, kw)
	}
	for i := 0; i < kw; i++ {
		if got[i] != want[i] {
			t.Fatalf("n=%d t=%d: due offset %d is %d, scalar loop %d", len(ne), now, i, got[i], want[i])
		}
	}
	for i := len(ne); i < len(got); i++ {
		if got[i] != sentinel {
			t.Fatalf("n=%d t=%d: DueOffsets wrote out[%d], past the caller's range", len(ne), now, i)
		}
	}
	for i, c := range want[:kw] {
		if ne[c] > now || (i > 0 && c <= want[i-1]) {
			t.Fatalf("n=%d t=%d: scalar loop listed offset %d (ne %d) at %d", len(ne), now, c, ne[c], i)
		}
	}
}

// TestDueKernel compares DueOffsets with the scalar loop at every length
// 0–130 (every kernel step count and every scalar tail), with t equal to
// entries, below and above them all, negative, and with HorizonNone and
// 1<<60 (an idle processor's arrival) among the entries.
func TestDueKernel(t *testing.T) {
	if haveAVX512 {
		t.Log("CPU has AVX-512F/DQ: DueOffsets runs the vector kernel")
	} else {
		t.Log("CPU lacks AVX-512F/DQ: DueOffsets runs the scalar loop, kernel not exercised")
	}
	r := NewRNG(1)
	for n := 0; n <= 130; n++ {
		ne := make([]Slot, n)
		for i := range ne {
			switch r.Intn(8) {
			case 0:
				ne[i] = HorizonNone
			case 1:
				ne[i] = 1 << 60
			case 2:
				ne[i] = -Slot(r.Intn(50))
			default:
				ne[i] = Slot(r.Intn(100))
			}
		}
		ts := []Slot{-1 << 62, -60, -1, 0, 49, 100, 1<<60 - 1, 1 << 60, HorizonNone - 1, HorizonNone}
		for _, v := range ne {
			ts = append(ts, v, v-1)
		}
		for _, now := range ts {
			dueBoth(t, ne, now)
		}
	}
}

// FuzzDue compares DueOffsets with the scalar loop on arbitrary entries:
// each eight bytes of data are one Slot.
func FuzzDue(f *testing.F) {
	seed := func(now int64, vs ...int64) {
		b := make([]byte, 8*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
		}
		f.Add(now, b)
	}
	seed(5, 1, 5, 6, 9, 0, 5, 3, 7, 2, 8, 4, 1<<60, 5, 5, 6, -1, 3)
	seed(-3, -3, -4, int64(HorizonNone), 0, -1<<63, 1<<62, -2, -3)
	seed(int64(HorizonNone), int64(HorizonNone), 0, 1)
	f.Fuzz(func(t *testing.T, now int64, data []byte) {
		ne := make([]Slot, len(data)/8)
		for i := range ne {
			ne[i] = Slot(binary.LittleEndian.Uint64(data[8*i:]))
		}
		dueBoth(t, ne, Slot(now))
	})
}

// BenchmarkDue reports each path's cost per entry on ranges of the
// lengths Partial's contention sets have: 8 (the sparse fleet), 128 and
// 512 (the benchmark fleets). One entry in eight is due.
func BenchmarkDue(b *testing.B) {
	paths := []struct {
		name string
		due  func(ne []Slot, t Slot, out []int32) int
	}{
		{"scalar", func(ne []Slot, t Slot, out []int32) int { return dueScalar(ne, t, out, 0, 0) }},
		{"kernel", DueOffsets},
	}
	for _, n := range []int{8, 128, 512} {
		ne := make([]Slot, n)
		r := NewRNG(3)
		for i := range ne {
			ne[i] = Slot(r.Intn(800))
		}
		out := make([]int32, n)
		for _, p := range paths {
			b.Run(fmt.Sprintf("n%d/%s", n, p.name), func(b *testing.B) {
				if p.name == "kernel" && !haveAVX512 {
					b.Skip("CPU lacks AVX-512F/DQ")
				}
				for i := 0; i < b.N; i++ {
					p.due(ne, 99, out)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/entry")
			})
		}
	}
}
