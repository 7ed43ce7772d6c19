package workload

import (
	"testing"

	"cfm/internal/sim"
)

// statefulGen is a generator that checkpoints itself.
type statefulGen interface {
	Generator
	sim.Stater
}

// draws records every processor's Next over [from, to).
func draws(g Generator, procs int, from, to sim.Slot) []Access {
	var out []Access
	for t := from; t < to; t++ {
		for p := 0; p < procs; p++ {
			if a, ok := g.Next(t, p); ok {
				out = append(out, a)
			}
		}
	}
	return out
}

// TestGeneratorStateRoundTrip checkpoints each generator mid-stream,
// restores the snapshot into a freshly built one, and requires both to
// draw the same accesses from then on; every truncation of the snapshot
// must fail the restore.
func TestGeneratorStateRoundTrip(t *testing.T) {
	const procs, cut, end = 4, 37, 200
	sel := Uniform(8)
	gens := []struct {
		name  string
		build func() statefulGen
	}{
		{"Bernoulli", func() statefulGen { return NewBernoulli(procs, 0.3, 0.5, 11, sel) }},
		{"Gapped", func() statefulGen { return NewGapped(procs, 2, 9, 0.5, 12, sel) }},
		{"DutyCycle/Bernoulli", func() statefulGen {
			return NewDutyCycle(NewBernoulli(procs, 0.3, 0.5, 13, sel), 10, 4)
		}},
		{"DutyCycle/Gapped", func() statefulGen {
			return NewDutyCycle(NewGapped(procs, 1, 5, 0.5, 14, sel), 10, 6)
		}},
	}
	for _, g := range gens {
		t.Run(g.name, func(t *testing.T) {
			src := g.build()
			if len(draws(src, procs, 0, cut)) == 0 {
				t.Fatal("no access before the cut: the prefix advanced nothing")
			}
			enc := sim.NewStateEncoder()
			src.SaveState(enc)
			if enc.Err() != nil {
				t.Fatalf("save: %v", enc.Err())
			}
			snap := enc.Bytes()

			dst := g.build()
			dec := sim.NewStateDecoder(snap)
			dst.LoadState(dec)
			if dec.Err() != nil {
				t.Fatalf("load: %v", dec.Err())
			}
			want, got := draws(src, procs, cut, end), draws(dst, procs, cut, end)
			if len(want) == 0 {
				t.Fatal("no access after the cut: the comparison is vacuous")
			}
			if len(got) != len(want) {
				t.Fatalf("restored generator drew %d accesses, original %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("draw %d after restore: %+v, want %+v", i, got[i], want[i])
				}
			}
			// A fresh generator would have drawn differently: the restore
			// carried state, not just configuration.
			fresh := draws(g.build(), procs, cut, end)
			same := len(fresh) == len(want)
			for i := 0; same && i < len(want); i++ {
				same = fresh[i] == want[i]
			}
			if same {
				t.Fatal("an unrestored generator draws the same stream: the test cannot see the restore")
			}

			for n := 0; n < len(snap); n++ {
				dec := sim.NewStateDecoder(snap[:n])
				g.build().LoadState(dec)
				if dec.Err() == nil {
					t.Fatalf("restore from the first %d of %d snapshot bytes succeeded", n, len(snap))
				}
			}
		})
	}
}

// stateless is a generator with no checkpoint support.
type stateless struct{}

func (stateless) Next(sim.Slot, int) (Access, bool) { return Access{}, false }

// TestDutyCycleRejectsUncheckpointableInner: the envelope cannot save
// an inner generator that is not a Stater, and says so on both sides.
func TestDutyCycleRejectsUncheckpointableInner(t *testing.T) {
	d := NewDutyCycle(stateless{}, 4, 2)
	enc := sim.NewStateEncoder()
	d.SaveState(enc)
	if enc.Err() == nil {
		t.Fatal("save of a stateless inner generator succeeded")
	}
	dec := sim.NewStateDecoder(nil)
	d.LoadState(dec)
	if dec.Err() == nil {
		t.Fatal("load into a stateless inner generator succeeded")
	}
}

// TestGeneratorStateRejectsProcessorMismatch: a snapshot restores only
// into a generator with as many processors as the one that wrote it.
func TestGeneratorStateRejectsProcessorMismatch(t *testing.T) {
	sel := Uniform(4)
	for _, pair := range [][2]statefulGen{
		{NewBernoulli(4, 0.3, 0.5, 1, sel), NewBernoulli(3, 0.3, 0.5, 1, sel)},
		{NewGapped(4, 1, 3, 0.5, 1, sel), NewGapped(3, 1, 3, 0.5, 1, sel)},
	} {
		enc := sim.NewStateEncoder()
		pair[0].SaveState(enc)
		dec := sim.NewStateDecoder(enc.Bytes())
		pair[1].LoadState(dec)
		if dec.Err() == nil {
			t.Fatalf("%T: a 4-processor snapshot restored into 3 processors", pair[1])
		}
	}
}
