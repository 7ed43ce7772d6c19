package workload

import (
	"math"
	"testing"

	"cfm/internal/sim"
)

func TestBernoulliRate(t *testing.T) {
	g := NewBernoulli(8, 0.05, 0, 1, Uniform(8))
	tr := Record(g, 8, 50000)
	got := tr.Rate(8, 50000)
	if math.Abs(got-0.05) > 0.003 {
		t.Fatalf("observed rate %v, want ~0.05", got)
	}
}

func TestBernoulliZeroRate(t *testing.T) {
	g := NewBernoulli(4, 0, 0, 1, Uniform(4))
	tr := Record(g, 4, 1000)
	if len(tr.Accesses) != 0 {
		t.Fatalf("%d accesses at rate 0", len(tr.Accesses))
	}
	if tr.Rate(4, 1000) != 0 || tr.ModuleShare(0) != 0 {
		t.Fatal("empty trace stats nonzero")
	}
}

func TestBernoulliStoreFraction(t *testing.T) {
	g := NewBernoulli(4, 0.5, 0.25, 2, Uniform(4))
	tr := Record(g, 4, 20000)
	stores := 0
	for _, a := range tr.Accesses {
		if a.Store {
			stores++
		}
	}
	frac := float64(stores) / float64(len(tr.Accesses))
	if math.Abs(frac-0.25) > 0.02 {
		t.Fatalf("store fraction %v, want ~0.25", frac)
	}
}

func TestUniformSelectorCoversModules(t *testing.T) {
	g := NewBernoulli(2, 1, 0, 3, Uniform(5))
	tr := Record(g, 2, 5000)
	for m := 0; m < 5; m++ {
		share := tr.ModuleShare(m)
		if math.Abs(share-0.2) > 0.03 {
			t.Fatalf("module %d share %v, want ~0.2", m, share)
		}
	}
}

func TestHotSpotSelector(t *testing.T) {
	g := NewBernoulli(4, 1, 0, 4, HotSpot(8, 3, 0.4))
	tr := Record(g, 4, 10000)
	// Hot module gets h + (1−h)/m = 0.4 + 0.6/8 = 0.475.
	share := tr.ModuleShare(3)
	if math.Abs(share-0.475) > 0.02 {
		t.Fatalf("hot module share %v, want ~0.475", share)
	}
	// The other modules share the rest evenly: 0.075 each.
	if s := tr.ModuleShare(0); math.Abs(s-0.075) > 0.02 {
		t.Fatalf("cold module share %v, want ~0.075", s)
	}
}

func TestLocalitySelector(t *testing.T) {
	// 8 procs, cluster size 2, 4 modules: proc 5's local module is 2.
	sel := Locality(4, 2, 0.9)
	rng := sim.NewRNG(7)
	local := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if sel(5, rng) == 2 {
			local++
		}
	}
	got := float64(local) / n
	if math.Abs(got-0.9) > 0.01 {
		t.Fatalf("local share %v, want ~0.9", got)
	}
}

func TestLocalityNeverReturnsLocalOnRemote(t *testing.T) {
	sel := Locality(4, 2, 0) // always remote
	rng := sim.NewRNG(8)
	for i := 0; i < 1000; i++ {
		if sel(5, rng) == 2 {
			t.Fatal("λ=0 returned the local module")
		}
	}
}

func TestGeneratorDeterministicBySeed(t *testing.T) {
	a := Record(NewBernoulli(4, 0.1, 0.5, 42, Uniform(4)), 4, 5000)
	b := Record(NewBernoulli(4, 0.1, 0.5, 42, Uniform(4)), 4, 5000)
	if len(a.Accesses) != len(b.Accesses) {
		t.Fatal("same seed different lengths")
	}
	for i := range a.Accesses {
		if a.Accesses[i] != b.Accesses[i] {
			t.Fatalf("access %d differs", i)
		}
	}
}

func TestWorkloadPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"procs":    func() { NewBernoulli(0, 0.1, 0, 1, Uniform(2)) },
		"rate":     func() { NewBernoulli(2, 1.5, 0, 1, Uniform(2)) },
		"storeFr":  func() { NewBernoulli(2, 0.5, -1, 1, Uniform(2)) },
		"nilSel":   func() { NewBernoulli(2, 0.5, 0, 1, nil) },
		"uniform0": func() { Uniform(0) },
		"hotIdx":   func() { HotSpot(4, 4, 0.5) },
		"hotFrac":  func() { HotSpot(4, 0, 2) },
		"locMods":  func() { Locality(1, 1, 0.5) },
		"locLam":   func() { Locality(4, 1, 2) },
		"rateNaN":  func() { NewBernoulli(2, math.NaN(), 0, 1, Uniform(2)) },
		"storeNaN": func() { NewBernoulli(2, 0.5, math.NaN(), 1, Uniform(2)) },
		"hotNaN":   func() { HotSpot(4, 0, math.NaN()) },
		"locNaN":   func() { Locality(4, 1, math.NaN()) },
		"gapNaN":   func() { NewGapped(2, 1, 4, math.NaN(), 1, Uniform(2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
