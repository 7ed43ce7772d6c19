package binding

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestPatternForOverlapSharesBits(t *testing.T) {
	// Overlapping regions must share at least one component bit (the
	// element they share hashes identically).
	a := PatternFor(R("arr", Dim{0, 5, 1}))
	b := PatternFor(R("arr", Dim{5, 9, 1}))
	if a&b == 0 {
		t.Fatal("overlapping regions share no component")
	}
	// Distinct fields of the same cells use different components.
	fa := PatternFor(R("arr", Dim{0, 2, 1}).WithField("x"))
	fb := PatternFor(R("arr", Dim{0, 2, 1}).WithField("y"))
	if fa == fb {
		t.Fatal("distinct fields mapped to identical component sets (improbable)")
	}
}

func TestPatternForDeterministic(t *testing.T) {
	r := R("grid", Dim{0, 3, 1}, Dim{2, 6, 2}).WithField("v")
	if PatternFor(r) != PatternFor(r) {
		t.Fatal("pattern not deterministic")
	}
	if PatternFor(r) == 0 {
		t.Fatal("empty pattern")
	}
}

func TestPatternForOverlapProperty(t *testing.T) {
	// Property: region overlap (same target/field) implies shared bits.
	f := func(s1, e1, s2, e2 uint8) bool {
		a := R("t", Dim{int(s1) % 30, int(s1)%30 + int(e1)%10, 1})
		b := R("t", Dim{int(s2) % 30, int(s2)%30 + int(e2)%10, 1})
		if !a.Overlaps(b) {
			return true
		}
		return PatternFor(a)&PatternFor(b) != 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPatternForHugeRegionSaturates(t *testing.T) {
	pat := PatternFor(R("big", Dim{0, 10000, 1}))
	if bits.OnesCount64(uint64(pat)) < 32 {
		t.Fatalf("huge region uses only %d components", bits.OnesCount64(uint64(pat)))
	}
}

func TestCFMBinderBindUnbind(t *testing.T) {
	b := NewCFMBinder(4)
	defer b.Stop()
	l, err := b.Bind(1, R("arr", Dim{0, 3, 1}))
	if err != nil {
		t.Fatal(err)
	}
	if l.Pattern() == 0 {
		t.Fatal("empty pattern acquired")
	}
	b.Unbind(l)
}

// TestCFMBinderRebindAfterUnbind: a processor may bind again as soon as
// Unbind returns, so Unbind must not return before the simulated unlock
// has finished — even while other processors keep the protocol busy.
func TestCFMBinderRebindAfterUnbind(t *testing.T) {
	const procs, rounds = 3, 100
	b := NewCFMBinder(procs)
	defer b.Stop()
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				l, err := b.Bind(p, R("arr", Dim{p, p, 1}))
				if err != nil {
					t.Error(err)
					return
				}
				b.Unbind(l)
			}
		}(p)
	}
	wg.Wait()
}

// TestCFMBinderMutualExclusion: concurrent goroutines increment a counter
// under overlapping CFM-backed bindings; mutual exclusion must hold.
func TestCFMBinderMutualExclusion(t *testing.T) {
	b := NewCFMBinder(8)
	defer b.Stop()
	var inCS atomic.Int32
	counter := 0
	const workers, rounds = 4, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			region := R("counter", Dim{0, 0, 0})
			for r := 0; r < rounds; r++ {
				l, err := b.Bind(w, region)
				if err != nil {
					t.Errorf("bind: %v", err)
					return
				}
				if inCS.Add(1) > 1 {
					t.Error("two holders of one region")
				}
				counter++
				inCS.Add(-1)
				b.Unbind(l)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("CFM binder stalled")
	}
	if counter != workers*rounds {
		t.Fatalf("counter = %d, want %d", counter, workers*rounds)
	}
}

// TestCFMBinderDiningPhilosophers: the §6.5.1 claim — atomic multiple
// lock makes the binding paradigm's dining philosophers deadlock-free on
// the CFM too.
func TestCFMBinderDiningPhilosophers(t *testing.T) {
	const num, meals = 4, 5
	b := NewCFMBinder(num + 1)
	defer b.Stop()
	eaten := make([]int, num)
	var wg sync.WaitGroup
	for i := 0; i < num; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var region Region
			if i < num-1 {
				region = R("chopstick", Dim{i, i + 1, 1})
			} else {
				region = R("chopstick", Dim{0, num - 1, num - 1})
			}
			for m := 0; m < meals; m++ {
				l, err := b.Bind(i, region)
				if err != nil {
					t.Errorf("philosopher %d: %v", i, err)
					return
				}
				eaten[i]++
				b.Unbind(l)
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("philosophers starved on the CFM binder: %v", eaten)
	}
	for i, e := range eaten {
		if e != meals {
			t.Fatalf("philosopher %d ate %d", i, e)
		}
	}
}

func TestCFMBinderPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"small": func() { NewCFMBinder(1) },
		"nil":   func() { b := NewCFMBinder(2); defer b.Stop(); b.Unbind(nil) },
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

func TestCFMBinderInvalidRegion(t *testing.T) {
	b := NewCFMBinder(2)
	defer b.Stop()
	if _, err := b.Bind(0, Region{}); err == nil {
		t.Fatal("invalid region accepted")
	}
}
