package network

import (
	"testing"
	"testing/quick"
)

func TestLog2(t *testing.T) {
	good := map[int]int{1: 0, 2: 1, 4: 2, 8: 3, 64: 6, 1024: 10}
	for n, want := range good {
		k, err := Log2(n)
		if err != nil {
			t.Errorf("Log2(%d) error: %v", n, err)
		}
		if k != want {
			t.Errorf("Log2(%d) = %d, want %d", n, k, want)
		}
	}
	for _, n := range []int{0, -1, 3, 6, 12, 100} {
		if _, err := Log2(n); err == nil {
			t.Errorf("Log2(%d) accepted non-power-of-two", n)
		}
	}
}

func TestShuffleUnshuffleInverse(t *testing.T) {
	f := func(xRaw uint8, kRaw uint8) bool {
		k := 1 + int(kRaw)%10
		x := int(xRaw) % (1 << k)
		return unshuffle(shuffle(x, k), k) == x && shuffle(unshuffle(x, k), k) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShuffleIsRotateLeft(t *testing.T) {
	// 3-bit: 0b011 -> 0b110, 0b100 -> 0b001.
	if shuffle(0b011, 3) != 0b110 {
		t.Errorf("shuffle(011) = %03b", shuffle(0b011, 3))
	}
	if shuffle(0b100, 3) != 0b001 {
		t.Errorf("shuffle(100) = %03b", shuffle(0b100, 3))
	}
}

func TestSyncSwitchPermutation(t *testing.T) {
	s := NewSyncSwitch(4)
	// Fig. 3.4: at slot t, input i connects to output (t+i) mod 4.
	for tt := int64(0); tt < 8; tt++ {
		for i := 0; i < 4; i++ {
			want := (int(tt) + i) % 4
			if got := s.Out(tt, i); got != want {
				t.Fatalf("Out(%d,%d) = %d, want %d", tt, i, got, want)
			}
		}
	}
}

func TestSyncSwitchInInvertsOut(t *testing.T) {
	s := NewSyncSwitch(8)
	for tt := int64(0); tt < 16; tt++ {
		for i := 0; i < 8; i++ {
			if got := s.In(tt, s.Out(tt, i)); got != i {
				t.Fatalf("In(Out(%d,%d)) = %d, want %d", tt, i, got, i)
			}
		}
	}
}

func TestSyncSwitchPermutationIsBijective(t *testing.T) {
	s := NewSyncSwitch(8)
	for tt := int64(0); tt < 8; tt++ {
		seen := make(map[int]bool)
		for _, o := range s.Permutation(tt) {
			if seen[o] {
				t.Fatalf("slot %d: output %d used twice", tt, o)
			}
			seen[o] = true
		}
	}
}

func TestSyncSwitchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"size0":   func() { NewSyncSwitch(0) },
		"in-low":  func() { NewSyncSwitch(4).Out(0, -1) },
		"in-high": func() { NewSyncSwitch(4).Out(0, 4) },
		"out-bad": func() { NewSyncSwitch(4).In(0, 9) },
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

func TestOmegaConstruction(t *testing.T) {
	o := MustOmega(8)
	if o.Size() != 8 || o.Columns() != 3 || o.SwitchesPerColumn() != 4 {
		t.Fatalf("8x8 omega: size=%d cols=%d spc=%d", o.Size(), o.Columns(), o.SwitchesPerColumn())
	}
	if _, err := NewOmega(6); err == nil {
		t.Fatal("NewOmega(6) accepted")
	}
	if _, err := NewOmega(1); err == nil {
		t.Fatal("NewOmega(1) accepted")
	}
}

func TestOmegaRouteReachesDestination(t *testing.T) {
	// Route already panics internally if the invariant breaks; exercise
	// every src/dst pair for several sizes.
	for _, n := range []int{2, 4, 8, 16, 32} {
		o := MustOmega(n)
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				hops := o.Route(s, d)
				if len(hops) != o.Columns() {
					t.Fatalf("n=%d route %d→%d has %d hops, want %d", n, s, d, len(hops), o.Columns())
				}
			}
		}
	}
}

func TestOmegaRouteHopFieldsConsistent(t *testing.T) {
	o := MustOmega(16)
	f := func(sRaw, dRaw uint8) bool {
		s, d := int(sRaw)%16, int(dRaw)%16
		for _, h := range o.Route(s, d) {
			if h.InPort < 0 || h.InPort > 1 || h.OutPort < 0 || h.OutPort > 1 {
				return false
			}
			if h.Switch < 0 || h.Switch >= o.SwitchesPerColumn() {
				return false
			}
			if h.OutPos() != h.Switch<<1|h.OutPort {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOmegaIdentityPermutationAllStraight(t *testing.T) {
	o := MustOmega(8)
	perm := []int{0, 1, 2, 3, 4, 5, 6, 7}
	st, err := o.PermutationStates(perm)
	if err != nil {
		t.Fatalf("identity unrealizable: %v", err)
	}
	for j := range st {
		for s, v := range st[j] {
			if v != Straight {
				t.Fatalf("identity: column %d switch %d = %v, want straight", j, s, v)
			}
		}
	}
}

func TestOmegaPermutationConflictDetected(t *testing.T) {
	// The "bit reversal on 8" permutation is a classic omega blocker;
	// find any permutation that conflicts to prove detection works.
	o := MustOmega(8)
	perm := []int{0, 4, 2, 6, 1, 5, 3, 7} // bit-reversal
	if _, err := o.PermutationStates(perm); err == nil {
		t.Skip("bit-reversal unexpectedly realizable under this convention")
	}
}

func TestOmegaPermutationStatesBadLength(t *testing.T) {
	o := MustOmega(8)
	if _, err := o.PermutationStates([]int{0, 1}); err == nil {
		t.Fatal("short permutation accepted")
	}
}

// TestSyncOmegaRealizesSlotPermutations is the Lawrie property (§3.2.1):
// for all t, the permutation p → (t+p) mod N is realizable with no switch
// conflicts, for every power-of-two network size we care about.
func TestSyncOmegaRealizesSlotPermutations(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16, 32, 64, 128} {
		if _, err := NewSyncOmega(n); err != nil {
			t.Errorf("N=%d: %v", n, err)
		}
	}
}

func TestSyncOmegaOutMatchesSpec(t *testing.T) {
	so := MustSyncOmega(8)
	for tt := int64(0); tt < 16; tt++ {
		for p := 0; p < 8; p++ {
			want := (int(tt) + p) % 8
			if got := so.Out(tt, p); got != want {
				t.Fatalf("Out(%d,%d) = %d, want %d", tt, p, got, want)
			}
		}
	}
}

func TestSyncOmegaNegativeSlot(t *testing.T) {
	so := MustSyncOmega(8)
	if got := so.Out(-3, 1); got != (8-3+1)%8 {
		t.Fatalf("Out(-3,1) = %d, want %d", got, (8-3+1)%8)
	}
	_ = so.States(-3) // must not panic
}

// TestSyncOmegaTable34 reproduces the dissertation's Table 3.4: the
// states of the 12 switches of an 8×8 synchronous omega network at each
// of the 8 slots of a time period.
func TestSyncOmegaTable34(t *testing.T) {
	so := MustSyncOmega(8)
	want := [8][12]SwitchState{
		// col0 sw0..3    col1 sw0..3   col2 sw0..3
		{0, 0, 0, 0 /**/, 0, 0, 0, 0 /**/, 0, 0, 0, 0}, // slot 0
		{0, 0, 0, 1 /**/, 0, 0, 1, 1 /**/, 1, 1, 1, 1}, // slot 1
		{0, 0, 1, 1 /**/, 1, 1, 1, 1 /**/, 0, 0, 0, 0}, // slot 2
		{0, 1, 1, 1 /**/, 1, 1, 0, 0 /**/, 1, 1, 1, 1}, // slot 3
		{1, 1, 1, 1 /**/, 0, 0, 0, 0 /**/, 0, 0, 0, 0}, // slot 4
		{1, 1, 1, 0 /**/, 0, 0, 1, 1 /**/, 1, 1, 1, 1}, // slot 5
		{1, 1, 0, 0 /**/, 1, 1, 1, 1 /**/, 0, 0, 0, 0}, // slot 6
		{1, 0, 0, 0 /**/, 1, 1, 0, 0 /**/, 1, 1, 1, 1}, // slot 7
	}
	rows := so.StateTable()
	for slot := 0; slot < 8; slot++ {
		for i := 0; i < 12; i++ {
			if rows[slot][i] != want[slot][i] {
				t.Errorf("slot %d entry %d (col %d sw %d) = %v, want %v",
					slot, i, i/4, i%4, rows[slot][i], want[slot][i])
			}
		}
	}
}

func TestSyncOmegaPeriodicity(t *testing.T) {
	so := MustSyncOmega(16)
	for p := 0; p < 16; p++ {
		if so.Out(3, p) != so.Out(3+16, p) {
			t.Fatalf("period != N at p=%d", p)
		}
	}
}

func TestCircuitEstablishAndBlock(t *testing.T) {
	o := MustOmega(8)
	c := NewCircuit(o)
	if !c.TryEstablish(0, 0, 5, 10) {
		t.Fatal("first path blocked on empty network")
	}
	// Same path again must be blocked while held.
	if c.TryEstablish(1, 0, 5, 10) {
		t.Fatal("identical concurrent path accepted")
	}
	// After the hold expires it must succeed.
	if !c.TryEstablish(10, 0, 5, 10) {
		t.Fatal("path still blocked after hold expired")
	}
	if c.Established != 2 || c.Blocked != 1 {
		t.Fatalf("stats: est=%d blk=%d, want 2,1", c.Established, c.Blocked)
	}
}

func TestCircuitDisjointPathsCoexist(t *testing.T) {
	o := MustOmega(8)
	c := NewCircuit(o)
	// 0→0 and 7→7 share no switch outputs under identity-style routes.
	if !c.TryEstablish(0, 0, 0, 100) {
		t.Fatal("0→0 blocked")
	}
	if !c.TryEstablish(0, 7, 7, 100) {
		t.Fatal("7→7 blocked despite disjoint path")
	}
}

func TestCircuitSameDestinationBlocks(t *testing.T) {
	o := MustOmega(8)
	c := NewCircuit(o)
	if !c.TryEstablish(0, 0, 3, 100) {
		t.Fatal("first path blocked")
	}
	// Any other source to the same destination shares at least the final
	// output line.
	if c.TryEstablish(0, 4, 3, 100) {
		t.Fatal("second path to same destination accepted")
	}
}

func TestCircuitFailedAttemptHoldsNothing(t *testing.T) {
	o := MustOmega(8)
	c := NewCircuit(o)
	c.TryEstablish(0, 0, 3, 100)
	before := c.BusyOutputs(0)
	c.TryEstablish(0, 4, 3, 100) // blocked
	if c.BusyOutputs(0) != before {
		t.Fatal("blocked attempt left outputs held")
	}
}

func TestCircuitBusyOutputs(t *testing.T) {
	o := MustOmega(8)
	c := NewCircuit(o)
	c.TryEstablish(0, 2, 6, 5)
	if got := c.BusyOutputs(0); got != o.Columns() {
		t.Fatalf("BusyOutputs = %d, want %d (one per column)", got, o.Columns())
	}
	if got := c.BusyOutputs(5); got != 0 {
		t.Fatalf("BusyOutputs after expiry = %d, want 0", got)
	}
}

func TestPartialOmegaShape(t *testing.T) {
	// Table 3.5: a 64-bank system with 2×2 switches.
	rows := []struct {
		circuit, modules, banksPer int
	}{
		{0, 1, 64},
		{1, 2, 32},
		{2, 4, 16},
		{3, 8, 8},
		{4, 16, 4},
		{5, 32, 2},
		{6, 64, 1},
	}
	for _, r := range rows {
		po := MustPartialOmega(64, r.circuit)
		if po.Modules() != r.modules {
			t.Errorf("cc=%d: Modules = %d, want %d", r.circuit, po.Modules(), r.modules)
		}
		if po.BanksPerModule() != r.banksPer {
			t.Errorf("cc=%d: BanksPerModule = %d, want %d", r.circuit, po.BanksPerModule(), r.banksPer)
		}
		if po.ClockColumns() != 6-r.circuit {
			t.Errorf("cc=%d: ClockColumns = %d, want %d", r.circuit, po.ClockColumns(), 6-r.circuit)
		}
	}
}

func TestPartialOmegaModuleGrouping(t *testing.T) {
	po := MustPartialOmega(8, 2) // 4 modules × 2 banks (Fig. 3.11a)
	wantModule := []int{0, 0, 1, 1, 2, 2, 3, 3}
	for bank, want := range wantModule {
		if got := po.Module(bank); got != want {
			t.Errorf("Module(%d) = %d, want %d", bank, got, want)
		}
	}
}

func TestPartialOmegaContentionSetsFig311a(t *testing.T) {
	// Fig. 3.11a: 4 two-bank modules; processors {0,2,4,6} and {1,3,5,7}
	// form the two contention sets.
	po := MustPartialOmega(8, 2)
	if po.ContentionSets() != 2 {
		t.Fatalf("ContentionSets = %d, want 2", po.ContentionSets())
	}
	for p := 0; p < 8; p++ {
		if got := po.ContentionSet(p); got != p%2 {
			t.Errorf("ContentionSet(%d) = %d, want %d", p, got, p%2)
		}
	}
}

func TestPartialOmegaContentionSetsFig311b(t *testing.T) {
	// Fig. 3.11b: 2 four-bank modules; contention sets (0,4),(1,5),(2,6),(3,7).
	po := MustPartialOmega(8, 1)
	if po.ContentionSets() != 4 {
		t.Fatalf("ContentionSets = %d, want 4", po.ContentionSets())
	}
	groups := map[int][]int{}
	for p := 0; p < 8; p++ {
		s := po.ContentionSet(p)
		groups[s] = append(groups[s], p)
	}
	want := map[int][]int{0: {0, 4}, 1: {1, 5}, 2: {2, 6}, 3: {3, 7}}
	for s, ps := range want {
		got := groups[s]
		if len(got) != len(ps) {
			t.Fatalf("set %d = %v, want %v", s, got, ps)
		}
		for i := range ps {
			if got[i] != ps[i] {
				t.Fatalf("set %d = %v, want %v", s, got, ps)
			}
		}
	}
}

func TestPartialOmegaConflictFree(t *testing.T) {
	po := MustPartialOmega(8, 2)
	// Different modules: always conflict-free.
	if !po.ConflictFree(0, 0, 2, 1) {
		t.Fatal("different modules reported conflicting")
	}
	// Same module, different contention sets: conflict-free.
	if !po.ConflictFree(0, 1, 1, 1) {
		t.Fatal("same module, different sets reported conflicting")
	}
	// Same module, same contention set: may conflict.
	if po.ConflictFree(0, 1, 2, 1) {
		t.Fatal("same module, same set reported conflict-free")
	}
}

func TestPartialOmegaArrivalPortsDistinguishSets(t *testing.T) {
	// Processors in different contention sets must arrive at different
	// ports of any given module; same set ⇒ same port.
	for _, cc := range []int{1, 2} {
		po := MustPartialOmega(8, cc)
		for mod := 0; mod < po.Modules(); mod++ {
			portOf := map[int]int{} // contention set → port
			for p := 0; p < 8; p++ {
				set := po.ContentionSet(p)
				port := po.ArrivalPort(p, mod)
				if prev, ok := portOf[set]; ok {
					if prev != port {
						t.Fatalf("cc=%d mod=%d: set %d arrives at ports %d and %d", cc, mod, set, prev, port)
					}
				} else {
					portOf[set] = port
				}
			}
			seen := map[int]bool{}
			for _, port := range portOf {
				if seen[port] {
					t.Fatalf("cc=%d mod=%d: two sets share a port", cc, mod)
				}
				seen[port] = true
			}
		}
	}
}

func TestPartialOmegaFullySyncIsCFM(t *testing.T) {
	po := MustPartialOmega(64, 0)
	if po.Modules() != 1 || po.BanksPerModule() != 64 {
		t.Fatal("cc=0 should be one 64-bank conflict-free module")
	}
	// Everything in one module, 64 contention sets of one processor each:
	// all pairs conflict-free.
	for p := 0; p < 64; p++ {
		for q := p + 1; q < 64; q++ {
			if !po.ConflictFree(p, 0, q, 0) {
				t.Fatalf("CFM mode: processors %d,%d conflict", p, q)
			}
		}
	}
}

func TestHeadersFig39(t *testing.T) {
	// Fig. 3.9: a synchronous omega network's request header carries only
	// the offset; a circuit-switching network also carries routing bits.
	const wordsPerBank = 1024 // 10 offset bits
	sync := MustPartialOmega(64, 0).RequestHeader(wordsPerBank)
	if sync.ModuleBits != 0 || sync.OffsetBits != 10 || sync.Bits() != 10 {
		t.Fatalf("sync header = %+v", sync)
	}
	conv := ConventionalHeader(64, wordsPerBank)
	if conv.ModuleBits != 6 || conv.Bits() != 16 {
		t.Fatalf("conventional header = %+v", conv)
	}
	if conv.Bits() <= sync.Bits() {
		t.Fatal("synchronous header not smaller than conventional")
	}
	// With every column circuit-switched the partial network is the
	// conventional one, header included.
	if full := MustPartialOmega(64, 6).RequestHeader(wordsPerBank); full != conv {
		t.Fatalf("fully circuit-switched header = %+v, want %+v", full, conv)
	}
}

func TestHeadersFig310PartialSplit(t *testing.T) {
	// Fig. 3.10: with 4 two-bank modules the header carries 2 module bits;
	// with 2 four-bank modules it carries 1.
	const wordsPerBank = 256
	a := MustPartialOmega(8, 2).RequestHeader(wordsPerBank)
	if a.ModuleBits != 2 {
		t.Fatalf("4-module header ModuleBits = %d, want 2", a.ModuleBits)
	}
	b := MustPartialOmega(8, 1).RequestHeader(wordsPerBank)
	if b.ModuleBits != 1 {
		t.Fatalf("2-module header ModuleBits = %d, want 1", b.ModuleBits)
	}
	if a.Bits() != b.Bits()+1 {
		t.Fatalf("header sizes %d,%d do not differ by the module bit", a.Bits(), b.Bits())
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := bitsFor(n); got != want {
			t.Errorf("bitsFor(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestPartialOmegaPanics(t *testing.T) {
	po := MustPartialOmega(8, 2)
	for name, fn := range map[string]func(){
		"module":  func() { po.Module(8) },
		"cs":      func() { po.ContentionSet(-1) },
		"arr":     func() { po.ArrivalPort(0, 4) },
		"bitsFor": func() { bitsFor(0) },
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
	if _, err := NewPartialOmega(8, 4); err == nil {
		t.Error("cc > log2(N) accepted")
	}
	if _, err := NewPartialOmega(7, 1); err == nil {
		t.Error("non-power-of-two size accepted")
	}
}

func TestSwitchStateString(t *testing.T) {
	if Straight.String() != "0" || Interchange.String() != "1" {
		t.Fatal("switch state strings wrong")
	}
}

func TestSyncSwitchSize(t *testing.T) {
	if NewSyncSwitch(6).Size() != 6 {
		t.Fatal("Size wrong")
	}
}

func TestRouteStates(t *testing.T) {
	o := MustOmega(8)
	// Identity route 3→3 is straight everywhere.
	for _, st := range o.RouteStates(3, 3) {
		if st != Straight {
			t.Fatal("identity route not straight")
		}
	}
	// 0→7 must cross at every column (all destination bits are 1, all
	// positions arrive on port 0 after each shuffle of a zero-prefix).
	states := o.RouteStates(0, 7)
	if len(states) != 3 {
		t.Fatalf("%d states", len(states))
	}
	for i, st := range states {
		if st != Interchange {
			t.Fatalf("column %d of 0→7 = %v, want interchange", i, st)
		}
	}
}

func TestPartialOmegaAccessors(t *testing.T) {
	po := MustPartialOmega(16, 2)
	if po.Size() != 16 || po.CircuitColumns() != 2 {
		t.Fatal("accessors wrong")
	}
}

func TestMustConstructorsPanic(t *testing.T) {
	for name, fn := range map[string]func(){
		"omega":   func() { MustOmega(3) },
		"sync":    func() { MustSyncOmega(5) },
		"partial": func() { MustPartialOmega(8, 9) },
		"convHdr": func() { ConventionalHeader(7, 16) },
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

func TestRoutePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MustOmega(8).Route(0, 8)
}
