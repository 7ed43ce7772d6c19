// Package scenario is the experiment catalog: every table, figure and
// extension of the dissertation's evaluation, written once. Report lists
// one Entry per `## ` section of cmd/experiments' report, in report
// order; each runs its simulations at the report's values and returns
// its checks against the paper's expected values.
//
// The experiments cfmsim and the ablation benches also run, at their own
// values, are exported functions of their parameters (TreeSat,
// Efficiency, Untracked/Tracked, LockTransfer, Latency, Allocation,
// Sharing, Topologies, Ordering, Configurations). Every run builds its
// engine through the caller's Observatory, so the engine flags reach it;
// a zero Observatory runs on one worker, unobserved. The package keeps
// no state, so a report can run any number of times in one process.
package scenario

import (
	"fmt"

	"cfm/internal/analytic"
	"cfm/internal/att"
	"cfm/internal/cache"
	"cfm/internal/consistency"
	"cfm/internal/core"
	"cfm/internal/flight"
	"cfm/internal/hier"
	"cfm/internal/linda"
	"cfm/internal/memory"
	"cfm/internal/metrics"
	"cfm/internal/network"
	"cfm/internal/obsflags"
	"cfm/internal/sim"
	"cfm/internal/stats"
	"cfm/internal/syncprim"
)

// Check is one paper-expected-versus-measured comparison.
type Check struct {
	Name   string
	OK     bool
	Detail string
}

// String renders the check as its report line.
func (c Check) String() string {
	status := "PASS"
	if !c.OK {
		status = "FAIL"
	}
	return fmt.Sprintf("  [%s] %-58s %s", status, c.Name, c.Detail)
}

// Section collects one entry's output: text printed under its title,
// then its checks.
type Section struct {
	Text   string
	Checks []Check
}

func (s *Section) check(name string, ok bool, detail string) {
	s.Checks = append(s.Checks, Check{name, ok, detail})
}

// Entry is one `## ` section of the report.
type Entry struct {
	Title string
	Run   func(obs *obsflags.Observatory, s *Section) error
}

// Report returns the catalog in report order. The titles are the
// section keys cfmbench's paper_suite parses; keep them byte for byte.
func Report() []Entry {
	return []Entry{
		{"Table 3.1 — address path connections (4 procs, 8 banks, c=2)", table31},
		{"Table 3.3 — CFM configuration trade-off (l=256, c=2)", table33},
		{"Table 3.4 — 8x8 synchronous omega switch states", table34},
		{"Table 3.5 — 64-bank configurations", table35},
		{"Fig 2.1 — tree saturation from a hot spot", fig21},
		{"Fig 3.6 — read timing (c=2)", fig36},
		{"Fig 3.13 — efficiency, conventional vs conflict-free (n=8, m=8, β=17)", fig313},
		{"Figs 3.14/3.15 — partially conflict-free efficiency", fig314and315},
		{"Figs 3.9/3.10 — message headers", fig39},
		{"Chapter 4 — address tracking (Figs 4.1, 4.3–4.6)", chapter4},
		{"Fig 5.4 — lock transfer", fig54},
		{"Fig 5.5 — atomic multiple lock/unlock", fig55},
		{"Tables 5.5/5.6 — hierarchical read latency", tables55and56},
		{"Chapter 6 — resource binding", chapter6},
		{"Extensions (§3.3, §7.2, §2.2 — beyond the published evaluation)", extensions},
		{"Engine synchronization scaling (combining-tree barrier + epoch batching)", syncScaling},
	}
}

// engine builds a cycle engine per obs's engine flags with ts registered.
func engine(obs *obsflags.Observatory, ts ...sim.Ticker) sim.Engine {
	eng := obs.NewEngine()
	for _, t := range ts {
		eng.Register(t)
	}
	return eng
}

// metered is a simulator the observatory can meter and record spans of.
type metered interface {
	sim.Ticker
	Instrument(*metrics.Registry)
	RecordFlight(*flight.Recorder)
}

// observed builds an engine running m, metered into obs's registry and
// recording its spans into rec, with the observatory attached.
func observed(obs *obsflags.Observatory, m metered, rec *flight.Recorder) sim.Engine {
	m.Instrument(obs.Reg)
	m.RecordFlight(rec)
	eng := engine(obs, m)
	obs.Attach(eng)
	return eng
}

// TreeSatParams sets Fig 2.1's buffered omega network (queues of 4
// packets, 2-slot service): one run per hot-spot fraction.
type TreeSatParams struct {
	Terminals int
	Rate      float64
	Slots     int64
	Hot       []float64
}

// DefaultTreeSat is the report's Fig 2.1: 16 terminals at rate 0.1,
// without and with a 40% hot spot, 30 000 slots each.
func DefaultTreeSat() TreeSatParams {
	return TreeSatParams{Terminals: 16, Rate: 0.1, Slots: 30000, Hot: []float64{0, 0.4}}
}

func (p TreeSatParams) config(hot float64) network.BufferedConfig {
	return network.BufferedConfig{Terminals: p.Terminals, QueueCap: 4, ServiceTime: 2,
		Rate: p.Rate, HotFraction: hot, Seed: 7}
}

// Validate reports an unusable network.
func (p TreeSatParams) Validate() error { return p.config(0).Validate() }

// TreeSat runs the network once per hot-spot fraction, in order.
func TreeSat(obs *obsflags.Observatory, p TreeSatParams) []*network.BufferedOmega {
	var nets []*network.BufferedOmega
	for _, hot := range p.Hot {
		b := network.NewBufferedOmega(p.config(hot))
		observed(obs, b, obs.Flight).Run(p.Slots)
		nets = append(nets, b)
	}
	return nets
}

func fig21(obs *obsflags.Observatory, s *Section) error {
	nets := TreeSat(obs, DefaultTreeSat())
	cold, hot := nets[0], nets[len(nets)-1]
	ratio := hot.MeanLatencyBg() / cold.MeanLatencyBg()
	s.check("hot spot inflates BACKGROUND latency", ratio > 10,
		fmt.Sprintf("×%.0f (%.1f → %.1f cycles)", ratio, cold.MeanLatencyBg(), hot.MeanLatencyBg()))
	fq := hot.FullQueues()
	tree := fq[0] > fq[1] && fq[1] >= fq[2] && fq[2] >= fq[3]
	s.check("saturation spreads as a tree from the sink", tree, fmt.Sprintf("full queues/col %v", fq))
	return nil
}

// DefaultATSpace is the CFM of Table 3.1 and Fig 3.6: 4 processors,
// bank cycle 2, so 8 banks.
func DefaultATSpace() core.Config {
	return core.Config{Processors: 4, BankCycle: 2, WordWidth: 32}
}

func table31(_ *obsflags.Observatory, s *Section) error {
	at := core.NewATSpace(DefaultATSpace())
	// Paper: at slot t, processor p connects to bank (t + 2p) mod 8.
	ok := true
	for t := 0; t < 8; t++ {
		for p := 0; p < 4; p++ {
			if at.AddressBank(sim.Slot(t), p) != (t+2*p)%8 {
				ok = false
			}
		}
	}
	s.check("bank(t,p) = (t + 2p) mod 8 for all slots", ok, "paper: Table 3.1 pattern")
	return nil
}

func table33(_ *obsflags.Observatory, s *Section) error {
	want := [][4]int{{256, 1, 257, 128}, {128, 2, 129, 64}, {64, 4, 65, 32},
		{32, 8, 33, 16}, {16, 16, 17, 8}, {8, 32, 9, 4}}
	rows := core.Tradeoff(256, 2)
	ok := len(rows) >= 6
	for i := 0; i < 6 && ok; i++ {
		r, w := rows[i], want[i]
		ok = r.Banks == w[0] && r.WordWidth == w[1] && r.Latency == w[2] && r.Processors == w[3]
	}
	s.check("all published rows reproduced", ok, "paper: 256→257/128 ... 8→9/4")
	return nil
}

func table34(_ *obsflags.Observatory, s *Section) error {
	so, err := network.NewSyncOmega(8)
	if err != nil {
		s.check("network construction", false, err.Error())
		return nil
	}
	// Paper row for slot 1: col0 = 0001, col1 = 0011, col2 = 1111.
	want := []network.SwitchState{0, 0, 0, 1, 0, 0, 1, 1, 1, 1, 1, 1}
	got := so.StateTable()[1]
	ok := len(got) == len(want)
	for i := range want {
		ok = ok && got[i] == want[i]
	}
	s.check("slot-1 row matches published states", ok, "paper: 0001 0011 1111")
	conflictFree := true
	for n := 2; n <= 128; n *= 2 {
		if _, err := network.NewSyncOmega(n); err != nil {
			conflictFree = false
		}
	}
	s.check("slot permutations conflict-free for N=2..128", conflictFree, "Lawrie's theorem")
	return nil
}

// Configurations returns Table 3.5's rows for a banks-bank system, which
// Figs 3.9/3.10 compare the headers of: the partially synchronous omega
// with 0 .. log2(banks) circuit-switched columns (0 is the CFM, all of
// them the conventional system).
func Configurations(banks int) ([]*network.PartialOmega, error) {
	po, err := network.NewPartialOmega(banks, 0)
	if err != nil {
		return nil, err
	}
	rows := []*network.PartialOmega{po}
	for cc := 1; cc <= po.ClockColumns(); cc++ {
		rows = append(rows, network.MustPartialOmega(banks, cc))
	}
	return rows, nil
}

func table35(_ *obsflags.Observatory, s *Section) error {
	rows, err := Configurations(64)
	ok := err == nil && len(rows) == 7
	for cc := 0; ok && cc < len(rows); cc++ {
		ok = rows[cc].Modules() == 1<<cc && rows[cc].BanksPerModule() == 64>>cc
	}
	s.check("modules double per circuit-switched column", ok, "paper: 1,2,4,...,64 modules")
	return nil
}

func fig36(_ *obsflags.Observatory, s *Section) error {
	at := core.NewATSpace(DefaultATSpace())
	ok := at.DataSlot(0, 0) == 1 && at.DataSlot(0, 1) == 2 && at.CompletionSlot(0) == 8
	s.check("data from banks 0,1 at slots 1,2; β = 9", ok, "paper: Fig 3.6")
	return nil
}

func fig39(_ *obsflags.Observatory, s *Section) error {
	configs, err := Configurations(64)
	if err != nil {
		return err
	}
	hs, hc := configs[0].RequestHeader(1024), configs[len(configs)-1].RequestHeader(1024)
	s.check("synchronous header carries no routing bits", hs.ModuleBits == 0,
		fmt.Sprintf("%d vs %d bits total", hs.Bits(), hc.Bits()))
	s.check("circuit-switched header carries log2(banks) routing bits", hc.ModuleBits == 6, "")
	return nil
}

// EfficiencyParams sets the simulations behind Figs 3.13–3.15 (§3.4),
// all at block time 17: Fig 3.13's conventional 8-processor, 8-module
// memory, or the partially conflict-free 64p/8m (Fig 3.14) or 128p/16m
// (Fig 3.15) system at each locality.
type EfficiencyParams struct {
	Fig        string    // "3.13", "3.14" or "3.15"
	Localities []float64 // λ of the partial system, the outer loop
	Rates      []float64 // access rates r, the inner loop
	Seed       uint64
	Slots      int64
	Checkpoint bool // the one run resumes from -resume and writes -checkpoint-out
	Spans      bool // every run records its own spans, decomposed into Spans
}

// Validate rejects an unknown figure.
func (p EfficiencyParams) Validate() error {
	if p.Fig != "3.13" && p.Fig != "3.14" && p.Fig != "3.15" {
		return fmt.Errorf("unknown figure %q", p.Fig)
	}
	return nil
}

// EfficiencyRun is one simulated point and the §3.4 model's value there.
type EfficiencyRun struct {
	Conventional         bool
	Processors           int
	Locality, Rate       float64
	Efficiency, Analytic float64
	Completed, Retries   int64
	Spans                flight.Attribution
}

// Efficiency runs p's points in order.
func Efficiency(obs *obsflags.Observatory, p EfficiencyParams) ([]EfficiencyRun, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n, m, localities := 64, 8, p.Localities
	switch p.Fig {
	case "3.13":
		n, m, localities = 8, 8, []float64{0}
	case "3.15":
		n, m = 128, 16
	}
	var runs []EfficiencyRun
	for _, lam := range localities {
		for _, r := range p.Rates {
			run := EfficiencyRun{Conventional: p.Fig == "3.13", Processors: n, Locality: lam, Rate: r}
			rec := obs.Flight
			if p.Spans {
				rec = flight.NewRecorder(obs.SpansLimit)
			}
			var err error
			if run.Conventional {
				cs := memory.NewConventional(memory.ConventionalConfig{
					Processors: n, Modules: m, BlockTime: 17, AccessRate: r, RetryMean: 8, Seed: p.Seed})
				err = p.run(obs, cs, rec)
				run.Efficiency, run.Completed, run.Retries = cs.Efficiency(), cs.Completed, cs.Retries
				run.Analytic = analytic.ConventionalModel{Processors: n, Modules: m, BlockTime: 17}.Efficiency(r)
			} else {
				ps := core.NewPartial(core.PartialConfig{
					Processors: n, Modules: m, BlockWords: 16, BankCycle: 2,
					Locality: lam, AccessRate: r, RetryMean: 8, Seed: p.Seed})
				err = p.run(obs, ps, rec)
				run.Efficiency, run.Completed, run.Retries = ps.Efficiency(), ps.Completed, ps.Retries
				run.Analytic = analytic.PartialModel{Processors: n, Modules: m, BlockTime: 17}.Efficiency(r, lam)
			}
			if err != nil {
				return runs, err
			}
			if p.Spans {
				events := rec.Events()
				if obs.Flight.Enabled() { // forward the spans to the -spans-out export
					for _, ev := range events {
						obs.Flight.Append(ev)
					}
				}
				run.Spans = flight.Attribute(events)
			}
			runs = append(runs, run)
		}
	}
	return runs, nil
}

// run simulates sys for p.Slots, around -resume/-checkpoint-out when
// p.Checkpoint is set.
func (p EfficiencyParams) run(obs *obsflags.Observatory, sys metered, rec *flight.Recorder) error {
	eng := observed(obs, sys, rec)
	if p.Checkpoint {
		if err := obs.MaybeResume(eng); err != nil {
			return err
		}
	}
	if left := p.Slots - int64(eng.Now()); left > 0 {
		eng.Run(left)
	}
	if p.Checkpoint {
		return obs.MaybeCheckpoint(eng)
	}
	return nil
}

func fig313(obs *obsflags.Observatory, s *Section) error {
	model := analytic.ConventionalModel{Processors: 8, Modules: 8, BlockTime: 17}
	e := model.Efficiency(0.06)
	s.check("conventional E(0.06) ≈ 0.19 (deep degradation)", e > 0.18 && e < 0.21,
		fmt.Sprintf("E = %s", stats.FormatFloat(e)))
	// The report's longest single run hosts -resume and -checkpoint-out.
	runs, err := Efficiency(obs, EfficiencyParams{Fig: "3.13", Rates: []float64{0.05}, Seed: 3, Slots: 400000, Checkpoint: true})
	if err != nil {
		return err
	}
	run := runs[0]
	s.check("simulation confirms the degradation at r=0.05", run.Efficiency < 0.75,
		fmt.Sprintf("simulated E = %s, analytic %s", stats.FormatFloat(run.Efficiency), stats.FormatFloat(run.Analytic)))
	s.check("conflict-free system stays at E = 1", true, "by construction (0 conflicts possible)")
	return nil
}

func fig314and315(obs *obsflags.Observatory, s *Section) error {
	for _, fig := range []string{"3.14", "3.15"} {
		n, m := 64, 8
		if fig == "3.15" {
			n, m = 128, 16
		}
		model := analytic.PartialModel{Processors: n, Modules: m, BlockTime: 17}
		conv := analytic.ConventionalModel{Processors: n, Modules: n, BlockTime: 17}
		ok := true
		for _, r := range []float64{0.01, 0.03, 0.06} {
			for _, lam := range []float64{0.5, 0.7, 0.9} {
				if model.Efficiency(r, lam) <= conv.Efficiency(r) {
					ok = false
				}
			}
		}
		s.check(fmt.Sprintf("Fig %s: partial CFM beats conventional at every λ ≥ 0.5", fig), ok,
			fmt.Sprintf("e.g. λ=0.7, r=0.05: %s vs %s",
				stats.FormatFloat(model.Efficiency(0.05, 0.7)), stats.FormatFloat(conv.Efficiency(0.05))))
		runs, err := Efficiency(obs, EfficiencyParams{Fig: fig, Localities: []float64{1}, Rates: []float64{0.05}, Seed: 4, Slots: 150000})
		if err != nil {
			return err
		}
		run := runs[0]
		s.check(fmt.Sprintf("Fig %s: λ=1 simulation is perfectly conflict-free", fig),
			run.Retries == 0 && run.Efficiency == 1,
			fmt.Sprintf("%d retries over %d accesses", run.Retries, run.Completed))
	}
	return nil
}

// ConflictParams is Chapter 4's write conflict: in slot 0, processor
// Writers[i] writes Blocks[i] to block 0 of a memory with one bank per
// block word, which then runs Slots slots.
type ConflictParams struct {
	Writers [2]int
	Blocks  [2]memory.Block
	Slots   int64
}

// Untracked runs the conflict on the CFM without address tracking
// (Fig 4.1) and returns the final block.
func Untracked(obs *obsflags.Observatory, p ConflictParams) memory.Block {
	mem := core.NewCFMemory(core.Config{Processors: len(p.Blocks[0]), BankCycle: 1, WordWidth: 64}, obs.Trace)
	eng := engine(obs, mem)
	for i, w := range p.Writers {
		mem.StartWrite(0, w, 0, p.Blocks[i], nil)
	}
	eng.Run(p.Slots)
	return mem.PeekBlock(0)
}

// Tracked runs the conflict with address tracking, latest writer wins
// (Figs 4.3/4.4), and returns the final block and how many writes
// completed and aborted.
func Tracked(obs *obsflags.Observatory, p ConflictParams) (blk memory.Block, completed, aborted int) {
	tr := att.NewTracked(len(p.Blocks[0]), att.LatestWins, obs.Trace)
	eng := engine(obs, tr)
	done := func(r att.Result) {
		if r.Outcome == att.Completed {
			completed++
		} else {
			aborted++
		}
	}
	for i, w := range p.Writers {
		tr.StartWrite(0, w, 0, p.Blocks[i], done)
	}
	eng.Run(p.Slots)
	return tr.PeekBlock(0), completed, aborted
}

func chapter4(obs *obsflags.Observatory, s *Section) error {
	// Fig 4.1: torn block without tracking.
	blk := Untracked(obs, ConflictParams{Writers: [2]int{0, 1},
		Blocks: [2]memory.Block{uniformBlock(4, 1), uniformBlock(4, 2)}, Slots: 10})
	s.check("Fig 4.1: simultaneous writes tear a block WITHOUT tracking", !uniform(blk), fmt.Sprint(blk))

	// Fig 4.3/4.4: with tracking, exactly one writer wins.
	final, completed, aborted := Tracked(obs, ConflictParams{Writers: [2]int{1, 5},
		Blocks: [2]memory.Block{uniformBlock(8, 3), uniformBlock(8, 4)}, Slots: 20})
	s.check("Fig 4.4: WITH tracking exactly one simultaneous writer wins",
		completed == 1 && aborted == 1 && uniform(final),
		fmt.Sprintf("%d completed, %d aborted, block %v", completed, aborted, final))

	// Fig 4.6: swap atomicity chain.
	tr := att.NewTracked(8, att.EarliestWins, nil)
	eng := engine(obs, tr)
	tr.PokeBlock(0, uniformBlock(8, 100))
	var rets []memory.Word
	for i, p := range []int{0, 3, 6} {
		v := memory.Word(101 + i)
		tr.StartSwap(sim.Slot(0), p, 0, func(memory.Block) memory.Block {
			return uniformBlock(8, v)
		}, func(r att.Result) { rets = append(rets, r.Block[0]) })
	}
	eng.Run(2000)
	finalSwap := tr.PeekBlock(0)[0]
	seen := map[memory.Word]bool{finalSwap: true}
	for _, v := range rets {
		seen[v] = true
	}
	s.check("Fig 4.6: concurrent swaps serialize into a value chain", len(rets) == 3 && len(seen) == 4,
		fmt.Sprintf("returns %v, final %d", rets, finalSwap))
	return nil
}

func uniformBlock(n int, v memory.Word) memory.Block {
	b := make(memory.Block, n)
	for i := range b {
		b[i] = v
	}
	return b
}

// uniform reports whether every word of b equals the first.
func uniform(b memory.Block) bool {
	for _, w := range b[1:] {
		if w != b[0] {
			return false
		}
	}
	return true
}

// LockTransfer runs Fig 5.4 on a processors-processor cache protocol:
// processor 0 takes the lock, processors 1 and 3 (when present) queue
// for it, and 0 releases it. It returns the slots from the release to
// the next holder.
func LockTransfer(obs *obsflags.Observatory, processors int) (int64, error) {
	cfg := cache.Config{Processors: processors, Lines: 4, RetryDelay: 1}
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	proto := cache.New(cfg, nil)
	lock := syncprim.NewLocker(proto, 0)
	eng := engine(obs, lock, proto)
	lock.Request(0)
	eng.RunUntil(func() bool { return lock.Holding(0) }, 1000)
	lock.Request(1)
	if processors > 3 {
		lock.Request(3)
	}
	eng.Run(120)
	release := eng.Now()
	lock.Release(0)
	eng.RunUntil(func() bool { return lock.Holding(1) || (processors > 3 && lock.Holding(3)) }, 2000)
	return int64(eng.Now() - release), nil
}

func fig54(obs *obsflags.Observatory, s *Section) error {
	transfer, err := LockTransfer(obs, 4)
	if err != nil {
		return err
	}
	accesses := float64(transfer) / 4.0
	s.check("transfer ≈ 3 block accesses", accesses >= 2 && accesses <= 6,
		fmt.Sprintf("%d slots = %.1f accesses (paper: ~3)", transfer, accesses))
	return nil
}

func fig55(obs *obsflags.Observatory, s *Section) error {
	proto := cache.New(cache.Config{Processors: 8, Lines: 4, RetryDelay: 1}, nil)
	ml := syncprim.NewMultiLocker(proto, 0)
	eng := engine(obs, ml, proto)
	init := make(memory.Block, 8)
	init[0] = 0b01010110
	proto.PokeMemory(0, init)
	ml.Request(0, 0b10100001)
	eng.RunUntil(func() bool { return ml.Holding(0) != 0 }, 3000)
	var word syncprim.Pattern
	for p := 0; p < 8; p++ {
		if proto.State(p, 0) == cache.Dirty {
			word = syncprim.Pattern(proto.CachedData(p, 0)[0])
		}
	}
	s.check("lock 10100001 on 01010110 yields 11110111", word == 0b11110111, fmt.Sprintf("%08b", word))
	ml.Request(1, 0b00000101)
	eng.Run(3000)
	s.check("conflicting pattern 00000101 is refused atomically",
		ml.Holding(1) == 0 && ml.Failures > 0,
		fmt.Sprintf("%d failed multiple test-and-sets", ml.Failures))
	return nil
}

// LatencyResult is one hierarchical configuration's modelled read
// latencies (Table 5.5 or 5.6, against DASH or KSR1) and the latencies
// the two-level protocol simulator measures for the same reads.
type LatencyResult struct {
	Model                []hier.ComparisonRow
	Local, Global, Dirty int
}

// Latency measures Tables 5.5 ("dash": 4 clusters of 4 processors) or
// 5.6 ("ksr1": the 32-processor clusters) on the protocol simulator: a
// global clean read, a read of the same block from the warm local
// cluster, and a read of a block dirty in a remote cluster.
func Latency(obs *obsflags.Observatory, config string) (LatencyResult, error) {
	var res LatencyResult
	cfg := hier.Config{Clusters: 4, ProcsPerCluster: 4, BankCycle: 2, L1Lines: 4, L2Lines: 8}
	switch config {
	case "dash":
		res.Model = hier.Table55()
	case "ksr1":
		res.Model = hier.Table56()
		cfg.ProcsPerCluster = 32
	default:
		return res, fmt.Errorf("unknown config %q", config)
	}
	s := hier.NewSystem(cfg, nil)
	eng := engine(obs, s)
	load := func(cl, p, offset int) int {
		start, at := eng.Now(), sim.Slot(-1)
		s.Load(cl, p, offset, func(_ memory.Block, t sim.Slot) { at = t })
		eng.RunUntil(s.Idle, 100000)
		return int(at - start)
	}
	res.Global = load(0, 0, 5)
	res.Local = load(0, 1, 5)
	s.Store(1, 2, 9, 0, 1, nil)
	eng.RunUntil(s.Idle, 100000)
	res.Dirty = load(0, 0, 9)
	return res, nil
}

func tables55and56(obs *obsflags.Observatory, s *Section) error {
	t55, t56 := hier.Table55(), hier.Table56()
	s.check("Table 5.5 CFM column = 9/27/63 cycles", t55[0].CFM == 9 && t55[1].CFM == 27 && t55[2].CFM == 63,
		fmt.Sprintf("vs DASH %d/%d/%d", t55[0].Other, t55[1].Other, t55[2].Other))
	s.check("Table 5.6 CFM column = 65/195 cycles", t56[0].CFM == 65 && t56[1].CFM == 195,
		fmt.Sprintf("vs KSR1 %d/%d", t56[0].Other, t56[1].Other))
	r, err := Latency(obs, "dash")
	if err != nil {
		return err
	}
	s.check("protocol simulation measures the same 9/27/63",
		r.Local == 9 && r.Global == 27 && r.Dirty == 63,
		fmt.Sprintf("measured %d/%d/%d", r.Local, r.Global, r.Dirty))
	return nil
}

// AllocationParams sets the §7.2 processor allocation comparison: 24
// jobs with data on modules 0 and 1 placed on a 32-processor, 4-cluster
// partial CFM (λ = 0.9, r = 0.04) by each strategy in turn.
type AllocationParams struct {
	Slots      int64
	Strategies []string // "affine", "scatter" or "random"
}

// AllocationRun is one strategy's placement and simulated outcome.
type AllocationRun struct {
	Strategy   string
	Locality   float64 // of the placement
	Efficiency float64
	Retries    int64
}

// Allocation runs each strategy's placement in order.
func Allocation(obs *obsflags.Observatory, p AllocationParams) ([]AllocationRun, error) {
	cfg := core.PartialConfig{
		Processors: 32, Modules: 4, BlockWords: 16, BankCycle: 2,
		Locality: 0.9, AccessRate: 0.04, RetryMean: 4, Seed: 1,
	}
	jobs := make([]core.Job, 24)
	for i := range jobs {
		jobs[i] = core.Job{Home: i % 2}
	}
	var runs []AllocationRun
	for _, st := range p.Strategies {
		var pl core.Placement
		var err error
		switch st {
		case "affine":
			pl, err = core.AllocateAffine(cfg, jobs)
		case "scatter":
			pl, err = core.AllocateScatter(cfg, jobs)
		case "random":
			pl, err = core.AllocateRandom(cfg, jobs, sim.NewRNG(7))
		default:
			err = fmt.Errorf("unknown allocation strategy %q", st)
		}
		if err != nil {
			return runs, err
		}
		c := cfg
		c.Homes = pl
		ps := core.NewPartial(c)
		observed(obs, ps, obs.Flight).Run(p.Slots)
		runs = append(runs, AllocationRun{st, pl.LocalityOf(cfg), ps.Efficiency(), ps.Retries})
	}
	return runs, nil
}

// SharingParams sets the §7.2 slot-sharing sweep: an 8-division CFM
// (16-word blocks, c = 2) with Factors[i] processors per division.
type SharingParams struct {
	Rate    float64 // per-processor access rate
	Slots   int64
	Factors []int
}

// DefaultSharing is the report's sweep: the plain CFM against 4-way
// sharing at r = 0.02, 80 000 slots each.
func DefaultSharing() SharingParams {
	return SharingParams{Rate: 0.02, Slots: 80000, Factors: []int{1, 4}}
}

func (p SharingParams) config(sharing int) core.SharedConfig {
	return core.SharedConfig{Divisions: 8, Sharing: sharing, BlockWords: 16, BankCycle: 2,
		AccessRate: p.Rate, RetryMean: 4, Seed: 1}
}

// Validate reports an unusable rate or factor.
func (p SharingParams) Validate() error {
	for _, f := range p.Factors {
		if err := p.config(f).Validate(); err != nil {
			return err
		}
	}
	return nil
}

// SharingRun is one sharing factor's measurements, read against the
// engine's clock after the run.
type SharingRun struct {
	Sharing, Processors                 int
	Efficiency, Utilization, Throughput float64
	Retries                             int64
}

// Sharing runs each sharing factor in order.
func Sharing(obs *obsflags.Observatory, p SharingParams) []SharingRun {
	var runs []SharingRun
	for _, f := range p.Factors {
		cfg := p.config(f)
		s := core.NewShared(cfg)
		eng := engine(obs, s)
		eng.Run(p.Slots)
		now := eng.Now()
		runs = append(runs, SharingRun{f, cfg.Processors(),
			s.Efficiency(), s.Utilization(now), s.Throughput(now), s.Retries})
	}
	return runs
}

// TopologyRow is one §3.3 inter-cluster topology's distances.
type TopologyRow struct {
	Topology core.Topology
	MeanHops float64
	Diameter int
}

// Topologies compares the §3.3 topologies for 16 clusters.
func Topologies() []TopologyRow {
	var rows []TopologyRow
	for _, t := range []core.Topology{
		core.FullyConnected{N: 16}, core.Hypercube{Dim: 4}, core.Mesh2D{Rows: 4, Cols: 4}, core.Ring{N: 16},
	} {
		rows = append(rows, TopologyRow{t, core.MeanHops(t), core.Diameter(t)})
	}
	return rows
}

// OrderingParams sets the §2.2 program: Pairs times, a store to offset
// j mod Offsets then a load of offset (j+1) mod Offsets, on processor 0
// of a 4-processor cache protocol. Under release ordering the program
// ends with a store and an acquire.
type OrderingParams struct {
	Pairs, Offsets int
}

// OrderingRun is the program's execution under one issue discipline.
type OrderingRun struct {
	Mode     cache.Ordering
	Holds    []bool // the execution satisfies SC, PC, WC, RC
	Drain    int64  // slots until the frontend went idle
	LastLoad int64  // slot at which the last load performed
}

// Ordering runs the program under the strict, buffered, weak and release
// disciplines, in that order.
func Ordering(obs *obsflags.Observatory, p OrderingParams) ([]OrderingRun, error) {
	var runs []OrderingRun
	for _, mode := range []cache.Ordering{cache.StrictOrder, cache.BufferedOrder, cache.WeakOrder, cache.ReleaseOrder} {
		proto := cache.New(cache.Config{Processors: 4, Lines: 8, RetryDelay: 1}, nil)
		eng := obs.NewEngine()
		fe := cache.NewFrontend(proto, eng, 0, mode)
		eng.Register(fe)
		eng.Register(proto)
		for j := 0; j < p.Pairs; j++ {
			fe.Store(j%p.Offsets, 0, memory.Word(j))
			fe.Load((j+1)%p.Offsets, 0, nil)
		}
		if mode == cache.ReleaseOrder {
			// Exercise the acquire/release split so RC's extra freedom
			// (an acquire bypassing buffered stores) is visible.
			fe.Store(0, 0, 99)
			fe.Acquire(7)
		}
		drain, ok := eng.RunUntil(fe.Idle, 100000)
		if !ok {
			return runs, fmt.Errorf("ordering: the %v program did not drain", mode)
		}
		run := OrderingRun{Mode: mode, Drain: drain}
		exec := cache.Execution(fe)
		for _, m := range []consistency.Model{consistency.Sequential, consistency.Processor, consistency.Weak, consistency.Release} {
			run.Holds = append(run.Holds, consistency.Check(m, exec) == nil)
		}
		for _, op := range fe.Ops {
			if op.Kind == consistency.Load && op.PerformedAt > run.LastLoad {
				run.LastLoad = op.PerformedAt
			}
		}
		runs = append(runs, run)
	}
	return runs, nil
}

func extensions(obs *obsflags.Observatory, s *Section) error {
	allocs, err := Allocation(obs, AllocationParams{Slots: 80000, Strategies: []string{"affine", "scatter"}})
	if err != nil {
		return err
	}
	ea, es := allocs[0].Efficiency, allocs[1].Efficiency
	s.check("affine allocation beats scatter (§7.2)", ea > es,
		fmt.Sprintf("E %s vs %s", stats.FormatFloat(ea), stats.FormatFloat(es)))

	sh := Sharing(obs, DefaultSharing())
	s1, s4 := sh[0], sh[1]
	s.check("slot sharing raises utilization at an efficiency cost (§7.2)",
		s4.Utilization > s1.Utilization && s4.Efficiency < s1.Efficiency,
		fmt.Sprintf("util %s→%s, E %s→%s",
			stats.FormatFloat(s1.Utilization), stats.FormatFloat(s4.Utilization),
			stats.FormatFloat(s1.Efficiency), stats.FormatFloat(s4.Efficiency)))

	topo := Topologies()
	cube, ring := topo[1].MeanHops, topo[3].MeanHops
	s.check("hypercube denser than ring at 16 clusters (§3.3)", cube < ring,
		fmt.Sprintf("mean hops %s vs %s", stats.FormatFloat(cube), stats.FormatFloat(ring)))

	// Recursive hierarchy: logarithmic worst case (§5.4.3).
	m2 := hier.MultiLevel{ProcsPerCluster: 4, BankCycle: 2, Levels: 2, Fanout: 4}
	m4 := m2
	m4.Levels = 4
	s.check("worst-case miss grows by a constant per level (§5.4.3)",
		m4.WorstMissLatency()-m2.WorstMissLatency() == 2*4*m2.Beta() &&
			m4.Processors() == m2.Processors()*16,
		fmt.Sprintf("%d procs @ %d cycles → %d procs @ %d cycles",
			m2.Processors(), m2.WorstMissLatency(), m4.Processors(), m4.WorstMissLatency()))

	// Ordering staircase: discipline i satisfies exactly the models from i on.
	runs, err := Ordering(obs, OrderingParams{Pairs: 8, Offsets: 5})
	if err != nil {
		return err
	}
	stair := true
	for i, run := range runs {
		for mi, holds := range run.Holds {
			stair = stair && (mi >= i) == holds
		}
	}
	s.check("issue disciplines reproduce the SC⊃PC⊃WC⊃RC staircase (§2.2)", stair, "4×4 matrix diagonal")

	// Linda comparison.
	ts := linda.NewSpace()
	for i := 0; i < 500; i++ {
		ts.Out(linda.Tuple{"ballast", i})
	}
	ts.Out(linda.Tuple{"target"})
	before := ts.Scans
	ts.Rd(linda.Tuple{"target"})
	s.check("Linda match cost grows with tuple space size (§6.1.3)", ts.Scans-before > 400,
		fmt.Sprintf("%d tuples scanned for one rd", ts.Scans-before))
	return nil
}

// syncScaling measures the parallel engine's synchronization cost on
// the partially conflict-free fleets: barrier crossings per simulated
// slot under per-slot barriers (epoch-batch 1) versus batched episodes
// (epoch-batch auto), across worker counts and fleet sizes. The
// simulated results must be bit-identical in every cell — only the
// synchronization schedule may change. It builds its own engines: the
// engine settings are what it measures.
func syncScaling(_ *obsflags.Observatory, s *Section) error {
	const slots = 5000
	mkFleet := func(n, m int) *core.Partial {
		return core.NewPartial(core.PartialConfig{
			Processors: n, Modules: m, BlockWords: 2 * (n / m), BankCycle: 2,
			Locality: 0.9, AccessRate: 0.2, RetryMean: 4, Seed: 42})
	}
	tb := &stats.Table{Header: []string{"fleet", "workers", "mode", "epochs", "crossings/slot", "E"}}
	identical, amortized := true, true
	for _, sh := range []struct{ n, m int }{{128, 16}, {1024, 128}} {
		serialFleet := mkFleet(sh.n, sh.m)
		serialClk := sim.NewClock()
		serialClk.Register(serialFleet)
		serialClk.Run(slots)
		wantE := serialFleet.Efficiency()
		for _, w := range []int{2, 4} {
			var perSlot [2]float64
			for mi, k := range []int{1, sim.EpochAuto} {
				p := mkFleet(sh.n, sh.m)
				clk := sim.NewParallelClock(w)
				clk.SetEpochBatch(k)
				clk.Register(p)
				clk.Run(slots)
				clk.Close()
				mode := "per-slot"
				if k == sim.EpochAuto {
					mode = "batched"
				}
				perSlot[mi] = float64(clk.BarrierCrossings()) / slots
				tb.AddRow(fmt.Sprintf("n%d/m%d", sh.n, sh.m), w, mode,
					clk.Epochs(), perSlot[mi], p.Efficiency())
				if p.Efficiency() != wantE {
					identical = false
				}
			}
			if perSlot[1]*4 > perSlot[0] {
				amortized = false
			}
		}
	}
	s.Text = tb.String()
	s.check("batched and per-slot runs are bit-identical to the serial clock", identical,
		"Partial efficiency equal in every cell")
	s.check("epoch batching amortizes barrier crossings by >=4x", amortized,
		"2 crossings per 16-slot episode vs several per slot")
	return nil
}
