// Command cfmsim drives the Conflict-Free Memory reproduction: each
// subcommand regenerates one table or figure of the dissertation. The
// experiments are internal/scenario's catalog, run here at cfmsim's own
// flag values and rendered in full.
//
// Usage:
//
//	cfmsim <command> [flags]
//
// Run cfmsim without arguments for the commands and the engine and
// observability flags the simulation-heavy ones accept; commands() is
// the one table behind that list and the dispatch.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"cfm"
	"cfm/internal/core"
	"cfm/internal/network"
	"cfm/internal/obsflags"
	"cfm/internal/scenario"
	"cfm/internal/sim"
	"cfm/internal/stats"
)

// command is one cfmsim subcommand.
type command struct {
	name    string
	summary string // continuation lines after "\n"
	run     func(args []string)
}

func commands() []command {
	return []command{
		{"atspace", "Table 3.1 / Fig 3.3: address path connection table", cmdATSpace},
		{"table3.3", "Table 3.3: CFM configuration trade-off", cmdTable33},
		{"table3.4", "Table 3.4 / Fig 3.8: synchronous omega switch states", cmdTable34},
		{"table3.5", "Table 3.5: 64-bank partially synchronous configurations", cmdTable35},
		{"timing", "Fig 3.6: block read timing diagram", cmdTiming},
		{"efficiency", "Figs 3.13/3.14/3.15 (-fig 3.13|3.14|3.15)", cmdEfficiency},
		{"treesat", "Fig 2.1: tree saturation sweep", cmdTreeSat},
		{"headers", "Figs 3.9/3.10: message header sizes", cmdHeaders},
		{"att", "Figs 4.1/4.3 (-demo inconsistency|tracking)", cmdATT},
		{"locktransfer", "Fig 5.4: lock transfer walkthrough", cmdLockTransfer},
		{"latency", "Tables 5.5/5.6 (-config dash|ksr1)", cmdLatency},
		{"alloc", "§7.2 processor allocation strategy comparison", cmdAlloc},
		{"sharing", "§7.2 slot-sharing factor sweep", cmdSharing},
		{"topology", "§3.3 inter-cluster topology comparison", cmdTopology},
		{"ordering", "§2.2 memory ordering disciplines vs the formal models", cmdOrdering},
		{"observe", "instrumented simulation: bank-conflict heatmap and\nnetwork-occupancy view from the sampled time series", cmdObserve},
		{"waterfall", "flight recorder: per-access span timelines with the\nqueue/service/network latency decomposition", cmdWaterfall},
		{"bisect", "binary-search the first slot at which two engine\nconfigurations diverge, via checkpoint/restore", cmdBisect},
	}
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	name, args := os.Args[1], os.Args[2:]
	for _, c := range commands() {
		if c.name == name {
			c.run(args)
			return
		}
	}
	fmt.Fprintf(os.Stderr, "cfmsim: unknown command %q\n\n", name)
	usage()
	os.Exit(2)
}

func usage() {
	fmt.Fprint(os.Stderr, "usage: cfmsim <command> [flags]\n\ncommands:\n")
	for _, c := range commands() {
		fmt.Fprintf(os.Stderr, "  %-13s %s\n", c.name, strings.ReplaceAll(c.summary, "\n", "\n"+strings.Repeat(" ", 16)))
	}
	fmt.Fprint(os.Stderr, "\nthe simulation-heavy commands (efficiency, treesat, alloc, observe, waterfall)\n"+
		"accept the engine and observability flags; results are the same, bit for bit,\n"+
		"under every engine flag. -resume and -checkpoint-out need a command that runs\n"+
		"one engine (observe, waterfall):\n")
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	obsflags.Flags(fs)
	fs.SetOutput(os.Stderr)
	fs.PrintDefaults()
}

// usageCheck exits 2, the code of every usage error, with a one-line
// message naming the first non-nil error. Each command checks its flag
// values before any output, so an out-of-range one never reaches a
// simulator's constructor panic.
func usageCheck(errs ...error) {
	for _, err := range errs {
		if err != nil {
			fmt.Fprintln(os.Stderr, "cfmsim:", err)
			os.Exit(2)
		}
	}
}

// fail exits 1 on a run-time error.
func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cfmsim:", err)
		os.Exit(1)
	}
}

// flagError prefixes err, when non-nil, with flag -name and its value v.
func flagError(name string, v int, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("-%s %d: %w", name, v, err)
}

// atLeast returns an error naming flag -name when v < least.
func atLeast(name string, v, least int64) error {
	if v < least {
		return fmt.Errorf("-%s %d: must be at least %d", name, v, least)
	}
	return nil
}

// oneEngine rejects -resume and -checkpoint-out on a command that runs
// several engines: one checkpoint file holds one engine's state.
func oneEngine(obs *obsflags.Observatory) error {
	if obs.Resume != "" || obs.CheckpointOut != "" {
		return errors.New("-resume and -checkpoint-out need a one-engine command (observe, waterfall)")
	}
	return nil
}

// openObservatory opens the -metrics-out/-trace-out/-http observatory,
// exiting on a bad flag combination (e.g. an unbindable -http address).
func openObservatory(obs *obsflags.Observatory, force bool) {
	usageCheck(obs.Validate())
	fail(obs.Open(force))
}

func cmdATSpace(args []string) {
	fs := flag.NewFlagSet("atspace", flag.ExitOnError)
	cfg := scenario.DefaultATSpace()
	fs.IntVar(&cfg.Processors, "n", cfg.Processors, "processors")
	fs.IntVar(&cfg.BankCycle, "c", cfg.BankCycle, "bank cycle (CPU cycles)")
	fs.Parse(args)
	usageCheck(cfg.Validate())

	fmt.Printf("Table 3.1 — address path connections (%v)\n\n", cfg)
	tb := &stats.Table{Header: []string{"slot"}}
	for b := 0; b < cfg.Banks(); b++ {
		tb.Header = append(tb.Header, fmt.Sprintf("B%d", b))
	}
	for slot, row := range core.NewATSpace(cfg).ConnectionTable() {
		cells := []any{fmt.Sprintf("Slot %d", slot)}
		for _, p := range row {
			if p < 0 {
				cells = append(cells, "")
			} else {
				cells = append(cells, fmt.Sprintf("P%d", p))
			}
		}
		tb.AddRow(cells...)
	}
	fmt.Print(tb)
}

func cmdTable33(args []string) {
	fs := flag.NewFlagSet("table3.3", flag.ExitOnError)
	block := fs.Int("block", 256, "block size in bits (l)")
	c := fs.Int("c", 2, "bank cycle")
	fs.Parse(args)
	usageCheck(atLeast("block", int64(*block), 1), atLeast("c", int64(*c), 1))
	rows := core.Tradeoff(*block, *c)
	if len(rows) == 0 {
		usageCheck(fmt.Errorf("-block %d -c %d: no CFM configuration splits the block across banks", *block, *c))
	}

	fmt.Printf("Table 3.3 — trade-off in the CFM configurations (l = %d, c = %d)\n\n", *block, *c)
	tb := &stats.Table{Header: []string{"Memory banks", "Word width", "Memory latency", "Processors"}}
	for _, row := range rows {
		tb.AddRow(row.Banks, row.WordWidth, row.Latency, row.Processors)
	}
	fmt.Print(tb)
}

func cmdTable34(args []string) {
	fs := flag.NewFlagSet("table3.4", flag.ExitOnError)
	n := fs.Int("n", 8, "network size (power of two)")
	states := fs.Bool("states", false, "also print per-slot permutations (Fig 3.8)")
	fs.Parse(args)
	so, err := network.NewSyncOmega(*n)
	usageCheck(flagError("n", *n, err))

	fmt.Printf("Table 3.4 — states of switches in an %dx%d synchronous omega network\n\n", *n, *n)
	tb := &stats.Table{Header: []string{"slot"}}
	for col := 0; col < so.Columns(); col++ {
		for sw := 0; sw < *n/2; sw++ {
			tb.Header = append(tb.Header, fmt.Sprintf("c%d.s%d", col, sw))
		}
	}
	for t, row := range so.StateTable() {
		cells := []any{fmt.Sprintf("Slot %d", t)}
		for _, st := range row {
			cells = append(cells, st.String())
		}
		tb.AddRow(cells...)
	}
	fmt.Print(tb)

	if *states {
		fmt.Printf("\nFig 3.8 — realized permutations (input → output = (t+p) mod %d):\n", *n)
		for t := 0; t < *n; t++ {
			fmt.Printf("  slot %d:", t)
			for p := 0; p < *n; p++ {
				fmt.Printf(" %d→%d", p, so.Out(int64(t), p))
			}
			fmt.Println()
		}
	}
}

func cmdTable35(args []string) {
	fs := flag.NewFlagSet("table3.5", flag.ExitOnError)
	banks := fs.Int("banks", 64, "total banks (power of two)")
	fs.Parse(args)
	configs, err := scenario.Configurations(*banks)
	usageCheck(flagError("banks", *banks, err))

	fmt.Printf("Table 3.5 — configurations of a %d-bank multiprocessor\n\n", *banks)
	tb := &stats.Table{Header: []string{"Module", "Bank", "Block size", "Circuit-switching", "Clock-driven", "Remark"}}
	for cc, po := range configs {
		remark := ""
		switch cc {
		case 0:
			remark = "CFM"
		case len(configs) - 1:
			remark = "Conventional"
		}
		tb.AddRow(po.Modules(), po.BanksPerModule(),
			fmt.Sprintf("%d words", po.BanksPerModule()),
			fmt.Sprintf("%d columns", po.CircuitColumns()),
			fmt.Sprintf("%d columns", po.ClockColumns()),
			remark)
	}
	fmt.Print(tb)
}

func cmdTiming(args []string) {
	fs := flag.NewFlagSet("timing", flag.ExitOnError)
	cfg := scenario.DefaultATSpace()
	fs.IntVar(&cfg.Processors, "n", cfg.Processors, "processors")
	fs.IntVar(&cfg.BankCycle, "c", cfg.BankCycle, "bank cycle")
	p := fs.Int("p", 0, "issuing processor")
	slot := fs.Int("slot", 0, "issue slot")
	fs.Parse(args)
	usageCheck(cfg.Validate(), atLeast("slot", int64(*slot), 0))
	if *p < 0 || *p >= cfg.Processors {
		usageCheck(fmt.Errorf("-p %d: processor out of range [0,%d)", *p, cfg.Processors))
	}
	fmt.Printf("Fig 3.6 — timing diagram of a block read (%v)\n\n", cfg)
	fmt.Print(core.NewATSpace(cfg).RenderTiming(sim.Slot(*slot), *p))
}

// cmdEfficiency renders the analytic curves of one of Figs 3.13–3.15
// and cross-checks them with the discrete-event simulation at a few
// anchor rates, with the other design at the same rates as reference.
// Every run carries a flight recorder, so after the cross-check it
// prints the paper's central claim in queueing terms: the decomposition
// of each design's access latency into queue + service + network (§3.4
// — the conflict-free queue term stays flat while the conventional one
// grows with the access rate).
func cmdEfficiency(args []string) {
	fs := flag.NewFlagSet("efficiency", flag.ExitOnError)
	p := scenario.EfficiencyParams{
		Localities: []float64{0.9, 0.5}, Rates: []float64{0.01, 0.03, 0.05}, Seed: 11, Spans: true}
	fs.StringVar(&p.Fig, "fig", "3.13", "which figure: 3.13, 3.14, or 3.15")
	steps := fs.Int("steps", 12, "rate sweep steps")
	simulate := fs.Bool("sim", true, "cross-check with discrete-event simulation")
	fs.Int64Var(&p.Slots, "slots", 300000, "simulation slots per point")
	obs := obsflags.Flags(fs)
	fs.Parse(args)
	usageCheck(atLeast("steps", int64(*steps), 1), atLeast("slots", p.Slots, 1), p.Validate(), oneEngine(obs))
	openObservatory(obs, false)

	fmt.Printf("Fig %s — memory access efficiency (analytic model, §3.4)\n\n", p.Fig)
	curves := map[string]func(int) []cfm.Series{"3.13": cfm.Fig313, "3.14": cfm.Fig314, "3.15": cfm.Fig315}[p.Fig](*steps)
	tb := &stats.Table{Header: []string{"r"}}
	var plots []stats.PlotSeries
	for _, s := range curves {
		tb.Header = append(tb.Header, s.Label)
		ps := stats.PlotSeries{Label: s.Label}
		for _, pt := range s.Points {
			ps.X = append(ps.X, pt.Rate)
			ps.Y = append(ps.Y, pt.Efficiency)
		}
		plots = append(plots, ps)
	}
	for i := range curves[0].Points {
		cells := []any{stats.FormatFloat(curves[0].Points[i].Rate)}
		for _, s := range curves {
			cells = append(cells, s.Points[i].Efficiency)
		}
		tb.AddRow(cells...)
	}
	fmt.Print(tb)
	fmt.Println()
	fmt.Print(stats.Plot(64, 16, plots))

	if *simulate {
		runs, err := scenario.Efficiency(obs, p)
		fail(err)
		// The reference: Fig 3.14's partial system at the first locality
		// for Fig 3.13, else Fig 3.13's conventional memory.
		ref := p
		ref.Fig = "3.13"
		if p.Fig == "3.13" {
			ref.Fig, ref.Localities = "3.14", p.Localities[:1]
		}
		refRuns, err := scenario.Efficiency(obs, ref)
		fail(err)

		fmt.Println("\ndiscrete-event simulation cross-check:")
		tb := &stats.Table{Header: []string{"r", "simulated", "analytic", "system"}}
		for _, run := range runs {
			system := "conventional 8p/8m"
			if !run.Conventional {
				system = fmt.Sprintf("partial CFM λ=%.1f", run.Locality)
			}
			tb.AddRow(stats.FormatFloat(run.Rate), run.Efficiency, run.Analytic, system)
		}
		fmt.Print(tb)

		fmt.Println("\nqueueing-delay decomposition (flight recorder, complete spans):")
		dt := &stats.Table{Header: []string{"system", "r", "spans",
			"queue p50/p95/p99", "queue mean", "service p50", "network p50", "total p95"}}
		for _, run := range append(runs, refRuns...) {
			system, a := "conventional 8p/8m", run.Spans
			if !run.Conventional {
				system = fmt.Sprintf("partial CFM %dp λ=%.1f", run.Processors, run.Locality)
			}
			dt.AddRow(system, stats.FormatFloat(run.Rate), a.Spans,
				fmt.Sprintf("%d/%d/%d", a.Queue.P50, a.Queue.P95, a.Queue.P99),
				fmt.Sprintf("%.2f", a.Queue.Mean),
				a.Service.P50, a.Network.P50, a.Total.P95)
		}
		fmt.Print(dt)
		fmt.Println("the conflict-free design's queue term stays flat as r grows;")
		fmt.Println("the conventional design's queue term is the §3.4 degradation.")
	}
	fail(obs.Close())
}

func cmdTreeSat(args []string) {
	fs := flag.NewFlagSet("treesat", flag.ExitOnError)
	p := scenario.DefaultTreeSat()
	p.Hot = []float64{0, 0.05, 0.1, 0.2, 0.3, 0.4}
	fs.IntVar(&p.Terminals, "n", p.Terminals, "terminals")
	fs.Float64Var(&p.Rate, "rate", p.Rate, "injection rate")
	fs.Int64Var(&p.Slots, "slots", p.Slots, "simulation slots")
	obs := obsflags.Flags(fs)
	fs.Parse(args)
	usageCheck(p.Validate(), atLeast("slots", p.Slots, 1), oneEngine(obs))
	openObservatory(obs, false)

	fmt.Printf("Fig 2.1 — tree saturation from a hot spot (%dx%d buffered omega, rate %.2f)\n\n", p.Terminals, p.Terminals, p.Rate)
	tb := &stats.Table{Header: []string{"hot-spot fraction", "bg latency", "hot latency", "full queues/col", "backlog"}}
	for i, b := range scenario.TreeSat(obs, p) {
		tb.AddRow(p.Hot[i], b.MeanLatencyBg(), b.MeanLatencyHot(), fmt.Sprint(b.FullQueues()), b.QueuedPackets())
	}
	fmt.Print(tb)
	fmt.Println("\nthe CFM eliminates the effect: every access costs β regardless of pattern.")
	fail(obs.Close())
}

func cmdHeaders(args []string) {
	fs := flag.NewFlagSet("headers", flag.ExitOnError)
	banks := fs.Int("banks", 8, "banks (power of two)")
	words := fs.Int("words", 1024, "words per bank (offset space)")
	fs.Parse(args)
	usageCheck(atLeast("words", int64(*words), 1))
	configs, err := scenario.Configurations(*banks)
	usageCheck(flagError("banks", *banks, err))

	fmt.Printf("Figs 3.9/3.10 — message headers of memory access requests (%d banks, %d offsets)\n\n", *banks, *words)
	tb := &stats.Table{Header: []string{"network", "module bits", "offset bits", "total"}}
	for cc, po := range configs {
		name := fmt.Sprintf("partial (%d modules)", po.Modules())
		if cc == 0 {
			name = "synchronous (CFM)"
		} else if po.BanksPerModule() == 1 {
			name = "circuit-switching"
		}
		h := po.RequestHeader(*words)
		tb.AddRow(name, h.ModuleBits, h.OffsetBits, h.Bits())
	}
	fmt.Print(tb)
}

func cmdATT(args []string) {
	fs := flag.NewFlagSet("att", flag.ExitOnError)
	demo := fs.String("demo", "inconsistency", "inconsistency | tracking")
	traceOut := fs.String("trace-out", "", "write the event trace to this file as JSONL")
	fs.Parse(args)
	if *demo != "inconsistency" && *demo != "tracking" {
		usageCheck(fmt.Errorf("unknown demo %q", *demo))
	}
	conflict := scenario.ConflictParams{Writers: [2]int{0, 1},
		Blocks: [2]cfm.Block{{1, 2, 3, 4}, {11, 12, 13, 14}}, Slots: 10}

	if *demo == "inconsistency" {
		fmt.Println("Fig 4.1 — inconsistency WITHOUT address tracking:")
		fmt.Println("P0 writes '1 2 3 4' and P1 writes '11 12 13 14' to the same block at slot 0.")
		fmt.Printf("final block: %v  ← torn between the two writers\n\n", scenario.Untracked(new(obsflags.Observatory), conflict))
	}
	fmt.Println("Fig 4.3 — the same conflict WITH address tracking:")
	obs := &obsflags.Observatory{Trace: sim.NewTrace(), TraceOut: *traceOut}
	conflict.Slots = 12
	final, _, _ := scenario.Tracked(obs, conflict)
	fmt.Printf("final block: %v  ← exactly one writer completed\n", final)
	fmt.Println("\nevent trace:")
	for _, e := range obs.Trace.Events() {
		fmt.Println(" ", e)
	}
	fail(obs.Close()) // writes -trace-out
}

func cmdLockTransfer(args []string) {
	fs := flag.NewFlagSet("locktransfer", flag.ExitOnError)
	n := fs.Int("n", 4, "processors")
	fs.Parse(args)
	transfer, err := scenario.LockTransfer(new(obsflags.Observatory), *n)
	usageCheck(err)

	fmt.Printf("Fig 5.4 — lock transfer on a %d-processor CFM cache protocol\n\n", *n)
	fmt.Printf("transfer took %d slots ≈ %.1f block accesses of %d slots each\n",
		transfer, float64(transfer)/float64(*n), *n)
	fmt.Println("(the dissertation predicts ≈3 accesses: write-back, read, read-invalidate)")
}

func cmdLatency(args []string) {
	fs := flag.NewFlagSet("latency", flag.ExitOnError)
	config := fs.String("config", "dash", "dash (Table 5.5) | ksr1 (Table 5.6)")
	fs.Parse(args)
	r, err := scenario.Latency(new(obsflags.Observatory), *config)
	usageCheck(err)

	title, other := "Table 5.5 — read latency of CFM and DASH (16 processors, 4 clusters, 16-byte lines)", "DASH"
	if *config == "ksr1" {
		title, other = "Table 5.6 — read latency of CFM and KSR1 (1024 processors, 32 clusters, 128-byte lines)", "KSR1"
	}
	fmt.Println(title)
	fmt.Println()
	tb := &stats.Table{Header: []string{"Read Accesses", "CFM", other}}
	for _, row := range r.Model {
		tb.AddRow(row.Access, fmt.Sprintf("%d cycles", row.CFM), fmt.Sprintf("%d cycles", row.Other))
	}
	fmt.Print(tb)

	// Cross-check the model against the two-level protocol simulator.
	fmt.Println("\nsimulated on the two-level protocol engine:")
	fmt.Printf("  local cluster read:  %d cycles\n", r.Local)
	fmt.Printf("  global memory read:  %d cycles\n", r.Global)
	if *config == "dash" {
		fmt.Printf("  dirty remote read:   %d cycles\n", r.Dirty)
	}
}

func cmdAlloc(args []string) {
	fs := flag.NewFlagSet("alloc", flag.ExitOnError)
	p := scenario.AllocationParams{Strategies: []string{"affine", "scatter", "random"}}
	fs.Int64Var(&p.Slots, "slots", 100000, "simulation slots")
	obs := obsflags.Flags(fs)
	fs.Parse(args)
	usageCheck(atLeast("slots", p.Slots, 1), oneEngine(obs))
	openObservatory(obs, false)
	runs, err := scenario.Allocation(obs, p)
	fail(err)

	fmt.Println("§7.2 — processor allocation on a 32-processor, 4-cluster partial CFM")
	fmt.Println("24 jobs with data on modules 0 and 1, λ = 0.9, r = 0.04")
	fmt.Println()
	tb := &stats.Table{Header: []string{"strategy", "placement locality", "efficiency", "retries"}}
	for _, r := range runs {
		tb.AddRow(r.Strategy, r.Locality, r.Efficiency, r.Retries)
	}
	fmt.Print(tb)
	fail(obs.Close())
}

func cmdSharing(args []string) {
	fs := flag.NewFlagSet("sharing", flag.ExitOnError)
	p := scenario.DefaultSharing()
	p.Factors = []int{1, 2, 3, 4, 6, 8}
	fs.Float64Var(&p.Rate, "rate", p.Rate, "per-processor access rate")
	fs.Int64Var(&p.Slots, "slots", 100000, "simulation slots")
	fs.Parse(args)
	usageCheck(p.Validate(), atLeast("slots", p.Slots, 1))

	fmt.Println("§7.2 — slot sharing: processors per AT-space division")
	fmt.Printf("8 divisions, 16-word blocks, c=2, r=%.3f\n\n", p.Rate)
	tb := &stats.Table{Header: []string{"sharing", "processors", "efficiency", "utilization", "accesses/slot", "retries"}}
	for _, r := range scenario.Sharing(new(obsflags.Observatory), p) {
		tb.AddRow(r.Sharing, r.Processors, r.Efficiency, r.Utilization, r.Throughput, r.Retries)
	}
	fmt.Print(tb)
	fmt.Println("\nsharing=1 is the plain CFM (conflict-free); larger factors trade")
	fmt.Println("per-access efficiency for hardware utilization (§7.2).")
}

func cmdTopology(args []string) {
	fs := flag.NewFlagSet("topology", flag.ExitOnError)
	fs.Parse(args)

	fmt.Println("§3.3 — inter-cluster topologies for 16 conflict-free clusters")
	fmt.Println()
	tb := &stats.Table{Header: []string{"topology", "links/diameter", "mean hops", "round trip @3 cyc/hop"}}
	for _, r := range scenario.Topologies() {
		tb.AddRow(r.Topology.String(), r.Diameter, r.MeanHops, fmt.Sprintf("%.1f cycles", 2*3*r.MeanHops))
	}
	fmt.Print(tb)
}

func cmdOrdering(args []string) {
	fs := flag.NewFlagSet("ordering", flag.ExitOnError)
	fs.Parse(args)
	runs, err := scenario.Ordering(new(obsflags.Observatory), scenario.OrderingParams{Pairs: 10, Offsets: 6})
	fail(err)

	fmt.Println("§2.2 — issue disciplines over the CFM cache protocol, checked")
	fmt.Println("against the formal consistency conditions")
	fmt.Println()
	tb := &stats.Table{Header: []string{"frontend", "SC", "PC", "WC", "RC"}}
	for _, run := range runs {
		row := []any{run.Mode.String()}
		for _, holds := range run.Holds {
			if holds {
				row = append(row, "PASS")
			} else {
				row = append(row, "violates")
			}
		}
		tb.AddRow(row...)
	}
	fmt.Print(tb)
}

// cmdObserve runs one instrumented simulation — a conventional
// interleaved memory, a buffered omega network with a hot spot, and the
// CFM cache protocol — and renders the registry's sampled time series
// as ASCII heatmaps: where the bank conflicts land over time, and how
// the hot spot's congestion tree occupies the network stages.
func cmdObserve(args []string) {
	fs := flag.NewFlagSet("observe", flag.ExitOnError)
	n := fs.Int("n", 16, "processors (= network terminals = cache processors)")
	modules := fs.Int("modules", 8, "memory modules of the conventional system")
	rate := fs.Float64("rate", 0.05, "per-processor access rate")
	hot := fs.Float64("hot", 0.2, "hot-spot fraction on the buffered network")
	slots := fs.Int64("slots", 24000, "simulation slots")
	obs := obsflags.Flags(fs)
	fs.Parse(args)
	convCfg := cfm.ConventionalConfig{
		Processors: *n, Modules: *modules, BlockTime: 17,
		AccessRate: *rate, RetryMean: 8, Seed: 11,
	}
	netCfg := cfm.BufferedConfig{
		Terminals: *n, QueueCap: 4, ServiceTime: 2,
		Rate: *rate, HotFraction: *hot, Seed: 7,
	}
	cacheCfg := cfm.CacheConfig{Processors: *n, Lines: 8, RetryDelay: 1}
	usageCheck(convCfg.Validate(), netCfg.Validate(), cacheCfg.Validate(), atLeast("slots", *slots, 1))
	openObservatory(obs, true) // observe always needs the registry

	conv := cfm.NewConventional(convCfg)
	conv.Instrument(obs.Reg)
	net := cfm.NewBufferedOmega(netCfg)
	net.Instrument(obs.Reg)
	proto := cfm.NewCacheProtocol(cacheCfg, obs.Trace)
	proto.Instrument(obs.Reg)
	// One recorder serves one subsystem: span IDs compose (actor, slot),
	// so recording several components into one ring would collide IDs.
	// The cache protocol is the interesting one here.
	proto.RecordFlight(obs.Flight)

	clk := obs.NewEngine()
	clk.Register(conv)
	clk.Register(net)
	clk.Register(proto)
	obs.Attach(clk)

	// Some sharing traffic so the cache protocol has work to count
	// (and, with -trace-out, events to trace). A -resume checkpoint
	// overwrites this with the saved queues, so re-injecting is harmless.
	for i := 0; i < 4**n; i++ {
		if p, off := i%*n, i%16; i%3 == 0 {
			proto.Store(p, off, 0, cfm.Word(i), nil)
		} else {
			proto.Load(p, off, nil)
		}
	}
	fail(obs.MaybeResume(clk))
	// Run to the -slots target: a resumed run continues from its
	// checkpoint slot, so checkpointing at -slots S and resuming with
	// -slots T > S reproduces an uninterrupted T-slot run bit for bit.
	if left := *slots - int64(clk.Now()); left > 0 {
		clk.Run(left)
	}
	fail(obs.MaybeCheckpoint(clk))

	fmt.Printf("simulation observatory — %d slots, %d processors, %d modules, hot=%.2f\n\n",
		*slots, *n, *modules, *hot)
	fmt.Printf("bank conflicts on the conventional interleaved memory (per %d-slot interval):\n", obs.Every)
	labels, rows := obs.HeatRows("conv_module_conflicts", "module", true)
	fmt.Print(stats.Heatmap(labels, rows))
	fmt.Printf("\nnetwork occupancy, buffered omega (queued packets per stage, sampled every %d slots):\n", obs.Every)
	labels, rows = obs.HeatRows("net_stage_queued", "stage", false)
	fmt.Print(stats.Heatmap(labels, rows))

	snap := obs.Reg.Snapshot()
	fmt.Printf("\nregistry: %d counters, %d gauges, %d histograms; digest %016x\n",
		len(snap.Counters), len(snap.Gauges), len(snap.Histograms), snap.Digest())
	fmt.Printf("conventional efficiency %.3f; network backlog %d packets\n",
		conv.Efficiency(), net.QueuedPackets())
	fail(obs.Close())
}

// cmdWaterfall runs one instrumented system with a flight recorder and
// renders the longest complete access spans as stage-by-stage ASCII
// waterfalls with their queue/service/network latency decomposition.
func cmdWaterfall(args []string) {
	fs := flag.NewFlagSet("waterfall", flag.ExitOnError)
	sys := fs.String("sys", "conventional", "system to trace: conventional | partial | cache")
	rate := fs.Float64("rate", 0.05, "per-processor access rate")
	slots := fs.Int64("slots", 20000, "simulation slots")
	top := fs.Int("top", 3, "render the K longest complete spans")
	id := fs.String("id", "", "render one specific span (up to 16 hex digits) instead of the longest")
	obs := obsflags.Flags(fs)
	fs.Parse(args)
	convCfg := cfm.ConventionalConfig{
		Processors: 16, Modules: 8, BlockTime: 17,
		AccessRate: *rate, RetryMean: 8, Seed: 11,
	}
	partialCfg := core.PartialConfig{
		Processors: 64, Modules: 8, BlockWords: 16, BankCycle: 2,
		Locality: 0.9, AccessRate: *rate, RetryMean: 8, Seed: 11,
	}
	var sysErr error
	switch *sys {
	case "conventional":
		sysErr = convCfg.Validate()
	case "partial":
		sysErr = partialCfg.Validate()
	case "cache":
	default:
		sysErr = fmt.Errorf("unknown system %q", *sys)
	}
	spanID, perr := strconv.ParseUint(*id, 16, 64)
	if *id != "" && perr != nil {
		usageCheck(fmt.Errorf("bad span id %q: %v", *id, perr))
	}
	usageCheck(atLeast("slots", *slots, 1), atLeast("top", int64(*top), 0), sysErr)
	openObservatory(obs, false)

	// The command needs a recorder whether or not -spans-out asked for
	// an export file; the observatory attaches it to the checkpoint.
	if obs.Flight == nil {
		obs.Flight = cfm.NewFlightRecorder(obs.SpansLimit)
	}
	rec := obs.Flight
	clk := obs.NewEngine()
	var label string
	switch *sys {
	case "conventional":
		cs := cfm.NewConventional(convCfg)
		cs.Instrument(obs.Reg)
		cs.RecordFlight(rec)
		clk.Register(cs)
		label = "conventional 16p/8m"
	case "partial":
		p := cfm.NewPartial(partialCfg)
		p.Instrument(obs.Reg)
		p.RecordFlight(rec)
		clk.Register(p)
		label = "partial CFM 64p/8m λ=0.9"
	case "cache":
		proto := cfm.NewCacheProtocol(cfm.CacheConfig{Processors: 8, Lines: 8, RetryDelay: 1}, obs.Trace)
		proto.Instrument(obs.Reg)
		proto.RecordFlight(rec)
		clk.Register(proto)
		for i := 0; i < 64; i++ {
			if p, off := i%8, i%16; i%3 == 0 {
				proto.Store(p, off, 0, cfm.Word(i), nil)
			} else {
				proto.Load(p, off, nil)
			}
		}
		label = "CFM cache protocol 8p"
	}
	obs.Attach(clk)
	// A -resume checkpoint overwrites the cache traffic injected above.
	fail(obs.MaybeResume(clk))
	// Run to the -slots target, as observe does.
	if left := *slots - int64(clk.Now()); left > 0 {
		clk.Run(left)
	}
	fail(obs.MaybeCheckpoint(clk))

	events := rec.Events()
	fmt.Printf("flight waterfall — %s, %d slots, %d span events (%d dropped by the ring)\n\n",
		label, *slots, len(events), rec.Dropped())
	if *id != "" {
		fmt.Print(cfm.FlightWaterfall(events, spanID))
	} else {
		bds := cfm.DecomposeFlight(events)
		// Longest first; ties broken by issue slot then ID so the
		// rendering is deterministic for a deterministic stream.
		sort.SliceStable(bds, func(i, j int) bool {
			if bds[i].Total != bds[j].Total {
				return bds[i].Total > bds[j].Total
			}
			if bds[i].Issue != bds[j].Issue {
				return bds[i].Issue < bds[j].Issue
			}
			return bds[i].ID < bds[j].ID
		})
		if len(bds) == 0 {
			fmt.Println("no complete spans recorded (raise -slots or -rate)")
		}
		for i := 0; i < *top && i < len(bds); i++ {
			fmt.Print(cfm.FlightWaterfall(events, bds[i].ID))
			fmt.Println()
		}
		att := cfm.AttributeFlight(events)
		fmt.Printf("%d complete spans — queue p50/p95/p99 %d/%d/%d, service p50 %d, network p50 %d, total p95 %d\n",
			att.Spans, att.Queue.P50, att.Queue.P95, att.Queue.P99,
			att.Service.P50, att.Network.P50, att.Total.P95)
	}
	fail(obs.Close())
}

// cmdBisect runs the same conventional-memory scenario on two engines —
// A serial and dense, B per the -b-* flags — and binary-searches the
// first slot at which their flight-recorder digests diverge, using
// checkpoint/restore to rewind in O(log slots) restores. By the engine
// equivalence guarantee the digests never diverge on their own;
// -inject plants a synthetic divergence so the machinery has something
// to localize.
func cmdBisect(args []string) {
	fs := flag.NewFlagSet("bisect", flag.ExitOnError)
	slots := fs.Int64("slots", 4096, "bisection upper bound (slots)")
	rate := fs.Float64("rate", 0.05, "per-processor access rate")
	bWorkers := fs.Int("b-workers", 1, "engine B worker count (1 = one worker; 0 = auto; <0 = GOMAXPROCS)")
	bSkip := fs.Bool("b-skip-ahead", true, "run engine B with event-horizon skip-ahead")
	inject := fs.Int64("inject", -1, "inject a synthetic divergence into engine B at this slot (-1: none)")
	window := fs.Int64("window", 4, "flight window radius (slots) dumped around the divergence")
	fs.Parse(args)
	cfg := cfm.ConventionalConfig{
		Processors: 8, Modules: 8, BlockTime: 17,
		AccessRate: *rate, RetryMean: 8, Seed: 11,
	}
	usageCheck(atLeast("slots", *slots, 1), atLeast("window", *window, 0), cfg.Validate())
	if *inject >= *slots {
		usageCheck(fmt.Errorf("-inject %d: must be below -slots %d to plant a divergence in the searched range", *inject, *slots))
	}

	build := func(eng cfm.Engine) *cfm.FlightRecorder {
		cs := cfm.NewConventional(cfg)
		rec := cfm.NewFlightRecorder(cfm.DefaultFlightLimit)
		cs.RecordFlight(rec)
		eng.Register(cs)
		// The recorder rides the checkpoint, so a restore rewinds the
		// span stream along with the simulation.
		eng.AttachState("flight", rec)
		return rec
	}
	a := cfm.NewClock()
	recA := build(a)
	b := cfm.NewParallelClock(*bWorkers)
	b.SetSkipAhead(*bSkip)
	recB := build(b)
	if *inject >= 0 {
		at := cfm.Slot(*inject)
		b.Register(&cfm.FuncTicker{
			OnTick: func(t cfm.Slot, ph cfm.Phase) {
				if ph == cfm.PhaseIssue && t == at {
					recB.Append(cfm.FlightEvent{
						ID: cfm.FlightComposeID(999, t), Slot: t,
						Stage: cfm.StageIssue, Actor: 999,
					})
				}
			},
			NextEvent: func(now cfm.Slot) cfm.Slot {
				if now <= at {
					return at
				}
				return cfm.HorizonNone
			},
		})
	}

	recOf := map[cfm.Engine]*cfm.FlightRecorder{a: recA, b: recB}
	digest := func(e cfm.Engine) string {
		return fmt.Sprintf("%016x", recOf[e].Digest())
	}
	fmt.Printf("bisect — conventional 8p/8m, A serial/dense vs B (parallel=%v skip-ahead=%v), %d slots\n\n",
		*bWorkers != 1, *bSkip, *slots)
	res, err := cfm.BisectEngines(a, b, digest, cfm.Slot(*slots))
	if errors.Is(err, cfm.ErrNoDivergence) {
		fmt.Printf("no divergence: span digests agree through slot %d (%s)\n", *slots, digest(a))
		fmt.Println("(the engine equivalence guarantee at work — use -inject to plant one)")
		return
	}
	fail(err)
	for _, p := range res.Probes {
		verdict := "equal"
		if !p.Equal {
			verdict = "DIVERGED"
		}
		fmt.Printf("  probe slot %6d  %s\n", p.Slot, verdict)
	}
	fmt.Printf("\nfirst divergent slot: %d\n", res.First)
	fmt.Printf("  digest A %s\n  digest B %s\n", res.DigestA, res.DigestB)
	fmt.Printf("%d probes, %d restores (2 per probe; log2(%d) ≈ %.1f)\n",
		len(res.Probes), res.Restores, *slots, math.Log2(float64(*slots)))
	dump := func(name string, rec *cfm.FlightRecorder) {
		fmt.Printf("\nflight window ±%d slots around the divergence, engine %s:\n", *window, name)
		win := cfm.FlightWindow(rec.Events(), res.First, cfm.Slot(*window))
		if len(win) == 0 {
			fmt.Println("  (no span events in the window)")
		}
		for _, ev := range win {
			fmt.Println(" ", ev)
		}
	}
	dump("A", recA)
	dump("B", recB)
}
