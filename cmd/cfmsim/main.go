// Command cfmsim drives the Conflict-Free Memory reproduction: each
// subcommand regenerates one table or figure of the dissertation.
//
// Usage:
//
//	cfmsim <command> [flags]
//
// Commands:
//
//	atspace       Table 3.1 / Fig 3.3: address path connection table
//	table3.3      Table 3.3: CFM configuration trade-off
//	table3.4      Table 3.4 / Fig 3.8: synchronous omega switch states
//	table3.5      Table 3.5: 64-bank partially synchronous configurations
//	timing        Fig 3.6: block read timing diagram
//	efficiency    Figs 3.13/3.14/3.15: analytic curves + simulation check
//	treesat       Fig 2.1: tree saturation sweep on a buffered MIN
//	headers       Figs 3.9/3.10: message header sizes
//	att           Figs 4.1/4.3: address tracking demonstrations
//	locktransfer  Fig 5.4: lock transfer walkthrough
//	latency       Tables 5.5/5.6: hierarchical read latencies vs DASH/KSR1
//	observe       instrumented run with bank-conflict / network heatmaps
//	waterfall     flight-recorder span timelines for one instrumented run
//	bisect        localize the first divergent slot between two engines
//
// The simulation-heavy commands accept the observability flags
// -metrics-out, -trace-out, -http, -sample, and -spans-out (see usage).
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"

	"cfm"
	"cfm/internal/analytic"
	"cfm/internal/core"
	"cfm/internal/obsflags"
	"cfm/internal/stats"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "atspace":
		cmdATSpace(args)
	case "table3.3":
		cmdTable33(args)
	case "table3.4":
		cmdTable34(args)
	case "table3.5":
		cmdTable35(args)
	case "timing":
		cmdTiming(args)
	case "efficiency":
		cmdEfficiency(args)
	case "treesat":
		cmdTreeSat(args)
	case "headers":
		cmdHeaders(args)
	case "att":
		cmdATT(args)
	case "locktransfer":
		cmdLockTransfer(args)
	case "latency":
		cmdLatency(args)
	case "alloc":
		cmdAlloc(args)
	case "sharing":
		cmdSharing(args)
	case "topology":
		cmdTopology(args)
	case "ordering":
		cmdOrdering(args)
	case "observe":
		cmdObserve(args)
	case "waterfall":
		cmdWaterfall(args)
	case "bisect":
		cmdBisect(args)
	default:
		fmt.Fprintf(os.Stderr, "cfmsim: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: cfmsim <command> [flags]

commands:
  atspace       Table 3.1 / Fig 3.3: address path connection table
  table3.3      Table 3.3: CFM configuration trade-off
  table3.4      Table 3.4 / Fig 3.8: synchronous omega switch states
  table3.5      Table 3.5: 64-bank partially synchronous configurations
  timing        Fig 3.6: block read timing diagram
  efficiency    Figs 3.13/3.14/3.15 (-fig 3.13|3.14|3.15)
  treesat       Fig 2.1: tree saturation sweep
  headers       Figs 3.9/3.10: message header sizes
  att           Figs 4.1/4.3 (-demo inconsistency|tracking)
  locktransfer  Fig 5.4: lock transfer walkthrough
  latency       Tables 5.5/5.6 (-config dash|ksr1)
  alloc         §7.2 processor allocation strategy comparison
  sharing       §7.2 slot-sharing factor sweep
  topology      §3.3 inter-cluster topology comparison
  ordering      §2.2 memory ordering disciplines vs the formal models
  observe       instrumented simulation: bank-conflict heatmap and
                network-occupancy view from the sampled time series
  waterfall     flight recorder: per-access span timelines with the
                queue/service/network latency decomposition
  bisect        binary-search the first slot at which two engine
                configurations diverge, via checkpoint/restore

simulation-heavy commands (efficiency, treesat, alloc, observe) accept
  -parallel         run on the parallel cycle engine (same results,
                    bit for bit, by the engine equivalence guarantee)
  -workers N        parallel engine workers (0 = auto: serial fallback
                    for small fleets, else GOMAXPROCS; <0 = GOMAXPROCS)
  -skip-ahead       event-horizon scheduling: jump the clock over slots
                    no component declared interest in (same results,
                    bit for bit; pays off on sparse/bursty workloads)
  -epoch-batch K    barrier episode length for the parallel engine:
                    0 = auto (fuse up to 16 slots per episode when every
                    component is epoch-safe), 1 = per-slot barriers,
                    K > 1 caps episodes at K slots (same results, bit
                    for bit)
  -workers and -epoch-batch need -parallel: without it the run is on
  one worker, and giving either is an error

observability flags (efficiency, treesat, alloc, observe):
  -metrics-out F    write metrics to F: *.jsonl gets the slot-sampled
                    time series, anything else the Prometheus exposition
  -trace-out F      write the event trace as JSONL (observe, att)
  -http ADDR        serve /metrics, /healthz, /statusz, /debug/vars and
                    /debug/pprof on ADDR (e.g. :8080) during the run
  -sample N         slots between time-series samples (default 1000)
  -spans-out F      write the flight recorder's access spans to F:
                    *.json gets Chrome trace-event JSON (open in
                    Perfetto / chrome://tracing), anything else JSONL
  -spans-limit N    flight recorder ring capacity in events`)
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

func cmdATSpace(args []string) {
	fs := flag.NewFlagSet("atspace", flag.ExitOnError)
	n := fs.Int("n", 4, "processors")
	c := fs.Int("c", 2, "bank cycle (CPU cycles)")
	fs.Parse(args)

	cfg := cfm.Config{Processors: *n, BankCycle: *c, WordWidth: 32}
	usageCheck(cfg.Validate())
	at := cfm.NewATSpace(cfg)
	fmt.Printf("Table 3.1 — address path connections (%v)\n\n", cfg)
	tb := &stats.Table{Header: []string{"slot"}}
	for b := 0; b < cfg.Banks(); b++ {
		tb.Header = append(tb.Header, fmt.Sprintf("B%d", b))
	}
	for slot, row := range at.ConnectionTable() {
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
	rows := cfm.Tradeoff(*block, *c)
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

	so, err := cfm.NewSyncOmega(*n)
	usageCheck(flagError("n", *n, err))
	fmt.Printf("Table 3.4 — states of switches in an %dx%d synchronous omega network\n\n", *n, *n)
	tb := &stats.Table{Header: []string{"slot"}}
	for col := 0; col < so.Columns(); col++ {
		for sw := 0; sw < *n/2; sw++ {
			tb.Header = append(tb.Header, fmt.Sprintf("c%d.s%d", col, sw))
		}
	}
	for t := 0; t < *n; t++ {
		cells := []any{fmt.Sprintf("Slot %d", t)}
		for _, col := range so.States(int64(t)) {
			for _, st := range col {
				cells = append(cells, st.String())
			}
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
	po0, err := cfm.NewPartialOmega(*banks, 0)
	usageCheck(flagError("banks", *banks, err))

	fmt.Printf("Table 3.5 — configurations of a %d-bank multiprocessor\n\n", *banks)
	tb := &stats.Table{Header: []string{"Module", "Bank", "Block size", "Circuit-switching", "Clock-driven", "Remark"}}
	cols := po0.ClockColumns()
	for cc := 0; cc <= cols; cc++ {
		po, _ := cfm.NewPartialOmega(*banks, cc)
		remark := ""
		switch {
		case cc == 0:
			remark = "CFM"
		case cc == cols:
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
	n := fs.Int("n", 4, "processors")
	c := fs.Int("c", 2, "bank cycle")
	p := fs.Int("p", 0, "issuing processor")
	slot := fs.Int("slot", 0, "issue slot")
	fs.Parse(args)

	cfg := cfm.Config{Processors: *n, BankCycle: *c, WordWidth: 32}
	usageCheck(cfg.Validate())
	if *p < 0 || *p >= *n {
		usageCheck(fmt.Errorf("-p %d: processor out of range [0,%d)", *p, *n))
	}
	fmt.Printf("Fig 3.6 — timing diagram of a block read (%v)\n\n", cfg)
	fmt.Print(cfm.NewATSpace(cfg).RenderTiming(cfm.Slot(*slot), *p))
}

func cmdEfficiency(args []string) {
	fs := flag.NewFlagSet("efficiency", flag.ExitOnError)
	fig := fs.String("fig", "3.13", "which figure: 3.13, 3.14, or 3.15")
	steps := fs.Int("steps", 12, "rate sweep steps")
	simulate := fs.Bool("sim", true, "cross-check with discrete-event simulation")
	slots := fs.Int64("slots", 300000, "simulation slots per point")
	obs := obsflags.Flags(fs)
	fs.Parse(args)
	usageCheck(atLeast("steps", int64(*steps), 1), atLeast("slots", *slots, 1))
	openObservatory(obs, false)

	var series []cfm.Series
	switch *fig {
	case "3.13":
		series = cfm.Fig313(*steps)
	case "3.14":
		series = cfm.Fig314(*steps)
	case "3.15":
		series = cfm.Fig315(*steps)
	default:
		fmt.Fprintf(os.Stderr, "cfmsim: unknown figure %q\n", *fig)
		os.Exit(2)
	}
	fmt.Printf("Fig %s — memory access efficiency (analytic model, §3.4)\n\n", *fig)
	var plots []stats.PlotSeries
	tb := &stats.Table{Header: []string{"r"}}
	for _, s := range series {
		tb.Header = append(tb.Header, s.Label)
	}
	for i := range series[0].Points {
		cells := []any{stats.FormatFloat(series[0].Points[i].Rate)}
		for _, s := range series {
			cells = append(cells, s.Points[i].Efficiency)
		}
		tb.AddRow(cells...)
	}
	for _, s := range series {
		ps := stats.PlotSeries{Label: s.Label}
		for _, p := range s.Points {
			ps.X = append(ps.X, p.Rate)
			ps.Y = append(ps.Y, p.Efficiency)
		}
		plots = append(plots, ps)
	}
	fmt.Print(tb)
	fmt.Println()
	fmt.Print(stats.Plot(64, 16, plots))

	if *simulate {
		fmt.Println("\ndiscrete-event simulation cross-check:")
		simEfficiency(*fig, *slots, obs.NewEngine, obs)
	}
	closeObservatory(obs)
}

// simEfficiency runs the matching simulators at a few anchor rates.
// newEngine builds a fresh cycle engine per point (one worker or a
// pool, per the -parallel/-workers flags; the results are identical
// either way by the engine equivalence guarantee). Every run carries a
// flight recorder, so after the efficiency cross-check it prints the paper's
// central claim in queueing terms: the decomposition of each design's
// access latency into queue + service + network (§3.4 — the
// conflict-free queue term stays flat while the conventional one grows
// with the access rate).
func simEfficiency(fig string, slots int64, newEngine func() cfm.Engine, obs *obsflags.Observatory) {
	rates := []float64{0.01, 0.03, 0.05}
	tb := &stats.Table{Header: []string{"r", "simulated", "analytic", "system"}}
	type decompRow struct {
		system string
		r      float64
		att    cfm.FlightAttribution
	}
	var decomp []decompRow
	// attribute decomposes one run's span stream and, when -spans-out is
	// open, forwards the events to the export ring.
	attribute := func(system string, r float64, rec *cfm.FlightRecorder) {
		events := rec.Events()
		if obs.Flight != nil {
			for _, ev := range events {
				obs.Flight.Append(ev)
			}
		}
		decomp = append(decomp, decompRow{system, r, cfm.AttributeFlight(events)})
	}
	runConventional := func(r float64) *cfm.Conventional {
		cs := cfm.NewConventional(cfm.ConventionalConfig{
			Processors: 8, Modules: 8, BlockTime: 17,
			AccessRate: r, RetryMean: 8, Seed: 11,
		})
		cs.Instrument(obs.Reg)
		rec := cfm.NewFlightRecorder(obs.SpansLimit)
		cs.RecordFlight(rec)
		clk := newEngine()
		clk.Register(cs)
		obs.Attach(clk)
		clk.Run(slots)
		attribute("conventional 8p/8m", r, rec)
		return cs
	}
	runPartial := func(n, m int, lam, r float64) *cfm.Partial {
		p := cfm.NewPartial(core.PartialConfig{
			Processors: n, Modules: m, BlockWords: 16, BankCycle: 2,
			Locality: lam, AccessRate: r, RetryMean: 8, Seed: 11,
		})
		p.Instrument(obs.Reg)
		rec := cfm.NewFlightRecorder(obs.SpansLimit)
		p.RecordFlight(rec)
		clk := newEngine()
		clk.Register(p)
		obs.Attach(clk)
		clk.Run(slots)
		attribute(fmt.Sprintf("partial CFM %dp λ=%.1f", n, lam), r, rec)
		return p
	}
	switch fig {
	case "3.13":
		model := analytic.ConventionalModel{Processors: 8, Modules: 8, BlockTime: 17}
		for _, r := range rates {
			cs := runConventional(r)
			tb.AddRow(stats.FormatFloat(r), cs.Efficiency(), model.Efficiency(r), "conventional 8p/8m")
		}
		// A conflict-free reference at the same rates, so the
		// decomposition table holds both designs.
		for _, r := range rates {
			runPartial(64, 8, 0.9, r)
		}
	case "3.14", "3.15":
		n, m := 64, 8
		if fig == "3.15" {
			n, m = 128, 16
		}
		model := analytic.PartialModel{Processors: n, Modules: m, BlockTime: 17}
		for _, lam := range []float64{0.9, 0.5} {
			for _, r := range rates {
				p := runPartial(n, m, lam, r)
				tb.AddRow(stats.FormatFloat(r), p.Efficiency(), model.Efficiency(r, lam),
					fmt.Sprintf("partial CFM λ=%.1f", lam))
			}
		}
		// The conventional baseline at the same rates, for the
		// decomposition comparison.
		for _, r := range rates {
			runConventional(r)
		}
	}
	fmt.Print(tb)

	fmt.Println("\nqueueing-delay decomposition (flight recorder, complete spans):")
	dt := &stats.Table{Header: []string{"system", "r", "spans",
		"queue p50/p95/p99", "queue mean", "service p50", "network p50", "total p95"}}
	for _, d := range decomp {
		dt.AddRow(d.system, stats.FormatFloat(d.r), d.att.Spans,
			fmt.Sprintf("%d/%d/%d", d.att.Queue.P50, d.att.Queue.P95, d.att.Queue.P99),
			fmt.Sprintf("%.2f", d.att.Queue.Mean),
			d.att.Service.P50, d.att.Network.P50, d.att.Total.P95)
	}
	fmt.Print(dt)
	fmt.Println("the conflict-free design's queue term stays flat as r grows;")
	fmt.Println("the conventional design's queue term is the §3.4 degradation.")
}

// openObservatory opens the -metrics-out/-trace-out/-http observatory,
// exiting on a bad flag combination (e.g. an unbindable -http address).
func openObservatory(obs *obsflags.Observatory, force bool) {
	usageCheck(obs.Validate())
	if err := obs.Open(force); err != nil {
		fmt.Fprintln(os.Stderr, "cfmsim:", err)
		os.Exit(1)
	}
}

// closeObservatory flushes the observatory's output files.
func closeObservatory(obs *obsflags.Observatory) {
	if err := obs.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "cfmsim:", err)
		os.Exit(1)
	}
}

func cmdTreeSat(args []string) {
	fs := flag.NewFlagSet("treesat", flag.ExitOnError)
	n := fs.Int("n", 16, "terminals")
	rate := fs.Float64("rate", 0.1, "injection rate")
	slots := fs.Int64("slots", 30000, "simulation slots")
	obs := obsflags.Flags(fs)
	fs.Parse(args)
	netCfg := cfm.BufferedConfig{Terminals: *n, QueueCap: 4, ServiceTime: 2, Rate: *rate, Seed: 7}
	usageCheck(netCfg.Validate(), atLeast("slots", *slots, 1))
	openObservatory(obs, false)

	fmt.Printf("Fig 2.1 — tree saturation from a hot spot (%dx%d buffered omega, rate %.2f)\n\n", *n, *n, *rate)
	tb := &stats.Table{Header: []string{"hot-spot fraction", "bg latency", "hot latency", "full queues/col", "backlog"}}
	for _, hot := range []float64{0, 0.05, 0.1, 0.2, 0.3, 0.4} {
		c := netCfg
		c.HotFraction = hot
		b := cfm.NewBufferedOmega(c)
		b.Instrument(obs.Reg)
		b.RecordFlight(obs.Flight)
		clk := obs.NewEngine()
		clk.Register(b)
		obs.Attach(clk)
		clk.Run(*slots)
		tb.AddRow(hot, b.MeanLatencyBg(), b.MeanLatencyHot(),
			fmt.Sprint(b.FullQueues()), b.QueuedPackets())
	}
	fmt.Print(tb)
	fmt.Println("\nthe CFM eliminates the effect: every access costs β regardless of pattern.")
	closeObservatory(obs)
}

func cmdHeaders(args []string) {
	fs := flag.NewFlagSet("headers", flag.ExitOnError)
	banks := fs.Int("banks", 8, "banks (power of two)")
	words := fs.Int("words", 1024, "words per bank (offset space)")
	fs.Parse(args)
	po0, err := cfm.NewPartialOmega(*banks, 0)
	usageCheck(flagError("banks", *banks, err), atLeast("words", int64(*words), 1))

	fmt.Printf("Figs 3.9/3.10 — message headers of memory access requests (%d banks, %d offsets)\n\n", *banks, *words)
	tb := &stats.Table{Header: []string{"network", "module bits", "offset bits", "total"}}
	for cc := 0; cc <= po0.ClockColumns(); cc++ {
		po, _ := cfm.NewPartialOmega(*banks, cc)
		h := po.RequestHeader(*words)
		name := fmt.Sprintf("partial (%d modules)", po.Modules())
		if cc == 0 {
			name = "synchronous (CFM)"
		} else if po.BanksPerModule() == 1 {
			name = "circuit-switching"
		}
		tb.AddRow(name, h.ModuleBits, h.OffsetBits, h.Bits())
	}
	fmt.Print(tb)
}

func cmdATT(args []string) {
	fs := flag.NewFlagSet("att", flag.ExitOnError)
	demo := fs.String("demo", "inconsistency", "inconsistency | tracking")
	traceOut := fs.String("trace-out", "", "write the event trace to this file as JSONL")
	fs.Parse(args)

	switch *demo {
	case "inconsistency":
		fmt.Println("Fig 4.1 — inconsistency WITHOUT address tracking:")
		fmt.Println("P0 writes '1 2 3 4' and P1 writes '11 12 13 14' to the same block at slot 0.")
		mem := cfm.NewMemory(cfm.Config{Processors: 4, BankCycle: 1, WordWidth: 64}, nil)
		clk := cfm.NewClock()
		clk.Register(mem)
		mem.StartWrite(0, 0, 0, cfm.Block{1, 2, 3, 4}, nil)
		mem.StartWrite(0, 1, 0, cfm.Block{11, 12, 13, 14}, nil)
		clk.Run(10)
		fmt.Printf("final block: %v  ← torn between the two writers\n\n", mem.PeekBlock(0))
		fallthrough
	case "tracking":
		fmt.Println("Fig 4.3 — the same conflict WITH address tracking:")
		trace := cfm.NewTrace()
		tr := cfm.NewTracked(4, cfm.LatestWins, trace)
		clk := cfm.NewClock()
		clk.Register(tr)
		tr.StartWrite(0, 0, 0, cfm.Block{1, 2, 3, 4}, nil)
		tr.StartWrite(0, 1, 0, cfm.Block{11, 12, 13, 14}, nil)
		clk.Run(12)
		fmt.Printf("final block: %v  ← exactly one writer completed\n", tr.PeekBlock(0))
		fmt.Println("\nevent trace:")
		for _, e := range trace.Events() {
			fmt.Println(" ", e)
		}
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err == nil {
				err = cfm.WriteTraceJSONL(f, trace)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "cfmsim:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote trace to %s\n", *traceOut)
		}
	default:
		fmt.Fprintf(os.Stderr, "cfmsim: unknown demo %q\n", *demo)
		os.Exit(2)
	}
}

func cmdLockTransfer(args []string) {
	fs := flag.NewFlagSet("locktransfer", flag.ExitOnError)
	n := fs.Int("n", 4, "processors")
	fs.Parse(args)
	cacheCfg := cfm.CacheConfig{Processors: *n, Lines: 4, RetryDelay: 1}
	usageCheck(cacheCfg.Validate())

	proto := cfm.NewCacheProtocol(cacheCfg, nil)
	lock := cfm.NewLocker(proto, 0)
	clk := cfm.NewClock()
	clk.Register(lock)
	clk.Register(proto)

	lock.Request(0)
	clk.RunUntil(func() bool { return lock.Holding(0) }, 1000)
	lock.Request(1)
	if *n > 3 {
		lock.Request(3)
	}
	clk.Run(120)
	release := clk.Now()
	lock.Release(0)
	clk.RunUntil(func() bool { return lock.Holding(1) || (*n > 3 && lock.Holding(3)) }, 2000)
	transfer := clk.Now() - release
	fmt.Printf("Fig 5.4 — lock transfer on a %d-processor CFM cache protocol\n\n", *n)
	fmt.Printf("transfer took %d slots ≈ %.1f block accesses of %d slots each\n",
		transfer, float64(transfer)/float64(*n), *n)
	fmt.Println("(the dissertation predicts ≈3 accesses: write-back, read, read-invalidate)")
}

func cmdLatency(args []string) {
	fs := flag.NewFlagSet("latency", flag.ExitOnError)
	config := fs.String("config", "dash", "dash (Table 5.5) | ksr1 (Table 5.6)")
	fs.Parse(args)

	var rows []cfm.ComparisonRow
	var title, other string
	switch *config {
	case "dash":
		rows = cfm.Table55()
		title = "Table 5.5 — read latency of CFM and DASH (16 processors, 4 clusters, 16-byte lines)"
		other = "DASH"
	case "ksr1":
		rows = cfm.Table56()
		title = "Table 5.6 — read latency of CFM and KSR1 (1024 processors, 32 clusters, 128-byte lines)"
		other = "KSR1"
	default:
		fmt.Fprintf(os.Stderr, "cfmsim: unknown config %q\n", *config)
		os.Exit(2)
	}
	fmt.Println(title)
	fmt.Println()
	tb := &stats.Table{Header: []string{"Read Accesses", "CFM", other}}
	for _, r := range rows {
		tb.AddRow(r.Access, fmt.Sprintf("%d cycles", r.CFM), fmt.Sprintf("%d cycles", r.Other))
	}
	fmt.Print(tb)

	// Cross-check the model against the two-level protocol simulator.
	fmt.Println("\nsimulated on the two-level protocol engine:")
	var hc cfm.HierConfig
	if *config == "dash" {
		hc = cfm.HierConfig{Clusters: 4, ProcsPerCluster: 4, BankCycle: 2, L1Lines: 4, L2Lines: 8}
	} else {
		hc = cfm.HierConfig{Clusters: 4, ProcsPerCluster: 32, BankCycle: 2, L1Lines: 4, L2Lines: 8}
	}
	s := cfm.NewHierSystem(hc, nil)
	clk := cfm.NewClock()
	clk.Register(s)
	measure := func(f func(done func(cfm.Slot))) int {
		start := clk.Now()
		var at cfm.Slot = -1
		f(func(t cfm.Slot) { at = t })
		clk.RunUntil(s.Idle, 100000)
		return int(at - start)
	}
	// Global clean.
	global := measure(func(done func(cfm.Slot)) {
		s.Load(0, 0, 5, func(_ cfm.Block, t cfm.Slot) { done(t) })
	})
	// Local cluster (L2 now warm, different processor).
	local := measure(func(done func(cfm.Slot)) {
		s.Load(0, 1, 5, func(_ cfm.Block, t cfm.Slot) { done(t) })
	})
	fmt.Printf("  local cluster read:  %d cycles\n", local)
	fmt.Printf("  global memory read:  %d cycles\n", global)
	if *config == "dash" {
		s.Store(1, 2, 9, 0, 1, nil)
		clk.RunUntil(s.Idle, 100000)
		dirty := measure(func(done func(cfm.Slot)) {
			s.Load(0, 0, 9, func(_ cfm.Block, t cfm.Slot) { done(t) })
		})
		fmt.Printf("  dirty remote read:   %d cycles\n", dirty)
	}
}

func cmdAlloc(args []string) {
	fs := flag.NewFlagSet("alloc", flag.ExitOnError)
	slots := fs.Int64("slots", 100000, "simulation slots")
	obs := obsflags.Flags(fs)
	fs.Parse(args)
	usageCheck(atLeast("slots", *slots, 1))
	openObservatory(obs, false)

	cfg := core.PartialConfig{
		Processors: 32, Modules: 4, BlockWords: 16, BankCycle: 2,
		Locality: 0.9, AccessRate: 0.04, RetryMean: 4, Seed: 1,
	}
	jobs := make([]core.Job, 24)
	for i := range jobs {
		jobs[i] = core.Job{Home: i % 2}
	}
	fmt.Println("§7.2 — processor allocation on a 32-processor, 4-cluster partial CFM")
	fmt.Println("24 jobs with data on modules 0 and 1, λ = 0.9, r = 0.04")
	fmt.Println()
	tb := &stats.Table{Header: []string{"strategy", "placement locality", "efficiency", "retries"}}
	for _, st := range []struct {
		name  string
		place func() (core.Placement, error)
	}{
		{"affine", func() (core.Placement, error) { return core.AllocateAffine(cfg, jobs) }},
		{"scatter", func() (core.Placement, error) { return core.AllocateScatter(cfg, jobs) }},
		{"random", func() (core.Placement, error) { return core.AllocateRandom(cfg, jobs, cfm.NewRNG(7)) }},
	} {
		pl, err := st.place()
		if err != nil {
			fmt.Fprintln(os.Stderr, "cfmsim:", err)
			os.Exit(1)
		}
		c := cfg
		c.Homes = pl
		p := cfm.NewPartial(c)
		p.Instrument(obs.Reg)
		p.RecordFlight(obs.Flight)
		clk := obs.NewEngine()
		clk.Register(p)
		obs.Attach(clk)
		clk.Run(*slots)
		tb.AddRow(st.name, pl.LocalityOf(cfg), p.Efficiency(), p.Retries)
	}
	fmt.Print(tb)
	closeObservatory(obs)
}

func cmdSharing(args []string) {
	fs := flag.NewFlagSet("sharing", flag.ExitOnError)
	rate := fs.Float64("rate", 0.02, "per-processor access rate")
	slots := fs.Int64("slots", 100000, "simulation slots")
	fs.Parse(args)
	usageCheck(atLeast("slots", *slots, 1))

	fmt.Println("§7.2 — slot sharing: processors per AT-space division")
	fmt.Printf("8 divisions, 16-word blocks, c=2, r=%.3f\n\n", *rate)
	tb := &stats.Table{Header: []string{"sharing", "processors", "efficiency", "utilization", "accesses/slot", "retries"}}
	for _, sharing := range []int{1, 2, 3, 4, 6, 8} {
		s := cfm.NewShared(cfm.SharedConfig{
			Divisions: 8, Sharing: sharing, BlockWords: 16, BankCycle: 2,
			AccessRate: *rate, RetryMean: 4, Seed: 1,
		})
		clk := cfm.NewClock()
		clk.Register(s)
		clk.Run(*slots)
		tb.AddRow(sharing, 8*sharing, s.Efficiency(), s.Utilization(), s.Throughput(), s.Retries)
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
	for _, topo := range []cfm.Topology{
		cfm.FullyConnected{N: 16},
		cfm.Hypercube{Dim: 4},
		cfm.Mesh2D{Rows: 4, Cols: 4},
		cfm.RingTopology{N: 16},
	} {
		mean := core.MeanHops(topo)
		tb.AddRow(topo.String(), core.Diameter(topo), mean, fmt.Sprintf("%.1f cycles", 2*3*mean))
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
	if err := obs.MaybeResume(clk); err != nil {
		fmt.Fprintln(os.Stderr, "cfmsim:", err)
		os.Exit(1)
	}
	// Run to the -slots target: a resumed run continues from its
	// checkpoint slot, so checkpointing at -slots S and resuming with
	// -slots T > S reproduces an uninterrupted T-slot run bit for bit.
	if left := *slots - int64(clk.Now()); left > 0 {
		clk.Run(left)
	}
	if err := obs.MaybeCheckpoint(clk); err != nil {
		fmt.Fprintln(os.Stderr, "cfmsim:", err)
		os.Exit(1)
	}

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
	closeObservatory(obs)
}

func cmdOrdering(args []string) {
	fs := flag.NewFlagSet("ordering", flag.ExitOnError)
	fs.Parse(args)

	fmt.Println("§2.2 — issue disciplines over the CFM cache protocol, checked")
	fmt.Println("against the formal consistency conditions")
	fmt.Println()
	tb := &stats.Table{Header: []string{"frontend", "SC", "PC", "WC", "RC"}}
	for _, mode := range []cfm.Ordering{cfm.StrictOrder, cfm.BufferedOrder, cfm.WeakOrder, cfm.ReleaseOrder} {
		proto := cfm.NewCacheProtocol(cfm.CacheConfig{Processors: 4, Lines: 8, RetryDelay: 1}, nil)
		clk := cfm.NewClock()
		fe := cfm.NewFrontend(proto, clk, 0, mode)
		clk.Register(fe)
		clk.Register(proto)
		for j := 0; j < 10; j++ {
			fe.Store(j%6, 0, cfm.Word(j))
			fe.Load((j+1)%6, 0, nil)
		}
		if mode == cfm.ReleaseOrder {
			// Exercise the acquire/release split so RC's extra freedom
			// (an acquire bypassing buffered stores) is visible.
			fe.Store(0, 0, 99)
			fe.Acquire(7)
		}
		clk.RunUntil(fe.Idle, 100000)
		exec := cfm.FrontendExecution(fe)
		row := []any{mode.String()}
		for _, m := range []cfm.ConsistencyModel{
			cfm.SequentialConsistency, cfm.ProcessorConsistency,
			cfm.WeakConsistency, cfm.ReleaseConsistency,
		} {
			if err := cfm.CheckConsistency(m, exec); err != nil {
				row = append(row, "violates")
			} else {
				row = append(row, "PASS")
			}
		}
		tb.AddRow(row...)
	}
	fmt.Print(tb)
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
	usageCheck(atLeast("slots", *slots, 1))
	openObservatory(obs, false)

	// The command needs a recorder whether or not -spans-out asked for
	// an export file.
	rec := obs.Flight
	if rec == nil {
		rec = cfm.NewFlightRecorder(obs.SpansLimit)
	}
	clk := obs.NewEngine()
	var label string
	switch *sys {
	case "conventional":
		cs := cfm.NewConventional(cfm.ConventionalConfig{
			Processors: 16, Modules: 8, BlockTime: 17,
			AccessRate: *rate, RetryMean: 8, Seed: 11,
		})
		cs.Instrument(obs.Reg)
		cs.RecordFlight(rec)
		clk.Register(cs)
		label = "conventional 16p/8m"
	case "partial":
		p := cfm.NewPartial(core.PartialConfig{
			Processors: 64, Modules: 8, BlockWords: 16, BankCycle: 2,
			Locality: 0.9, AccessRate: *rate, RetryMean: 8, Seed: 11,
		})
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
	default:
		fmt.Fprintf(os.Stderr, "cfmsim: unknown system %q\n", *sys)
		os.Exit(2)
	}
	obs.Attach(clk)
	clk.Run(*slots)

	events := rec.Events()
	fmt.Printf("flight waterfall — %s, %d slots, %d span events (%d dropped by the ring)\n\n",
		label, *slots, len(events), rec.Dropped())
	if *id != "" {
		v, err := strconv.ParseUint(*id, 16, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cfmsim: bad span id %q: %v\n", *id, err)
			os.Exit(2)
		}
		fmt.Print(cfm.FlightWaterfall(events, v))
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
	closeObservatory(obs)
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
	bParallel := fs.Bool("b-parallel", false, "run engine B on the parallel cycle engine")
	bWorkers := fs.Int("b-workers", 0, "engine B worker count (0 = auto; <0 = GOMAXPROCS)")
	bSkip := fs.Bool("b-skip-ahead", true, "run engine B with event-horizon skip-ahead")
	inject := fs.Int64("inject", -1, "inject a synthetic divergence into engine B at this slot (-1: none)")
	window := fs.Int64("window", 4, "flight window radius (slots) dumped around the divergence")
	fs.Parse(args)
	usageCheck(atLeast("slots", *slots, 1))

	build := func(eng cfm.Engine) *cfm.FlightRecorder {
		cs := cfm.NewConventional(cfm.ConventionalConfig{
			Processors: 8, Modules: 8, BlockTime: 17,
			AccessRate: *rate, RetryMean: 8, Seed: 11,
		})
		rec := cfm.NewFlightRecorder(cfm.DefaultFlightLimit)
		cs.RecordFlight(rec)
		eng.Register(cs)
		// The recorder rides the checkpoint, so a restore rewinds the
		// span stream along with the simulation.
		eng.AttachState("flight", rec)
		return rec
	}
	a := cfm.NewEngine(false, 0)
	recA := build(a)
	b := cfm.NewEngine(*bParallel, *bWorkers)
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
		*bParallel, *bSkip, *slots)
	res, err := cfm.BisectEngines(a, b, digest, cfm.Slot(*slots))
	if errors.Is(err, cfm.ErrNoDivergence) {
		fmt.Printf("no divergence: span digests agree through slot %d (%s)\n", *slots, digest(a))
		fmt.Println("(the engine equivalence guarantee at work — use -inject to plant one)")
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cfmsim:", err)
		os.Exit(1)
	}
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
