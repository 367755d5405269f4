// Package paper is the paper command: it parses one study's flags, runs the
// study by experiments.Runner and prints it. A flag the study does not read is
// refused, not ignored.
package paper

import (
	"flag"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"repro/internal/dram"
	"repro/internal/experiments"
	"repro/internal/experiments/cliconfig"
)

// opts is the parsed flag set. n is -requests or -memops, whichever the study
// reads, else its default; device is -spec's preset, nil if not given.
type opts struct {
	figure, ablation, json string
	n                      uint64
	device                 *dram.Spec
	channels, cores        int
	bin                    float64
}

// study is what -figure or -ablation selects: the flags it reads, the default
// of its count, and how it runs and prints.
type study struct {
	flags string
	count uint64
	run   func(experiments.Runner, opts, io.Writer) error
}

// choices lists the figures in usage order (TestChoicesNameEveryFigure).
const choices = "3, 4, 5, 6, 7, 8, 9, power, savings, speedup"

var figures = map[string]study{
	"3":       {"figure requests spec channels json", experiments.SweepRequests, sweep(experiments.Fig3Spec)},
	"4":       {"figure requests spec channels json", experiments.SweepRequests, sweep(experiments.Fig4Spec)},
	"5":       {"figure requests spec channels json", experiments.SweepRequests, sweep(experiments.Fig5Spec)},
	"6":       {"figure requests spec bin", 20000, latency(experiments.Fig6Spec)},
	"7":       {"figure requests spec bin", 20000, latency(experiments.Fig7Spec)},
	"8":       {"figure memops", 5000, fig8},
	"9":       {"figure memops cores json", experiments.ExploreMemOps, fig9},
	"power":   {"figure requests", 5000, power},
	"savings": {"figure requests", 5000, savings},
	"speedup": {"figure requests spec", 100000, speedup},
}

// Run runs the study args select and prints it to out. stop, polled before
// every measurement point, is SIGINT/SIGTERM or a test's counter.
func Run(args []string, out io.Writer, stop func() bool) error {
	var o opts
	fs := flag.NewFlagSet("paper", flag.ContinueOnError)
	fs.StringVar(&o.figure, "figure", "", "study to regenerate: "+choices)
	fs.StringVar(&o.ablation, "ablation", "", "run a design ablation instead: pagepolicy, mapping, scheduler, writedrain, xaw, refresh, xorhash, prefetch, all")
	requests := cliconfig.AddCount(fs, "requests", 0, "requests per point, case or model run; each study has its own default")
	memOps := cliconfig.AddCount(fs, "memops", 0, "memory operations per core, -figure 8 and 9; each has its own default")
	fs.StringVar(&o.json, "json", "", "write the result as JSON to this file (atomic temp+rename)")
	fs.Func("spec", "run the study on this device instead of its own: a preset name or a standard ("+
		strings.Join(dram.Standards(), ", ")+")", func(name string) error {
		sp, err := dram.ByName(name)
		o.device = &sp
		return err
	})
	channels := cliconfig.AddChannels(fs)
	fs.Float64Var(&o.bin, "bin", 25, "histogram bin width for display (ns)")
	fs.IntVar(&o.cores, "cores", experiments.ExploreCores, "number of cores, -figure 9")
	if ok, err := cliconfig.Parse(fs, args); !ok {
		return err
	}

	st, with := study{"ablation requests", experiments.SweepRequests, ablations}, "-ablation"
	if o.ablation == "" {
		if o.figure == "" {
			return fmt.Errorf("need -figure (%s) or -ablation NAME", choices)
		}
		var ok bool
		if st, ok = figures[o.figure]; !ok {
			return fmt.Errorf("unknown figure %q (want %s)", o.figure, choices)
		}
		with = "-figure " + o.figure
	}
	var ignored error
	fs.Visit(func(f *flag.Flag) {
		if !slices.Contains(strings.Fields(st.flags), f.Name) {
			ignored = fmt.Errorf("-%s has no effect with %s", f.Name, with)
		}
	})
	if ignored != nil {
		return ignored
	}
	o.channels = *channels
	// The study reads one count; the other, set, was refused above.
	if o.n = max(*requests, *memOps); o.n == 0 {
		o.n = st.count
	}
	return st.run(experiments.Runner{Stop: stop}, o, out)
}

// sweep prints event/cycle bus utilisation per stride and bank count.
func sweep(figure func(uint64) experiments.SweepSpec) func(experiments.Runner, opts, io.Writer) error {
	return func(runner experiments.Runner, o opts, out io.Writer) error {
		spec := figure(o.n)
		spec.Channels = o.channels
		if o.device != nil {
			// Clamp the stride axis, sized for DDR3's 128 bursts, to this row.
			spec.Spec = *o.device
			maxStride := uint64(spec.Spec.Org.RowBufferBytes) / uint64(spec.Spec.Org.BurstBytes())
			spec.Strides = slices.DeleteFunc(spec.Strides, func(s uint64) bool { return s > maxStride })
		}
		res, err := runner.RunSweep(spec)
		if !cliconfig.Partial(out, err, "%d of %d points", len(res.Rows), len(spec.Strides)*len(spec.Banks)) {
			return err
		}
		if jerr := cliconfig.WriteResultJSON(out, o.json, experiments.NewSweepJSON(res, err != nil)); jerr != nil {
			return jerr
		}
		page := map[bool]string{false: "open", true: "closed"}[spec.ClosedPage]
		fmt.Fprintf(out, "%s\nmemory: %s, mapping: %s, page: %s, reads: %d%%, %d requests/point\n",
			spec.Name, spec.Spec.Name, spec.Mapping, page, spec.ReadPct, spec.Requests)
		if o.channels > 1 {
			fmt.Fprintf(out, "interleaved over %d channels (per-channel average utilisation)\n", o.channels)
		}
		fmt.Fprintf(out, "\n%-8s", "stride")
		for _, b := range spec.Banks {
			fmt.Fprintf(out, "  %13s", fmt.Sprintf("banks=%d ev/cy", b))
		}
		for _, stride := range spec.Strides {
			fmt.Fprintf(out, "\n%-8d", stride)
			for _, b := range spec.Banks {
				for _, row := range res.Rows {
					if row.StrideBursts == stride && row.Banks == b {
						fmt.Fprintf(out, "  %6.3f/%6.3f", row.EventUtil, row.CycleUtil)
					}
				}
			}
		}
		fmt.Fprintln(out)
		return err
	}
}

// ablations prints every ablation that completed, one table each.
func ablations(runner experiments.Runner, o opts, out io.Writer) error {
	results, err := runner.RunAblations(o.ablation, o.n)
	if !cliconfig.Partial(out, err, "%d ablations", len(results)) {
		return err
	}
	for _, res := range results {
		fmt.Fprintf(out, "\nAblation: %s (workload: %s)\n%-20s %10s %14s %12s %12s\n", res.Name, res.Workload,
			"config", "bus util", "read lat (ns)", "p99 (ns)", "row hits")
		for _, row := range res.Rows {
			p99 := "-"
			if row.P99Ns > 0 {
				p99 = fmt.Sprintf("%.1f", row.P99Ns)
			}
			fmt.Fprintf(out, "%-20s %10.3f %14.1f %12s %12.3f\n",
				row.Config, row.BusUtil, row.AvgReadLatNs, p99, row.RowHitRate)
		}
	}
	return err
}

// latency prints both models' read latency histograms and their modes.
func latency(figure func(uint64) experiments.LatencySpec) func(experiments.Runner, opts, io.Writer) error {
	return func(runner experiments.Runner, o opts, out io.Writer) error {
		if o.bin <= 0 {
			return fmt.Errorf("-bin must be a positive width in ns, got %g", o.bin)
		}
		spec := figure(o.n)
		if o.device != nil {
			spec.Spec = *o.device
		}
		res, err := runner.RunLatency(spec)
		if !cliconfig.Partial(out, err, "the models that finished") {
			return err
		}
		fmt.Fprintf(out, "%s\nmemory: %s, mapping: %s, reads: %d%%, ITT: %s\n\n",
			spec.Name, spec.Spec.Name, spec.Mapping, spec.ReadPct, spec.InterTransaction)
		// An interrupted study has only the models that ran.
		if err == nil || res.Event.Samples > 0 {
			printHistogram(out, "event-based (this work)", res.Event, o.bin)
		}
		if err == nil {
			printHistogram(out, "cycle-based (DRAMSim2-style)", res.Cycle, o.bin)
		}
		return err
	}
}

func printHistogram(out io.Writer, name string, h experiments.HistogramSummary, binNs float64) {
	fmt.Fprintf(out, "%s:\n  samples %d  mean %.1f ns  p50 %.1f ns  p99 %.1f ns  stddev %.1f ns\n  modes (>=5%% share, %g ns bins): %v  bimodal: %v\n",
		name, h.Samples, h.MeanNs, h.P50Ns, h.P99Ns, h.StdDev, binNs, h.CoarseModes(binNs, 0.05), h.Bimodal(50))
	coarse := h.Coarse(binNs)
	maxCount := slices.Max(append(coarse, 0)) // 0: an empty histogram has no bars
	for b, c := range coarse {
		if c > 0 {
			fmt.Fprintf(out, "  %6.0f-%6.0f ns %7d %s\n",
				float64(b)*binNs, float64(b+1)*binNs, c, strings.Repeat("#", int(c*50/maxCount)))
		}
	}
	fmt.Fprintln(out)
}

// power prints both models' Micron-model power over the same traffic cases.
func power(runner experiments.Runner, o opts, out io.Writer) error {
	res, err := runner.RunPowerComparison(o.n)
	if !cliconfig.Partial(out, err, "%d cases", len(res.Rows)) {
		return err
	}
	fmt.Fprintf(out, "DRAM power comparison (§III-C3), Micron model, %d requests/case\n\n%-28s %12s %12s %12s %8s %8s\n",
		o.n, "case", "event (mW)", "cycle (mW)", "trace (mW)", "diff", "tr-diff")
	for _, row := range res.Rows {
		fmt.Fprintf(out, "%-28s %12.1f %12.1f %12.1f %7.1f%% %7.1f%%\n",
			row.Case, row.EventMW, row.CycleMW, row.TraceMW, row.DiffPercent, row.TraceDiffPct)
	}
	fmt.Fprintf(out, "\nmax difference: %.1f%%   average: %.1f%%   max trace-vs-aggregate: %.1f%%\n"+
		"(paper reports max 8%%, average 3%%; trace column is the DRAMPower-style\n"+
		" command-trace analysis of the event controller, via the obs hub)\n", res.MaxDiffPct, res.AvgDiffPct, res.MaxTraceDiffPct)
	return err
}

// savings prints one bursty stream under no low-power state, power-down, and
// power-down with self-refresh.
func savings(runner experiments.Runner, o opts, out io.Writer) error {
	res, err := runner.RunPowerSavings(o.n)
	if !cliconfig.Partial(out, err, "%d cases", len(res.Rows)) {
		return err
	}
	fmt.Fprintf(out, "DRAM low-power savings on bursty traffic, Micron model, %d requests/case\n\n%-20s %11s %11s %11s %8s %8s %7s %7s\n",
		o.n, "case", "active (mW)", "PD (mW)", "PD+SR (mW)", "PD save", "SR save", "PD res", "SR res")
	for _, row := range res.Rows {
		fmt.Fprintf(out, "%-20s %11.1f %11.1f %11.1f %7.1f%% %7.1f%% %6.1f%% %6.1f%%\n",
			row.Case, row.ActiveMW, row.PDMW, row.PDSRMW,
			row.PDSavePct, row.SRSavePct, row.PDResidency*100, row.SRResidency*100)
	}
	fmt.Fprint(out, "\n(power-down pays off within short gaps; self-refresh needs gaps long\n",
		" enough to absorb its tXS/tXSDLL exit cost — savings grow with gap length)\n")
	return err
}

// speedup prints both models' host time over identical request streams.
func speedup(runner experiments.Runner, o opts, out io.Writer) error {
	res, err := runner.RunSpeedup(o.n, o.device)
	if !cliconfig.Partial(out, err, "%d cases", len(res.Rows)) {
		return err
	}
	// Host ns per request beside each ratio says which model moved it.
	nsPerReq := func(host time.Duration) float64 { return float64(host.Nanoseconds()) / float64(o.n) }
	fmt.Fprintf(out, "Model performance (§III-D): %d requests per case\n\n%-26s %12s %12s %12s %12s %12s %12s %9s\n", o.n,
		"case", "event host", "cycle host", "event ns/req", "cycle ns/req", "event evts", "cycle evts", "speedup")
	for _, row := range res.Rows {
		fmt.Fprintf(out, "%-26s %12v %12v %12.1f %12.1f %12d %12d %8.2fx\n",
			row.Case, row.EventHost.Round(time.Microsecond), row.CycleHost.Round(time.Microsecond),
			nsPerReq(row.EventHost), nsPerReq(row.CycleHost), row.EventEvents, row.CycleEvents, row.Speedup)
	}
	fmt.Fprintf(out, "\naverage speedup: %.2fx   maximum: %.2fx\n"+
		"(paper reports 7x average / 10x max against DRAMSim2, and ~10x for a 16-channel HMC)\n", res.AvgSpeedup, res.MaxSpeedup)
	return err
}

// fig8 prints the full-system workloads' cycle / event ratios.
func fig8(runner experiments.Runner, o opts, out io.Writer) error {
	res, err := runner.RunFig8(o.n)
	if !cliconfig.Partial(out, err, "%d workloads", len(res.Rows)) {
		return err
	}
	fmt.Fprintf(out, "Full-system comparison (Figure 8): 4 cores, %d mem ops/core, DDR3, closed page\n"+
		"ratios are cycle-based / event-based; 1.00 = perfect correlation\n\n%-16s %10s %10s %12s %10s\n",
		o.n, "workload", "sim time", "IPC", "L2 miss lat", "bus util")
	for _, row := range res.Rows {
		fmt.Fprintf(out, "%-16s %9.2fx %10.2f %12.2f %10.2f\n",
			row.Workload, row.SimTimeRatio, row.IPCRatio, row.MissLatRatio, row.BusUtilRatio)
	}
	fmt.Fprintf(out, "\naverage simulation-time reduction from the event-based model: %.0f%%\n"+
		"(paper reports up to 20%%, 13%% on average, with metric ratios near 1)\n", res.AvgSimTimeReduction*100)
	return err
}

// fig9 prints each memory system's IPC, power and read-latency breakdown.
func fig9(runner experiments.Runner, o opts, out io.Writer) error {
	res, err := runner.RunFig9(o.n, o.cores)
	if !cliconfig.Partial(out, err, "%d of %d memory systems, IPC not normalised", len(res.Rows), experiments.NumExplorePoints()) {
		return err
	}
	if jerr := cliconfig.WriteResultJSON(out, o.json, experiments.NewFig9JSON(res, o.n, o.cores, err != nil)); jerr != nil {
		return jerr
	}
	fmt.Fprintf(out, "Memory technology exploration (Figure 9): %d-core canneal, shared 8 MB LLC\n"+
		"all three memory systems offer 12.8 GB/s aggregate (Table IV)\n\n%-8s %8s %9s %10s %9s %10s %10s\n",
		o.cores, "memory", "IPC", "IPC/DDR3", "rd lat ns", "row hits", "BW GB/s", "power mW")
	for _, row := range res.Rows {
		fmt.Fprintf(out, "%-8s %8.3f %9.2f %10.1f %9.3f %10.2f %10.1f\n",
			row.Name, row.IPC, row.NormIPC, row.AvgReadLatencyNs, row.RowHitRate, row.BandwidthGBs, row.PowerMW)
	}
	fmt.Fprintf(out, "\nread latency breakdown (ns):\n%-8s %8s %8s %8s %8s\n", "memory", "queue", "bank", "bus", "static")
	for _, row := range res.Rows {
		fmt.Fprintf(out, "%-8s %8.1f %8.1f %8.1f %8.1f\n", row.Name, row.QueueNs, row.BankNs, row.BusNs, row.StaticNs)
	}
	return err
}
