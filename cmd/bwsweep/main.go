// Command bwsweep regenerates the paper's bandwidth sweeps (Figures 3-5):
// data bus utilisation as a function of sequential stride size and the
// number of banks targeted, for the event-based controller and the
// cycle-based (DRAMSim2-style) baseline side by side.
//
// Usage:
//
//	bwsweep -figure 3            # open page, 100% reads (Fig. 3)
//	bwsweep -figure 4            # open page, 1:1 mix    (Fig. 4)
//	bwsweep -figure 5            # closed page, writes   (Fig. 5)
//	bwsweep -ablation pagepolicy # design-choice studies
//	bwsweep -ablation all
package main

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/experiments"
	"repro/internal/experiments/cliconfig"
)

// stop is polled before every measurement point: main points it at
// SIGINT/SIGTERM, the tests at a counter.
var stop func() bool

func main() { cliconfig.Main("bwsweep", &stop, run) }

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bwsweep", flag.ContinueOnError)
	figure := fs.Int("figure", 3, "paper figure to regenerate (3, 4 or 5)")
	requests := cliconfig.AddCount(fs, "requests", experiments.SweepRequests, "requests per measurement point")
	ablation := fs.String("ablation", "", "run a design ablation instead: pagepolicy, mapping, scheduler, writedrain, xaw, refresh, xorhash, prefetch, all")
	jsonOut := fs.String("json", "", "write the sweep result as JSON to this file (atomic temp+rename)")
	standard := cliconfig.AddStandard(fs)
	channels := cliconfig.AddChannels(fs)
	if ok, err := cliconfig.Parse(fs, args); !ok {
		return err
	}
	runner := experiments.Runner{Stop: stop}

	if *ablation != "" {
		// The ablations fix their own device, topology and output: a sweep
		// flag set beside -ablation would be ignored, so it is refused.
		var ignored error
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "figure", "channels", "standard", "json":
				ignored = fmt.Errorf("-%s has no effect with -ablation", f.Name)
			}
		})
		if ignored != nil {
			return ignored
		}
		return runAblations(runner, *ablation, *requests, out)
	}

	spec, err := experiments.SpecForFigure(*figure, *requests)
	if err != nil {
		return err
	}
	spec.Channels = *channels
	if err := cliconfig.ResolveStandard(*standard, &spec.Spec); err != nil {
		return err
	}
	if *standard != "" {
		// The figure's stride axis was sized for DDR3's 128 bursts per row;
		// clamp it to the overriding device's row geometry.
		maxStride := uint64(spec.Spec.Org.RowBufferBytes) / uint64(spec.Spec.Org.BurstBytes())
		kept := spec.Strides[:0]
		for _, s := range spec.Strides {
			if s <= maxStride {
				kept = append(kept, s)
			}
		}
		spec.Strides = kept
	}

	res, err := runner.RunSweep(spec)
	if !cliconfig.Partial(out, err, "%d of %d points", len(res.Rows), len(spec.Strides)*len(spec.Banks)) {
		return err
	}
	partial := err != nil
	if err := cliconfig.WriteResultJSON(out, *jsonOut, experiments.NewSweepJSON(res, partial)); err != nil {
		return err
	}

	page := "open"
	if spec.ClosedPage {
		page = "closed"
	}
	fmt.Fprintf(out, "%s\n", spec.Name)
	fmt.Fprintf(out, "memory: %s, mapping: %s, page: %s, reads: %d%%, %d requests/point\n",
		spec.Spec.Name, spec.Mapping, page, spec.ReadPct, spec.Requests)
	if *channels > 1 {
		fmt.Fprintf(out, "interleaved over %d channels (per-channel average utilisation)\n", *channels)
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "%-8s", "stride")
	for _, b := range spec.Banks {
		fmt.Fprintf(out, "  %13s", fmt.Sprintf("banks=%d ev/cy", b))
	}
	fmt.Fprintln(out)
	for _, stride := range spec.Strides {
		fmt.Fprintf(out, "%-8d", stride)
		for _, b := range spec.Banks {
			for _, row := range res.Rows {
				if row.StrideBursts == stride && row.Banks == b {
					fmt.Fprintf(out, "  %6.3f/%6.3f", row.EventUtil, row.CycleUtil)
				}
			}
		}
		fmt.Fprintln(out)
	}
	return err
}

// runAblations runs one named ablation, or all of them, and prints every
// study that completed: an interrupt flushes the finished ones instead of
// discarding them.
func runAblations(runner experiments.Runner, name string, requests uint64, out io.Writer) error {
	results, err := runner.RunAblations(name, requests)
	if !cliconfig.Partial(out, err, "%d ablations", len(results)) {
		return err
	}
	for _, res := range results {
		fmt.Fprintf(out, "\nAblation: %s (workload: %s)\n", res.Name, res.Workload)
		fmt.Fprintf(out, "%-20s %10s %14s %12s %12s\n", "config", "bus util", "read lat (ns)", "p99 (ns)", "row hits")
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
