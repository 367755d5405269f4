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
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/checkpoint"
	"repro/internal/experiments"
	"repro/internal/experiments/cliconfig"
	"repro/internal/supervisor"
)

// stopCheck adapts a signal channel to a between-points poll: once a signal
// arrives every later call reports true, so the current measurement point
// finishes, partial results are flushed, and the process exits 130.
func stopCheck(ch <-chan os.Signal) func() bool {
	fired := false
	return func() bool {
		if fired {
			return true
		}
		select {
		case sig := <-ch:
			fired = true
			fmt.Fprintf(os.Stderr, "bwsweep: %v: finishing current point, flushing partial results\n", sig)
		default:
		}
		return fired
	}
}

func main() {
	figure := flag.Int("figure", 3, "paper figure to regenerate (3, 4 or 5)")
	requests := cliconfig.AddRequests(flag.CommandLine, 4000, "requests per measurement point")
	ablation := flag.String("ablation", "", "run a design ablation instead: pagepolicy, mapping, scheduler, writedrain, xaw, refresh, xorhash, prefetch, all")
	jsonOut := flag.String("json", "", "write the sweep result as JSON to this file (atomic temp+rename)")
	standard := cliconfig.AddStandard(flag.CommandLine)
	channels := cliconfig.AddChannels(flag.CommandLine)
	flag.Parse()

	notify, stopNotify := supervisor.NotifySignals()
	defer stopNotify()
	stop := stopCheck(notify)

	if *ablation != "" {
		interrupted, err := runAblation(*ablation, *requests, stop)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bwsweep:", err)
			os.Exit(1)
		}
		if interrupted {
			os.Exit(130)
		}
		return
	}

	var spec experiments.SweepSpec
	switch *figure {
	case 3:
		spec = experiments.Fig3Spec(*requests)
	case 4:
		spec = experiments.Fig4Spec(*requests)
	case 5:
		spec = experiments.Fig5Spec(*requests)
	default:
		fmt.Fprintf(os.Stderr, "bwsweep: figure %d not a bandwidth sweep (want 3, 4 or 5)\n", *figure)
		os.Exit(1)
	}
	spec.Stop = stop
	if err := cliconfig.ResolveStandard(*standard, &spec.Spec); err != nil {
		fmt.Fprintln(os.Stderr, "bwsweep:", err)
		os.Exit(1)
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

	var res *experiments.SweepResult
	var err error
	if *channels > 1 {
		res, err = experiments.RunSweepMultiChannel(spec, *channels)
	} else {
		res, err = experiments.RunSweep(spec)
	}
	interrupted := errors.Is(err, experiments.ErrInterrupted)
	if err != nil && !interrupted {
		fmt.Fprintln(os.Stderr, "bwsweep:", err)
		os.Exit(1)
	}
	if interrupted {
		fmt.Printf("interrupted; partial results (%d of %d points):\n",
			len(res.Rows), len(spec.Strides)*len(spec.Banks))
	}

	// The JSON result is written atomically (temp+rename, the checkpoint
	// files' pattern), so a crash mid-write can never leave a torn file.
	if *jsonOut != "" {
		enc, err := experiments.EncodeResultJSON(experiments.NewSweepJSON(res, interrupted))
		if err == nil {
			err = checkpoint.WriteFileAtomic(*jsonOut, enc)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bwsweep:", err)
			os.Exit(1)
		}
		fmt.Printf("result written to %s\n", *jsonOut)
	}

	fmt.Printf("%s\n", spec.Name)
	fmt.Printf("memory: %s, mapping: %s, page: %s, reads: %d%%, %d requests/point\n",
		spec.Spec.Name, spec.Mapping, pageName(spec.ClosedPage), spec.ReadPct, spec.Requests)
	if *channels > 1 {
		fmt.Printf("interleaved over %d channels (per-channel average utilisation)\n", *channels)
	}
	fmt.Println()
	fmt.Printf("%-8s", "stride")
	for _, b := range spec.Banks {
		fmt.Printf("  %13s", fmt.Sprintf("banks=%d ev/cy", b))
	}
	fmt.Println()
	for _, stride := range spec.Strides {
		fmt.Printf("%-8d", stride)
		for _, b := range spec.Banks {
			for _, row := range res.Rows {
				if row.StrideBursts == stride && row.Banks == b {
					fmt.Printf("  %6.3f/%6.3f", row.EventUtil, row.CycleUtil)
				}
			}
		}
		fmt.Println()
	}
	if interrupted {
		os.Exit(130)
	}
}

func pageName(closed bool) string {
	if closed {
		return "closed"
	}
	return "open"
}

// ablationRunners maps ablation names to their study functions, in the
// order "all" runs them.
var ablationRunners = []struct {
	name string
	run  func(uint64) (*experiments.AblationResult, error)
}{
	{"pagepolicy", experiments.PagePolicyAblation},
	{"mapping", experiments.MappingAblation},
	{"scheduler", experiments.SchedulerAblation},
	{"writedrain", experiments.WriteDrainAblation},
	{"xaw", experiments.ActivationWindowAblation},
	{"refresh", experiments.RefreshAblation},
	{"xorhash", experiments.XORHashAblation},
	{"prefetch", experiments.PrefetchAblation},
}

// runAblation runs one named ablation, or all of them with a stop check
// between studies so SIGINT flushes completed ablations instead of
// discarding them.
func runAblation(name string, requests uint64, stop func() bool) (interrupted bool, err error) {
	var results []*experiments.AblationResult
	runOne := func(run func(uint64) (*experiments.AblationResult, error)) error {
		r, err := run(requests)
		if err != nil {
			return err
		}
		results = append(results, r)
		return nil
	}
	if name == "all" {
		for _, a := range ablationRunners {
			if stop != nil && stop() {
				interrupted = true
				break
			}
			if err := runOne(a.run); err != nil {
				return false, err
			}
		}
	} else {
		found := false
		for _, a := range ablationRunners {
			if a.name == name {
				found = true
				if err := runOne(a.run); err != nil {
					return false, err
				}
				break
			}
		}
		if !found {
			return false, fmt.Errorf("unknown ablation %q", name)
		}
	}
	if interrupted {
		fmt.Printf("interrupted; partial results (%d of %d ablations):\n",
			len(results), len(ablationRunners))
	}
	for _, res := range results {
		fmt.Printf("\nAblation: %s (workload: %s)\n", res.Name, res.Workload)
		fmt.Printf("%-20s %10s %14s %12s %12s\n", "config", "bus util", "read lat (ns)", "p99 (ns)", "row hits")
		for _, row := range res.Rows {
			p99 := "-"
			if row.P99Ns > 0 {
				p99 = fmt.Sprintf("%.1f", row.P99Ns)
			}
			fmt.Printf("%-20s %10.3f %14.1f %12s %12.3f\n",
				row.Config, row.BusUtil, row.AvgReadLatNs, p99, row.RowHitRate)
		}
	}
	return interrupted, nil
}
