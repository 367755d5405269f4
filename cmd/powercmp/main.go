// Command powercmp regenerates the paper's §III-C3 power comparison: both
// controller models drive the same Micron power equations from their own
// activity statistics over a range of traffic cases; the paper reports a
// maximum difference of 8% and an average of 3%.
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

func main() { cliconfig.Main("powercmp", &stop, run) }

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("powercmp", flag.ContinueOnError)
	requests := cliconfig.AddCount(fs, "requests", 5000, "requests per test case")
	savings := fs.Bool("savings", false, "run the bursty-traffic low-power savings comparison instead")
	if ok, err := cliconfig.Parse(fs, args); !ok {
		return err
	}
	runner := experiments.Runner{Stop: stop}
	if *savings {
		return runSavings(runner, *requests, out)
	}
	res, err := runner.RunPowerComparison(*requests)
	if !cliconfig.Partial(out, err, "%d cases", len(res.Rows)) {
		return err
	}

	fmt.Fprintf(out, "DRAM power comparison (§III-C3), Micron model, %d requests/case\n\n", *requests)
	fmt.Fprintf(out, "%-28s %12s %12s %12s %8s %8s\n",
		"case", "event (mW)", "cycle (mW)", "trace (mW)", "diff", "tr-diff")
	for _, row := range res.Rows {
		fmt.Fprintf(out, "%-28s %12.1f %12.1f %12.1f %7.1f%% %7.1f%%\n",
			row.Case, row.EventMW, row.CycleMW, row.TraceMW, row.DiffPercent, row.TraceDiffPct)
	}
	fmt.Fprintf(out, "\nmax difference: %.1f%%   average: %.1f%%   max trace-vs-aggregate: %.1f%%\n",
		res.MaxDiffPct, res.AvgDiffPct, res.MaxTraceDiffPct)
	fmt.Fprintln(out, "(paper reports max 8%, average 3%; trace column is the DRAMPower-style")
	fmt.Fprintln(out, " command-trace analysis of the event controller, via the obs hub)")
	return err
}

// runSavings prints the bursty-traffic low-power savings table: the same
// request stream under no low-power states, power-down only, and power-down
// with self-refresh.
func runSavings(runner experiments.Runner, requests uint64, out io.Writer) error {
	res, err := runner.RunPowerSavings(requests)
	if !cliconfig.Partial(out, err, "%d cases", len(res.Rows)) {
		return err
	}
	fmt.Fprintf(out, "DRAM low-power savings on bursty traffic, Micron model, %d requests/case\n\n", requests)
	fmt.Fprintf(out, "%-20s %11s %11s %11s %8s %8s %7s %7s\n",
		"case", "active (mW)", "PD (mW)", "PD+SR (mW)", "PD save", "SR save", "PD res", "SR res")
	for _, row := range res.Rows {
		fmt.Fprintf(out, "%-20s %11.1f %11.1f %11.1f %7.1f%% %7.1f%% %6.1f%% %6.1f%%\n",
			row.Case, row.ActiveMW, row.PDMW, row.PDSRMW,
			row.PDSavePct, row.SRSavePct, row.PDResidency*100, row.SRResidency*100)
	}
	fmt.Fprintln(out, "\n(power-down pays off within short gaps; self-refresh needs gaps long")
	fmt.Fprintln(out, " enough to absorb its tXS/tXSDLL exit cost — savings grow with gap length)")
	return err
}
