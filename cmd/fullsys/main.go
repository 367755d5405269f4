// Command fullsys regenerates the paper's Figure 8: full-system runs of
// PARSEC-like workloads on 4 cores with private L1s, a shared L2 and a DDR3
// channel, executed once per controller model. Each bar is the ratio of the
// cycle-based model's metric to the event-based model's — ratios near 1 mean
// the models correlate; host-time ratios above 1 mean the event-based model
// simulates faster.
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

func main() { cliconfig.Main("fullsys", &stop, run) }

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fullsys", flag.ContinueOnError)
	memOps := cliconfig.AddCount(fs, "memops", 5000, "memory operations per core (region of interest)")
	if ok, err := cliconfig.Parse(fs, args); !ok {
		return err
	}
	res, err := experiments.Runner{Stop: stop}.RunFig8(*memOps)
	if !cliconfig.Partial(out, err, "%d workloads", len(res.Rows)) {
		return err
	}

	fmt.Fprintf(out, "Full-system comparison (Figure 8): 4 cores, %d mem ops/core, DDR3, closed page\n", *memOps)
	fmt.Fprintln(out, "ratios are cycle-based / event-based; 1.00 = perfect correlation")
	fmt.Fprintln(out)
	fmt.Fprintf(out, "%-16s %10s %10s %12s %10s\n", "workload", "sim time", "IPC", "L2 miss lat", "bus util")
	for _, row := range res.Rows {
		fmt.Fprintf(out, "%-16s %9.2fx %10.2f %12.2f %10.2f\n",
			row.Workload, row.SimTimeRatio, row.IPCRatio, row.MissLatRatio, row.BusUtilRatio)
	}
	fmt.Fprintf(out, "\naverage simulation-time reduction from the event-based model: %.0f%%\n",
		res.AvgSimTimeReduction*100)
	fmt.Fprintln(out, "(paper reports up to 20%, 13% on average, with metric ratios near 1)")
	return err
}
