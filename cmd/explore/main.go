// Command explore regenerates the paper's §IV-B future-system exploration
// (Figure 9, Tables II-IV): a 16-core canneal-like workload with a shared
// LLC in front of three memory systems that all offer 12.8 GB/s — 1x 64-bit
// DDR3, 2x 32-bit LPDDR3 and 4x 128-bit WideIO — showing IPC sensitivity,
// the read-latency breakdown, and DRAM power.
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

func main() { cliconfig.Main("explore", &stop, run) }

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("explore", flag.ContinueOnError)
	memOps := cliconfig.AddCount(fs, "memops", experiments.ExploreMemOps, "memory operations per core")
	cores := fs.Int("cores", experiments.ExploreCores, "number of cores")
	jsonOut := fs.String("json", "", "write the result as JSON to this file (atomic temp+rename)")
	if ok, err := cliconfig.Parse(fs, args); !ok {
		return err
	}
	res, err := experiments.Runner{Stop: stop}.RunFig9(*memOps, *cores)
	if !cliconfig.Partial(out, err, "%d of %d memory systems, IPC not normalised", len(res.Rows), experiments.NumExplorePoints()) {
		return err
	}
	partial := err != nil
	if err := cliconfig.WriteResultJSON(out, *jsonOut, experiments.NewFig9JSON(res, *memOps, *cores, partial)); err != nil {
		return err
	}

	fmt.Fprintf(out, "Memory technology exploration (Figure 9): %d-core canneal, shared 8 MB LLC\n", *cores)
	fmt.Fprintln(out, "all three memory systems offer 12.8 GB/s aggregate (Table IV)")
	fmt.Fprintln(out)
	fmt.Fprintf(out, "%-8s %8s %9s %10s %9s %10s %10s\n",
		"memory", "IPC", "IPC/DDR3", "rd lat ns", "row hits", "BW GB/s", "power mW")
	for _, row := range res.Rows {
		fmt.Fprintf(out, "%-8s %8.3f %9.2f %10.1f %9.3f %10.2f %10.1f\n",
			row.Name, row.IPC, row.NormIPC, row.AvgReadLatencyNs,
			row.RowHitRate, row.BandwidthGBs, row.PowerMW)
	}
	fmt.Fprintln(out, "\nread latency breakdown (ns):")
	fmt.Fprintf(out, "%-8s %8s %8s %8s %8s\n", "memory", "queue", "bank", "bus", "static")
	for _, row := range res.Rows {
		fmt.Fprintf(out, "%-8s %8.1f %8.1f %8.1f %8.1f\n",
			row.Name, row.QueueNs, row.BankNs, row.BusNs, row.StaticNs)
	}
	return err
}
