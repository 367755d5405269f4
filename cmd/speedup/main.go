// Command speedup regenerates the paper's §III-D model-performance
// comparison: host wall-clock time of the event-based controller versus the
// cycle-based baseline over identical synthetic request streams, including
// spaced (sub-saturation) traffic and a 16-channel HMC-like system where
// the event-based approach pays off most.
package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"repro/internal/dram"
	"repro/internal/experiments"
	"repro/internal/experiments/cliconfig"
)

// stop is polled before every measurement point: main points it at
// SIGINT/SIGTERM, the tests at a counter.
var stop func() bool

func main() { cliconfig.Main("speedup", &stop, run) }

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("speedup", flag.ContinueOnError)
	requests := cliconfig.AddCount(fs, "requests", 100000, "requests per case (larger = steadier timing)")
	standard := cliconfig.AddStandard(fs)
	if ok, err := cliconfig.Parse(fs, args); !ok {
		return err
	}
	var dev *dram.Spec
	if *standard != "" {
		dev = new(dram.Spec)
		if err := cliconfig.ResolveStandard(*standard, dev); err != nil {
			return err
		}
	}
	res, err := experiments.Runner{Stop: stop}.RunSpeedup(*requests, dev)
	if !cliconfig.Partial(out, err, "%d cases", len(res.Rows)) {
		return err
	}

	fmt.Fprintf(out, "Model performance (§III-D): %d requests per case\n\n", *requests)
	// Host ns per request stands beside every ratio: the ratio moves when
	// either model does, the absolute cost says which.
	nsPerReq := func(host time.Duration) float64 { return float64(host.Nanoseconds()) / float64(*requests) }
	fmt.Fprintf(out, "%-26s %12s %12s %12s %12s %12s %12s %9s\n",
		"case", "event host", "cycle host", "event ns/req", "cycle ns/req", "event evts", "cycle evts", "speedup")
	for _, row := range res.Rows {
		fmt.Fprintf(out, "%-26s %12v %12v %12.1f %12.1f %12d %12d %8.2fx\n",
			row.Case,
			row.EventHost.Round(time.Microsecond),
			row.CycleHost.Round(time.Microsecond),
			nsPerReq(row.EventHost), nsPerReq(row.CycleHost),
			row.EventEvents, row.CycleEvents, row.Speedup)
	}
	fmt.Fprintf(out, "\naverage speedup: %.2fx   maximum: %.2fx\n", res.AvgSpeedup, res.MaxSpeedup)
	fmt.Fprintln(out, "(paper reports 7x average / 10x max against DRAMSim2, and ~10x for a 16-channel HMC)")
	return err
}
