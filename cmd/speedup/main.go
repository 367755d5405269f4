// Command speedup regenerates the paper's §III-D model-performance
// comparison: host wall-clock time of the event-based controller versus the
// cycle-based baseline over identical synthetic request streams, including
// spaced (sub-saturation) traffic and a 16-channel HMC-like system where
// the event-based approach pays off most.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/dram"
	"repro/internal/experiments"
	"repro/internal/experiments/cliconfig"
)

func main() {
	requests := cliconfig.AddRequests(flag.CommandLine, 100000, "requests per case (larger = steadier timing)")
	standard := cliconfig.AddStandard(flag.CommandLine)
	flag.Parse()

	var dev *dram.Spec
	if *standard != "" {
		sp, err := dram.ByStandard(*standard)
		if err != nil {
			fmt.Fprintln(os.Stderr, "speedup:", err)
			os.Exit(1)
		}
		dev = &sp
	}
	res, err := experiments.RunSpeedupOn(*requests, dev)
	if err != nil {
		fmt.Fprintln(os.Stderr, "speedup:", err)
		os.Exit(1)
	}

	fmt.Printf("Model performance (§III-D): %d requests per case\n\n", *requests)
	// Host ns per request stands beside every ratio: the ratio moves when
	// either model does, the absolute cost says which.
	nsPerReq := func(host time.Duration) float64 { return float64(host.Nanoseconds()) / float64(*requests) }
	fmt.Printf("%-26s %12s %12s %12s %12s %12s %12s %9s\n",
		"case", "event host", "cycle host", "event ns/req", "cycle ns/req", "event evts", "cycle evts", "speedup")
	for _, row := range res.Rows {
		fmt.Printf("%-26s %12v %12v %12.1f %12.1f %12d %12d %8.2fx\n",
			row.Case,
			row.EventHost.Round(time.Microsecond),
			row.CycleHost.Round(time.Microsecond),
			nsPerReq(row.EventHost), nsPerReq(row.CycleHost),
			row.EventEvents, row.CycleEvents, row.Speedup)
	}
	fmt.Printf("\naverage speedup: %.2fx   maximum: %.2fx\n", res.AvgSpeedup, res.MaxSpeedup)
	fmt.Println("(paper reports 7x average / 10x max against DRAMSim2, and ~10x for a 16-channel HMC)")
}
