// Command speedup regenerates the paper's §III-D model-performance
// comparison: host wall-clock time of the event-based controller versus the
// cycle-based baseline over identical synthetic request streams, including
// spaced (sub-saturation) traffic and a 16-channel HMC-like system where
// the event-based approach pays off most.
//
// With -parallel N it additionally measures the sharded multi-channel rig:
// wall-clock time with 1 worker (serial) versus up to N workers for 2-, 4-
// and 8-channel systems plus a spaced (sub-saturation) case, asserting
// bit-identical statistics along the way. -lookahead-quanta widens the
// barrier quantum adaptively (see system.ShardedConfig). With -json FILE the
// whole measurement (plus host CPU information and an undersubscription
// stamp) is written as JSON — this is how BENCH_2.json and BENCH_3.json are
// produced.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/dram"
	"repro/internal/experiments"
	"repro/internal/experiments/cliconfig"
)

// benchReport is the -json output shape (checked in as BENCH_2.json).
type benchReport struct {
	Host struct {
		CPUs       int    `json:"cpus"`
		GoMaxProcs int    `json:"gomaxprocs"`
		GOOS       string `json:"goos"`
		GOARCH     string `json:"goarch"`
	} `json:"host"`
	Model struct {
		Requests   uint64                   `json:"requestsPerCase"`
		Rows       []experiments.SpeedupRow `json:"rows"`
		AvgSpeedup float64                  `json:"avgSpeedup"`
		MaxSpeedup float64                  `json:"maxSpeedup"`
	} `json:"modelSpeedup"`
	Parallel *experiments.ParallelResult `json:"parallelSpeedup,omitempty"`
}

func main() {
	requests := cliconfig.AddRequests(flag.CommandLine, 100000, "requests per case (larger = steadier timing)")
	parallel := flag.Int("parallel", 0, "also measure the sharded rig with up to N workers (0 = skip)")
	quanta := flag.Int("lookahead-quanta", 8, "adaptive lookahead widening for the sharded measurement (1 = fixed quantum)")
	jsonOut := flag.String("json", "", "write all measurements as JSON to this file")
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

	var par *experiments.ParallelResult
	if *parallel > 0 {
		workers := []int{2}
		if *parallel > 2 {
			workers = append(workers, *parallel)
		}
		par, err = experiments.RunParallelSpeedup(*requests/4, []int{2, 4, 8}, workers, *quanta)
		if err != nil {
			fmt.Fprintln(os.Stderr, "speedup:", err)
			os.Exit(1)
		}
		fmt.Printf("\nSharded multi-channel rig (host: %d CPUs, GOMAXPROCS %d, lookahead quanta %d):\n\n",
			par.HostCPUs, par.GoMaxProcs, par.AdaptiveQuanta)
		fmt.Printf("%-12s %-10s %-9s %12s %10s %10s %9s %6s\n",
			"case", "channels", "workers", "host", "GB/s", "barriers", "speedup", "det")
		for _, row := range par.Rows {
			mark := ""
			if row.Undersubscribed {
				mark = " *"
			}
			fmt.Printf("%-12s %-10d %-9d %12v %10.2f %10d %8.2fx %6v%s\n",
				row.Case, row.Channels, row.Workers, row.Host.Round(time.Microsecond),
				row.AggregateGBs, row.Barriers, row.Speedup, row.Deterministic, mark)
			if !row.Deterministic {
				fmt.Fprintln(os.Stderr, "speedup: parallel run diverged from serial statistics")
				os.Exit(1)
			}
		}
		if par.Undersubscribed {
			fmt.Fprintf(os.Stderr, "speedup: warning: rows marked * asked for more workers than the "+
				"host can run (%d CPUs, GOMAXPROCS %d); their speedups measure goroutine overhead, "+
				"not scaling, and the JSON is stamped undersubscribed\n",
				par.HostCPUs, par.GoMaxProcs)
		}
	}

	if *jsonOut != "" {
		var rep benchReport
		rep.Host.CPUs = runtime.NumCPU()
		rep.Host.GoMaxProcs = runtime.GOMAXPROCS(0)
		rep.Host.GOOS = runtime.GOOS
		rep.Host.GOARCH = runtime.GOARCH
		rep.Model.Requests = *requests
		rep.Model.Rows = res.Rows
		rep.Model.AvgSpeedup = res.AvgSpeedup
		rep.Model.MaxSpeedup = res.MaxSpeedup
		rep.Parallel = par
		out, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "speedup:", err)
			os.Exit(1)
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&rep); err != nil {
			fmt.Fprintln(os.Stderr, "speedup:", err)
			os.Exit(1)
		}
		if err := out.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "speedup: write %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
		fmt.Printf("\nmeasurements written to %s\n", *jsonOut)
	}
}
