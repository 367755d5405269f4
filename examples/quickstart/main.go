// Quickstart: the smallest complete simulation — one traffic generator
// driving one event-based DDR3 controller, with statistics dumped at the
// end. Start here to see the public API shape: build a kernel, build
// components against it, connect ports, run, read statistics.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trafficgen"
)

func main() {
	// Every simulation shares one event kernel; time is in picoseconds.
	kernel := sim.NewKernel()
	registry := stats.NewRegistry("quickstart")

	// The memory: a DDR3-1600 x64 channel (the paper's Table IV part) under
	// the paper's Table III controller configuration. Presets come from the
	// registry — dram.ByName for an exact part, dram.ByStandard("ddr5") for
	// a family's representative — and the dram.Spec is the device model the
	// controller takes.
	spec, err := dram.ByName("DDR3-1600-x64")
	if err != nil {
		log.Fatal(err)
	}
	ctrl, err := core.NewController(kernel, core.DefaultConfig(spec), registry, "mc")
	if err != nil {
		log.Fatal(err)
	}

	// The workload: 10,000 sequential 64-byte reads, up to 16 outstanding.
	gen, err := trafficgen.New(kernel, trafficgen.Config{
		RequestBytes:   64,
		MaxOutstanding: 16,
		Count:          10000,
	}, &trafficgen.Linear{
		Start: 0, End: 64 << 20, Step: 64, ReadPercent: 100,
	}, registry, "gen")
	if err != nil {
		log.Fatal(err)
	}

	// Wire the generator's request port to the controller's response port
	// and run until the traffic completes.
	mem.Connect(gen.Port(), ctrl.Port())
	gen.Start()
	for !gen.Done() {
		kernel.RunUntil(kernel.Now() + 10*sim.Microsecond)
	}

	fmt.Printf("simulated %s in %d events\n", kernel.Now(), kernel.EventsExecuted())
	fmt.Printf("bandwidth: %.2f GB/s (bus utilisation %.1f%%, row hit rate %.1f%%)\n",
		ctrl.Bandwidth()/1e9, ctrl.BusUtilisation()*100, ctrl.RowHitRate()*100)
	fmt.Printf("mean read latency: %.1f ns\n\n", gen.ReadLatency().Mean())

	fmt.Println("statistics:")
	if err := registry.Dump(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
