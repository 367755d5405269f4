package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trafficgen"
)

// The smallest complete use of the controller: a traffic generator over one
// DDR3 channel, run to completion.
func ExampleNewController() {
	k := sim.NewKernel()
	reg := stats.NewRegistry("sys")

	ctrl, err := core.NewController(k, core.DefaultConfig(dram.DDR3_1600_x64()), reg, "mc")
	if err != nil {
		panic(err)
	}
	gen, err := trafficgen.New(k,
		trafficgen.Config{RequestBytes: 64, MaxOutstanding: 8, Count: 1000},
		&trafficgen.Linear{Start: 0, End: 1 << 20, Step: 64, ReadPercent: 100},
		reg, "gen")
	if err != nil {
		panic(err)
	}
	mem.Connect(gen.Port(), ctrl.Port())

	gen.Start()
	for !gen.Done() {
		k.RunUntil(k.Now() + 10*sim.Microsecond)
	}
	fmt.Printf("all %d reads answered: %v\n", 1000, gen.ReadLatency().Count() == 1000)
	fmt.Printf("sequential reads mostly row hits: %v\n", ctrl.RowHitRate() > 0.9)
	// Output:
	// all 1000 reads answered: true
	// sequential reads mostly row hits: true
}

// The quickstart README teaches: look a preset up by name, give the controller
// the paper's Table III defaults, drive it with 10,000 sequential reads and
// read the results off the components and the statistics registry.
func Example_quickstart() {
	kernel := sim.NewKernel() // one event kernel per simulation; time in picoseconds
	registry := stats.NewRegistry("quickstart")

	// dram.ByName takes an exact part or a family keyword ("ddr5") for its
	// representative; the dram.Spec is the device model the controller takes.
	spec, err := dram.ByName("DDR3-1600-x64")
	if err != nil {
		panic(err)
	}
	ctrl, err := core.NewController(kernel, core.DefaultConfig(spec), registry, "mc")
	if err != nil {
		panic(err)
	}
	gen, err := trafficgen.New(kernel,
		trafficgen.Config{RequestBytes: 64, MaxOutstanding: 16, Count: 10000},
		&trafficgen.Linear{Start: 0, End: 64 << 20, Step: 64, ReadPercent: 100},
		registry, "gen")
	if err != nil {
		panic(err)
	}
	// The generator's request port meets the controller's response port.
	mem.Connect(gen.Port(), ctrl.Port())
	gen.Start()
	for !gen.Done() {
		kernel.RunUntil(kernel.Now() + 10*sim.Microsecond)
	}

	fmt.Printf("simulated %s\n", kernel.Now())
	fmt.Printf("bandwidth: %.2f GB/s (bus utilisation %.1f%%, row hit rate %.1f%%)\n",
		ctrl.Bandwidth()/1e9, ctrl.BusUtilisation()*100, ctrl.RowHitRate()*100)
	fmt.Printf("mean read latency: %.1f ns\n", gen.ReadLatency().Mean())
	// registry.Dump(os.Stdout) prints every statistic the run collected.

	// Output:
	// simulated 60us
	// bandwidth: 10.67 GB/s (bus utilisation 83.3%, row hit rate 93.7%)
	// mean read latency: 83.2 ns
}

// Policies are plain configuration: here the adaptive closed-page policy
// with FCFS scheduling on a WideIO part.
func ExampleConfig() {
	cfg := core.DefaultConfig(dram.WideIO_200_x128())
	cfg.Page = core.ClosedAdaptive
	cfg.Scheduling = core.FCFS
	cfg.Mapping = dram.RoCoRaBaCh
	fmt.Println(cfg.Validate() == nil)
	fmt.Println(cfg.Page, cfg.Scheduling, cfg.Mapping)
	// Output:
	// true
	// closed-adaptive FCFS RoCoRaBaCh
}
