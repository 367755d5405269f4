package xbar_test

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trafficgen"
	"repro/internal/xbar"
)

// hotCold sends hotPct% of its accesses (70% of them reads) to [0, hotBytes)
// and the rest to the coldBytes above it.
type hotCold struct {
	hotBytes, coldBytes uint64
	hotPct              int
	rng                 *rand.Rand
}

func (p *hotCold) Next() (mem.Addr, bool) {
	isRead := p.rng.Intn(100) < 70
	if p.rng.Intn(100) < p.hotPct {
		return mem.Addr(uint64(p.rng.Int63n(int64(p.hotBytes/64))) * 64), isRead
	}
	return mem.Addr(p.hotBytes + uint64(p.rng.Int63n(int64(p.coldBytes/64)))*64), isRead
}

// The paper's §II-F modularity claim — "a tiered memory is easily created by
// instantiating a WideIO and LPDDR3 DRAM": a 64 MB WideIO tier and a 512 MB
// LPDDR3 tier behind a crossbar that routes by address range, driven by a
// workload that sends 80% of its traffic to the hot tier.
func ExampleRangeRoute() {
	const hotBytes, coldBytes = 64 << 20, 512 << 20

	kernel := sim.NewKernel()
	registry := stats.NewRegistry("tiered")

	// Below hotBytes -> memory port 0 (WideIO), above -> port 1 (LPDDR3).
	route, err := xbar.RangeRoute([]xbar.AddrRange{
		{Start: 0, End: hotBytes, Port: 0},
		{Start: hotBytes, End: hotBytes + coldBytes, Port: 1},
	})
	if err != nil {
		panic(err)
	}
	xb, err := xbar.New(kernel, xbar.Config{Latency: 3 * sim.Nanosecond, QueueDepth: 32},
		route, registry, "xbar")
	if err != nil {
		panic(err)
	}

	hotCfg := core.DefaultConfig(dram.WideIO_200_x128())
	hotCfg.BackendLatency = 4 * sim.Nanosecond // TSV interface
	hot, err := core.NewController(kernel, hotCfg, registry, "wideio")
	if err != nil {
		panic(err)
	}
	coldCfg := core.DefaultConfig(dram.LPDDR3_1600_x32())
	coldCfg.BackendLatency = 8 * sim.Nanosecond // PoP interface
	cold, err := core.NewController(kernel, coldCfg, registry, "lpddr3")
	if err != nil {
		panic(err)
	}
	mem.Connect(xb.AttachMemory("hot"), hot.Port())
	mem.Connect(xb.AttachMemory("cold"), cold.Port())

	gen, err := trafficgen.New(kernel,
		trafficgen.Config{RequestBytes: 64, MaxOutstanding: 24, Count: 20000},
		&hotCold{hotBytes: hotBytes, coldBytes: coldBytes, hotPct: 80, rng: rand.New(rand.NewSource(42))},
		registry, "gen")
	if err != nil {
		panic(err)
	}
	mem.Connect(gen.Port(), xb.AttachRequestor("gen"))

	gen.Start()
	for !gen.Done() || !hot.Quiescent() || !cold.Quiescent() {
		if gen.Done() {
			// Writes were acknowledged early; flush what is still buffered.
			hot.Drain()
			cold.Drain()
		}
		kernel.RunUntil(kernel.Now() + 10*sim.Microsecond)
	}

	for _, c := range []*core.Controller{hot, cold} {
		ps := c.PowerStats()
		fmt.Printf("%-8s %5.2f GB/s  util %4.1f%%  row hits %4.1f%%  lat %5.1f ns  bursts %d\n",
			c.Name(), c.Bandwidth()/1e9, c.BusUtilisation()*100,
			c.RowHitRate()*100, c.AvgReadLatencyNs(), ps.ReadBursts+ps.WriteBursts)
	}
	fmt.Printf("simulated %s\n", kernel.Now())
	// Output:
	// wideio    2.22 GB/s  util 69.4%  row hits  0.1%  lat 801.1 ns  bursts 15952
	// lpddr3    0.56 GB/s  util  8.8%  row hits 50.0%  lat  82.3 ns  bursts 8096
	// simulated 460us
}
