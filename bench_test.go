// Benchmarks regenerating the paper's evaluation, one per table/figure.
// Each benchmark simulates b.N memory requests through a complete system,
// so ns/op is host time per simulated request — comparing the Event and
// Cycle variants of any benchmark reproduces the §III-D model-performance
// claim directly from `go test -bench`.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/system"
	"repro/internal/trafficgen"
	"repro/internal/xbar"
)

// runPoint runs p with b.N requests from its generator, timing the run alone.
func runPoint(b *testing.B, p experiments.Point) *experiments.Rig {
	b.Helper()
	p.Gen.Count = uint64(b.N)
	p.Limit = 1000 * sim.Second
	rig, err := experiments.Runner{Started: b.ResetTimer}.Run(p)
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	return rig
}

// benchSweepPoint drives one (stride, banks) cell of a figure's sweep.
func benchSweepPoint(b *testing.B, kind system.Kind, figure int, stride uint64, banks int) {
	b.Helper()
	p, err := experiments.SweepPoint(figure, kind, stride, banks)
	if err != nil {
		b.Fatal(err)
	}
	rig := runPoint(b, p)
	b.ReportMetric(rig.AvgBusUtilisation(), "busUtil")
	b.ReportMetric(float64(rig.K.EventsExecuted())/float64(b.N), "events/req")
}

// Figure 3: open page, 100% reads.
func BenchmarkFig3OpenReadsEvent(b *testing.B) {
	benchSweepPoint(b, system.EventBased, 3, 8, 4)
}

func BenchmarkFig3OpenReadsCycle(b *testing.B) {
	benchSweepPoint(b, system.CycleBased, 3, 8, 4)
}

// Figure 4: open page, 1:1 mix.
func BenchmarkFig4MixedEvent(b *testing.B) {
	benchSweepPoint(b, system.EventBased, 4, 8, 4)
}

func BenchmarkFig4MixedCycle(b *testing.B) {
	benchSweepPoint(b, system.CycleBased, 4, 8, 4)
}

// Figure 5: closed page, 100% writes.
func BenchmarkFig5ClosedWritesEvent(b *testing.B) {
	benchSweepPoint(b, system.EventBased, 5, 4, 8)
}

func BenchmarkFig5ClosedWritesCycle(b *testing.B) {
	benchSweepPoint(b, system.CycleBased, 5, 4, 8)
}

// benchRandomMix drives experiments.RandomMixPoint. The Fig. 4 mix above is
// DRAM-aware, so nearly every decision ends at a row hit; here none does.
func benchRandomMix(b *testing.B, kind system.Kind, readPct, readBuffer int) *experiments.Rig {
	b.Helper()
	rig := runPoint(b, experiments.RandomMixPoint(kind, readPct, readBuffer, 1))
	b.ReportMetric(float64(rig.K.EventsExecuted())/float64(b.N), "events/req")
	return rig
}

func BenchmarkMixRandomEvent(b *testing.B) { benchRandomMix(b, system.EventBased, 50, 0) }

func BenchmarkMixRandomCycle(b *testing.B) { benchRandomMix(b, system.CycleBased, 50, 0) }

// BenchmarkArbitrationDepth holds the read queue at 16..128 random reads, one
// scheduling decision per request: ns/op against depth is the cost of a
// decision as the queue deepens over the same 8 banks.
func BenchmarkArbitrationDepth(b *testing.B) {
	for _, depth := range []int{16, 32, 64, 128} {
		b.Run(fmt.Sprintf("rdq%d", depth), func(b *testing.B) {
			rig := benchRandomMix(b, system.EventBased, 100, depth)
			b.ReportMetric(rig.Reg.Get("sys.mc.readQueueLen").(*stats.Average).Mean(), "avgRdQ")
		})
	}
}

// benchLatency drives the Figs. 6-7 linear traffic at intermediate load.
func benchLatency(b *testing.B, kind system.Kind, figure int) {
	b.Helper()
	rig := runPoint(b, experiments.LatencyPoint(figure, kind))
	b.ReportMetric(rig.Gen.ReadLatency().Mean(), "readLatNs")
}

// Figure 6: linear reads, open page.
func BenchmarkFig6LatencyEvent(b *testing.B) {
	benchLatency(b, system.EventBased, 6)
}

func BenchmarkFig6LatencyCycle(b *testing.B) {
	benchLatency(b, system.CycleBased, 6)
}

// Figure 7: linear 1:1 mix, closed page (bimodal for the event model).
func BenchmarkFig7LatencyEvent(b *testing.B) {
	benchLatency(b, system.EventBased, 7)
}

func BenchmarkFig7LatencyCycle(b *testing.B) {
	benchLatency(b, system.CycleBased, 7)
}

// §III-C3 power comparison: one representative case per model (the Fig. 4
// mix over 8 banks); the offline Micron computation itself is also exercised.
func BenchmarkPowerCaseEvent(b *testing.B) {
	benchSweepPoint(b, system.EventBased, 4, 8, 8)
}

func BenchmarkPowerCaseCycle(b *testing.B) {
	benchSweepPoint(b, system.CycleBased, 4, 8, 8)
}

// §III-D model performance at low load, where cycle-based simulation pays
// for every idle cycle: the Event/Cycle ns/op ratio is the paper's speedup.
func benchSpacedLoad(b *testing.B, kind system.Kind) {
	b.Helper()
	rig := runPoint(b, experiments.LowLoadPoint(kind))
	b.ReportMetric(float64(rig.K.EventsExecuted())/float64(b.N), "events/req")
}

func BenchmarkModelPerfLowLoadEvent(b *testing.B) { benchSpacedLoad(b, system.EventBased) }

func BenchmarkModelPerfLowLoadCycle(b *testing.B) { benchSpacedLoad(b, system.CycleBased) }

// runFullPoint runs p with b.N memory operations spread over its cores,
// timing the run alone.
func runFullPoint(b *testing.B, p experiments.FullPoint) *system.FullSystem {
	b.Helper()
	p.Core.MemOps = uint64(b.N)/uint64(p.Cores) + 1
	p.Limit = 1000 * sim.Second
	fs, _, err := experiments.Runner{Started: b.ResetTimer}.RunFull(p)
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(fs.AggregateIPC(), "IPC")
	return fs
}

// Figure 8: the 4-core full system running canneal, per model; ns/op is per
// memory operation across all cores.
func benchFullSystem(b *testing.B, kind system.Kind) {
	b.Helper()
	fs := runFullPoint(b, experiments.Fig8Point(kind, "canneal", 0, 1))
	b.ReportMetric(fs.LLC.AvgMissLatencyNs(), "l2MissNs")
}

func BenchmarkFig8FullSystemEvent(b *testing.B) { benchFullSystem(b, system.EventBased) }

func BenchmarkFig8FullSystemCycle(b *testing.B) { benchFullSystem(b, system.CycleBased) }

// Every sweep point builds a fresh system before its first request. The two
// Build benchmarks time construction alone and report allocs/op and B/op per
// build.

// BenchmarkBuildFullSystem builds the Figure 8 system: four cores, their L1s,
// the LLC and two crossbars in front of one event-model channel.
func BenchmarkBuildFullSystem(b *testing.B) {
	cfg := experiments.Fig8Point(system.EventBased, "canneal", 1000, 1).MultiCoreConfig
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := system.NewFullSystem(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildMemory4ch builds four event-model channels behind a crossbar,
// the memory side of a four-channel sweep point.
func BenchmarkBuildMemory4ch(b *testing.B) {
	p := experiments.RandomMixPoint(system.EventBased, 50, 0, 1)
	cfg := system.MemoryConfig{Root: "sys", Kind: p.Kind, Channels: 4, Event: p.Event, Cycle: p.Cycle,
		Widest: p.Gen.RequestBytes, Xbar: &xbar.Config{Latency: 2 * sim.Nanosecond, QueueDepth: 64}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := system.NewMemory(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Figure 9 / Tables II-IV: the three 12.8 GB/s memory systems under the
// 16-core canneal case study (8 cores here to keep bench runs tractable).
func BenchmarkFig9(b *testing.B) {
	for _, mc := range experiments.Fig9Configs() {
		b.Run(mc.Name, func(b *testing.B) {
			fs := runFullPoint(b, mc.Point(0, 8, 1))
			b.ReportMetric(fs.MemBandwidth()/1e9, "GB/s")
		})
	}
}

// BenchmarkSharded4chSerial is the zero-allocation gate of the shard-link
// path while the link exists: a 4-channel bandwidth workload on the sharded
// rig, every kernel stepped on the calling goroutine.
func BenchmarkSharded4chSerial(b *testing.B) {
	const channels = 4
	spec := dram.DDR3_1333_8x8()
	gens := make([]trafficgen.Config, channels)
	patterns := make([]trafficgen.Pattern, channels)
	for i := range gens {
		gens[i] = trafficgen.Config{
			RequestBytes:   spec.Org.BurstBytes(),
			MaxOutstanding: 32,
			Count:          uint64(b.N)/channels + 1,
			RequestorID:    i,
		}
		patterns[i] = &trafficgen.Linear{
			Start: 0, End: 1 << 26, Step: spec.Org.BurstBytes(),
			ReadPercent: 80, Seed: int64(i + 1),
		}
	}
	rig, err := system.NewShardedRig(system.ShardedConfig{
		Kind: system.EventBased, Spec: spec, Mapping: dram.RoRaBaCoCh,
		Channels: channels,
		Xbar:     xbar.Config{Latency: 2 * sim.Nanosecond, QueueDepth: 64},
		Gens:     gens, Patterns: patterns,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if !rig.Run(1000 * sim.Second) {
		b.Fatal("run did not complete")
	}
	b.StopTimer()
	b.ReportMetric(rig.AggregateBandwidth()/1e9, "GB/s")
}

// hopCPU and hopMem are the two ends of BenchmarkCrossbarHop: the requestor
// sends one read and, when its response is back, the next; a memory answers
// each request 10 ns later. Neither allocates, so allocs/op is the crossbar's.
type hopCPU struct {
	k    *sim.Kernel
	port *mem.RequestPort
	pool mem.PacketPool
	left int
}

func (c *hopCPU) send() {
	if !c.port.SendTimingReq(c.pool.NewRead(mem.Addr(c.left)*64, 64, 0, c.k.Now())) {
		panic("an idle crossbar refused a request")
	}
}

func (c *hopCPU) RecvTimingResp(pkt *mem.Packet) bool {
	c.pool.Put(pkt)
	if c.left--; c.left > 0 {
		c.send()
	}
	return true
}

func (c *hopCPU) RecvReqRetry() {}

type hopMem struct {
	k      *sim.Kernel
	port   *mem.ResponsePort
	held   *mem.Packet
	answer *sim.Event
}

func newHopMem(k *sim.Kernel) *hopMem {
	m := &hopMem{k: k}
	m.port = mem.NewResponsePort("mem", m, k)
	m.answer = sim.NewEvent("mem.answer", func() {
		if !m.port.SendTimingResp(m.held) {
			panic("an idle crossbar refused a response")
		}
	})
	return m
}

func (m *hopMem) RecvTimingReq(pkt *mem.Packet) bool {
	pkt.MakeResponse()
	m.held = pkt
	m.k.Schedule(m.answer, m.k.Now()+10*sim.Nanosecond)
	return true
}

func (m *hopMem) RecvRespRetry() {}

// BenchmarkCrossbarHop is one request and its response through one crossbar
// (four memory ports, so the route really interleaves): what a miss pays per
// crossbar, readable without the ledger. CI gates its allocs/op at zero.
func BenchmarkCrossbarHop(b *testing.B) {
	k := sim.NewKernel()
	x, err := xbar.New(k, xbar.Config{Latency: 2 * sim.Nanosecond, QueueDepth: 16},
		xbar.InterleaveRoute(4, 64), stats.NewRegistry("bench"), "xbar")
	if err != nil {
		b.Fatal(err)
	}
	c := &hopCPU{k: k, left: b.N}
	c.port = mem.NewRequestPort("cpu", c, k)
	mem.Connect(c.port, x.AttachRequestor("cpu"))
	for i := 0; i < 4; i++ {
		mem.Connect(x.AttachMemory("mem"), newHopMem(k).port)
	}
	b.ReportAllocs()
	b.ResetTimer()
	c.send()
	k.Run()
	if c.left != 0 || x.InFlight() != 0 {
		b.Fatalf("%d requests unanswered, %d in flight", c.left, x.InFlight())
	}
}

// Micro-benchmarks of the core substrate, for regression tracking.

func BenchmarkKernelScheduleFire(b *testing.B) {
	k := sim.NewKernel()
	ev := make([]*sim.Event, 64)
	for i := range ev {
		ev[i] = sim.NewEvent("bench", func() {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := ev[i%len(ev)]
		k.Schedule(e, k.Now()+sim.Tick(i%97))
		if i%len(ev) == len(ev)-1 {
			k.Run()
		}
	}
	k.Run()
}

// BenchmarkKernelGap fires one self-rescheduling event at a fixed spacing,
// beside a refresh-like event every 7.8 us. An event kernel pays per event,
// not per simulated time skipped, so ns/event must read the same at every
// gap, from one bus clock to beyond the refresh interval.
func BenchmarkKernelGap(b *testing.B) {
	for _, gap := range []sim.Tick{
		sim.Nanosecond, 6 * sim.Nanosecond, 48 * sim.Nanosecond,
		250 * sim.Nanosecond, 2 * sim.Microsecond, 8 * sim.Microsecond,
	} {
		b.Run(gap.String(), func(b *testing.B) {
			k := sim.NewKernel()
			left := b.N
			var tick, refresh *sim.Event
			tick = sim.NewEvent("tick", func() {
				if left--; left > 0 {
					k.Schedule(tick, k.Now()+gap)
				} else if refresh.Scheduled() {
					k.Deschedule(refresh)
				}
			})
			refresh = sim.NewEvent("refresh", func() { k.Schedule(refresh, k.Now()+7800*sim.Nanosecond) })
			k.Schedule(refresh, 7800*sim.Nanosecond)
			k.Schedule(tick, 0)
			b.ResetTimer()
			k.Run()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(k.EventsExecuted()), "ns/event")
		})
	}
}

// BenchmarkKernelDepth holds 4 to 256 events pending, where the queue's cost
// stops being flat: the sorted ring walks past, and moves, min(rank,
// depth-rank) entries per insert. That is a few when a quarter of the queue
// is refresh-like timers parked at the tail and the rest re-arm 1-8 ns ahead
// (near: the shape every topology has, and no shipped one is deeper than 36),
// and depth/4 on average when every event re-arms at a uniformly random rank
// (random: the worst case).
func BenchmarkKernelDepth(b *testing.B) {
	for _, shape := range []string{"near", "random"} {
		random := shape == "random"
		for _, depth := range []int{4, 16, 64, 256} {
			b.Run(fmt.Sprintf("%s/%d", shape, depth), func(b *testing.B) {
				k := sim.NewKernel()
				left := b.N
				rng := uint64(1)
				events := make([]*sim.Event, depth)
				for i := range events {
					delay := sim.Tick(1+i%8) * sim.Nanosecond
					if !random && i%4 == 3 {
						delay = 7800 * sim.Nanosecond
					}
					events[i] = sim.NewEvent("hold", func() {
						if left--; left <= 0 {
							return
						}
						d := delay
						if random {
							rng ^= rng << 13
							rng ^= rng >> 7
							rng ^= rng << 17
							d = sim.Tick(rng % uint64(sim.Microsecond))
						}
						k.Schedule(events[i], k.Now()+d)
					})
					k.Schedule(events[i], delay)
				}
				b.ResetTimer()
				k.RunUntil(sim.MaxTick)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(k.EventsExecuted()), "ns/event")
			})
		}
	}
}

func BenchmarkAddressDecode(b *testing.B) {
	dec, err := dram.NewDecoder(dram.DDR3_1600_x64().Org, dram.RoRaBaCoCh, 4)
	if err != nil {
		b.Fatal(err)
	}
	var sink dram.Coord
	for i := 0; i < b.N; i++ {
		sink = dec.Decode(mem.Addr(uint64(i) * 64))
	}
	_ = sink
}

// probedPoint is the event controller's default configuration on spec under
// hub, loaded by one generator of count 64-byte requests, 32 outstanding.
func probedPoint(spec dram.Spec, hub *obs.Hub, count uint64, pattern trafficgen.Pattern) experiments.Point {
	return experiments.Point{
		Name: "probed controller", Event: core.DefaultConfig(spec), Probes: hub, Limit: 1000 * sim.Second,
		Gen:     trafficgen.Config{RequestBytes: 64, MaxOutstanding: 32, Count: count},
		Pattern: pattern,
	}
}

// Protocol checking cost over a realistic command trace.
func BenchmarkProtocolCheck(b *testing.B) {
	spec := dram.DDR3_1600_x64()
	var trace power.CommandTrace
	hub := obs.NewHub()
	hub.Attach(obs.CommandFunc(trace.Record))
	_, err := experiments.Runner{}.Run(probedPoint(spec, hub, 5000,
		&trafficgen.Random{Start: 0, End: 1 << 26, Align: 64, ReadPercent: 67, Seed: 3}))
	if err != nil {
		b.Fatal(err)
	}
	cmds := trace.Commands()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := power.CheckTiming(spec, cmds); len(v) != 0 {
			b.Fatalf("violations: %v", v[0])
		}
	}
	b.ReportMetric(float64(len(cmds)), "cmds/trace")
}

// benchControllerProbes drives the event controller with a linear read
// stream under the given probe hub, so the cost of the obs emission sites
// can be compared across hub configurations.
func benchControllerProbes(b *testing.B, hub *obs.Hub) {
	runPoint(b, probedPoint(dram.DDR3_1333_8x8(), hub, 0,
		&trafficgen.Linear{Start: 0, End: 1 << 26, Step: 64, ReadPercent: 100}))
}

// The command-trace hook's overhead on the event controller.
func BenchmarkControllerWithCommandTrace(b *testing.B) {
	var trace power.CommandTrace
	hub := obs.NewHub()
	hub.Attach(obs.CommandFunc(trace.Record))
	benchControllerProbes(b, hub)
}

// BenchmarkNoProbeOverhead is the instrumented-but-disabled path: every obs
// emission site compiled in, no hub attached, so each site costs one nil
// check. The acceptance bar is throughput within 2% of the pre-hook
// controller (compare against BenchmarkControllerWithCommandTrace for the
// enabled cost, and historical Fig3 numbers for the pre-hook baseline).
func BenchmarkNoProbeOverhead(b *testing.B) { benchControllerProbes(b, nil) }

// BenchmarkNullProbeAttached measures the fan-out cost with one attached
// probe that does nothing — the floor for any enabled-probe configuration.
func BenchmarkNullProbeAttached(b *testing.B) {
	hub := obs.NewHub()
	hub.Attach(obs.CommandFunc(func(power.Command) {}))
	benchControllerProbes(b, hub)
}
