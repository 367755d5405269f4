// Benchmarks regenerating the paper's evaluation, one per table/figure.
// Each benchmark simulates b.N memory requests through a complete system,
// so ns/op is host time per simulated request — comparing the Event and
// Cycle variants of any benchmark reproduces the §III-D model-performance
// claim directly from `go test -bench`.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
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

// benchSweepPoint drives one DRAM-aware sweep point with b.N requests.
func benchSweepPoint(b *testing.B, kind system.Kind, closedPage bool,
	mapping dram.Mapping, readPct int, stride uint64, banks int) {
	b.Helper()
	spec := dram.DDR3_1333_8x8()
	dec, err := dram.NewDecoder(spec.Org, mapping, 1)
	if err != nil {
		b.Fatal(err)
	}
	rig, err := system.NewTrafficRig(system.RigConfig{
		Kind: kind, Spec: spec, Mapping: mapping, ClosedPage: closedPage,
		Gen: trafficgen.Config{
			RequestBytes:   spec.Org.BurstBytes(),
			MaxOutstanding: 32,
			Count:          uint64(b.N),
		},
		Pattern: &trafficgen.DRAMAware{
			Decoder: dec, StrideBursts: stride, Banks: banks,
			ReadPercent: readPct, Seed: 1,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if !rig.Run(1000 * sim.Second) {
		b.Fatal("run did not complete")
	}
	b.StopTimer()
	b.ReportMetric(rig.Ctrl.BusUtilisation(), "busUtil")
	b.ReportMetric(float64(rig.K.EventsExecuted())/float64(b.N), "events/req")
}

// Figure 3: open page, 100% reads.
func BenchmarkFig3OpenReadsEvent(b *testing.B) {
	benchSweepPoint(b, system.EventBased, false, dram.RoRaBaCoCh, 100, 8, 4)
}

func BenchmarkFig3OpenReadsCycle(b *testing.B) {
	benchSweepPoint(b, system.CycleBased, false, dram.RoRaBaCoCh, 100, 8, 4)
}

// Figure 4: open page, 1:1 mix.
func BenchmarkFig4MixedEvent(b *testing.B) {
	benchSweepPoint(b, system.EventBased, false, dram.RoRaBaCoCh, 50, 8, 4)
}

func BenchmarkFig4MixedCycle(b *testing.B) {
	benchSweepPoint(b, system.CycleBased, false, dram.RoRaBaCoCh, 50, 8, 4)
}

// Figure 5: closed page, 100% writes.
func BenchmarkFig5ClosedWritesEvent(b *testing.B) {
	benchSweepPoint(b, system.EventBased, true, dram.RoCoRaBaCh, 0, 4, 8)
}

func BenchmarkFig5ClosedWritesCycle(b *testing.B) {
	benchSweepPoint(b, system.CycleBased, true, dram.RoCoRaBaCh, 0, 4, 8)
}

// benchRandomMix drives b.N uniform-random 50%-read requests over 256 MiB
// with 32 outstanding: the shape of the ledger's mix_random_wrdrain workload.
// The Fig. 4 mix above is DRAM-aware, so nearly every decision ends at a row
// hit; here the row-hit rate is ~0 and every decision runs the full
// arbitration over deep queues. readBuffer > 0 overrides the matched read
// buffer (and keeps that many requests outstanding).
func benchRandomMix(b *testing.B, kind system.Kind, readPct, readBuffer int) *system.TrafficRig {
	b.Helper()
	spec := dram.DDR3_1333_8x8()
	cfg := system.RigConfig{
		Kind: kind, Spec: spec, Mapping: dram.RoRaBaCoCh,
		Gen: trafficgen.Config{
			RequestBytes:   spec.Org.BurstBytes(),
			MaxOutstanding: 32,
			Count:          uint64(b.N),
		},
		Pattern: &trafficgen.Random{
			Start: 0, End: 256 << 20, Align: spec.Org.BurstBytes(),
			ReadPercent: readPct, Seed: 1,
		},
	}
	if readBuffer > 0 {
		cfg.Gen.MaxOutstanding = readBuffer
		cfg.TuneEvent = func(c *core.Config) { c.ReadBufferSize = readBuffer }
	}
	rig, err := system.NewTrafficRig(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if !rig.Run(1000 * sim.Second) {
		b.Fatal("run did not complete")
	}
	b.StopTimer()
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
func benchLatency(b *testing.B, kind system.Kind, spec experiments.LatencySpec) {
	b.Helper()
	rig, err := system.NewTrafficRig(system.RigConfig{
		Kind: kind, Spec: spec.Spec, Mapping: spec.Mapping, ClosedPage: spec.ClosedPage,
		Gen: trafficgen.Config{
			RequestBytes:     spec.Spec.Org.BurstBytes(),
			MaxOutstanding:   16,
			Count:            uint64(b.N),
			InterTransaction: spec.InterTransaction,
		},
		Pattern: &trafficgen.Linear{
			Start: 0, End: 1 << 26, Step: spec.Spec.Org.BurstBytes(),
			ReadPercent: spec.ReadPct, Seed: 7,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if !rig.Run(1000 * sim.Second) {
		b.Fatal("run did not complete")
	}
	b.StopTimer()
	b.ReportMetric(rig.Gen.ReadLatency().Mean(), "readLatNs")
}

// Figure 6: linear reads, open page.
func BenchmarkFig6LatencyEvent(b *testing.B) {
	benchLatency(b, system.EventBased, experiments.Fig6Spec(0))
}

func BenchmarkFig6LatencyCycle(b *testing.B) {
	benchLatency(b, system.CycleBased, experiments.Fig6Spec(0))
}

// Figure 7: linear 1:1 mix, closed page (bimodal for the event model).
func BenchmarkFig7LatencyEvent(b *testing.B) {
	benchLatency(b, system.EventBased, experiments.Fig7Spec(0))
}

func BenchmarkFig7LatencyCycle(b *testing.B) {
	benchLatency(b, system.CycleBased, experiments.Fig7Spec(0))
}

// §III-C3 power comparison: one representative case per model; the offline
// Micron computation itself is also exercised.
func benchPower(b *testing.B, kind system.Kind) {
	benchSweepPoint(b, kind, false, dram.RoRaBaCoCh, 50, 8, 8)
}

func BenchmarkPowerCaseEvent(b *testing.B) { benchPower(b, system.EventBased) }

func BenchmarkPowerCaseCycle(b *testing.B) { benchPower(b, system.CycleBased) }

// §III-D model performance at low load, where cycle-based simulation pays
// for every idle cycle: the Event/Cycle ns/op ratio is the paper's speedup.
func benchSpacedLoad(b *testing.B, kind system.Kind) {
	b.Helper()
	spec := dram.DDR3_1333_8x8()
	rig, err := system.NewTrafficRig(system.RigConfig{
		Kind: kind, Spec: spec, Mapping: dram.RoRaBaCoCh,
		Gen: trafficgen.Config{
			RequestBytes:     spec.Org.BurstBytes(),
			MaxOutstanding:   16,
			Count:            uint64(b.N),
			InterTransaction: 48 * sim.Nanosecond,
		},
		Pattern: &trafficgen.Linear{Start: 0, End: 1 << 26, Step: spec.Org.BurstBytes(), ReadPercent: 100},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if !rig.Run(1000 * sim.Second) {
		b.Fatal("run did not complete")
	}
	b.StopTimer()
	b.ReportMetric(float64(rig.K.EventsExecuted())/float64(b.N), "events/req")
}

func BenchmarkModelPerfLowLoadEvent(b *testing.B) { benchSpacedLoad(b, system.EventBased) }

func BenchmarkModelPerfLowLoadCycle(b *testing.B) { benchSpacedLoad(b, system.CycleBased) }

// Figure 8: the 4-core full system, per model; ns/op is per memory
// operation across all cores.
func benchFullSystem(b *testing.B, kind system.Kind) {
	b.Helper()
	coreCfg := cpu.DefaultConfig()
	coreCfg.InstrPerMemOp = 8
	coreCfg.MemOps = uint64(b.N)/4 + 1
	fs, err := system.NewFullSystem(system.MultiCoreConfig{
		Cores: 4,
		Core:  coreCfg,
		Workload: func(id int) trafficgen.Pattern {
			return cpu.CannealWorkload(64<<20, int64(id)+1)
		},
		L1: cache.Config{
			SizeBytes: 64 * 1024, Assoc: 2, LineBytes: 64,
			HitLatency: 2 * sim.Nanosecond, MSHRs: 6, WriteBufferDepth: 8,
		},
		LLC: cache.Config{
			SizeBytes: 512 * 1024, Assoc: 8, LineBytes: 64,
			HitLatency: 12 * sim.Nanosecond, MSHRs: 16, WriteBufferDepth: 16,
		},
		Kind: kind, Spec: dram.DDR3_1333_8x8(), Mapping: dram.RoCoRaBaCh,
		ClosedPage: true, Channels: 1,
		CoreXbar: xbar.Config{Latency: 1 * sim.Nanosecond, QueueDepth: 32},
		MemXbar:  xbar.Config{Latency: 2 * sim.Nanosecond, QueueDepth: 32},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if !fs.Run(1000 * sim.Second) {
		b.Fatal("run did not complete")
	}
	b.StopTimer()
	b.ReportMetric(fs.AggregateIPC(), "IPC")
	b.ReportMetric(fs.LLC.AvgMissLatencyNs(), "l2MissNs")
}

func BenchmarkFig8FullSystemEvent(b *testing.B) { benchFullSystem(b, system.EventBased) }

func BenchmarkFig8FullSystemCycle(b *testing.B) { benchFullSystem(b, system.CycleBased) }

// Figure 9 / Tables II-IV: the three 12.8 GB/s memory systems under the
// 16-core canneal case study (8 cores here to keep bench runs tractable).
func benchFig9(b *testing.B, mc experiments.Fig9Config) {
	b.Helper()
	coreCfg := cpu.DefaultConfig()
	coreCfg.MemOps = uint64(b.N)/8 + 1
	fs, err := system.NewFullSystem(system.MultiCoreConfig{
		Cores: 8,
		Core:  coreCfg,
		Workload: func(id int) trafficgen.Pattern {
			return cpu.CannealWorkload(256<<20, int64(id)+1)
		},
		L1: cache.Config{
			SizeBytes: 64 * 1024, Assoc: 2, LineBytes: 64,
			HitLatency: 2 * sim.Nanosecond, MSHRs: 6, WriteBufferDepth: 8,
		},
		LLC: cache.Config{
			SizeBytes: 8 << 20, Assoc: 16, LineBytes: 64,
			HitLatency: 20 * sim.Nanosecond, MSHRs: 32, WriteBufferDepth: 32,
		},
		Kind: system.EventBased, Spec: mc.Spec, Mapping: dram.RoRaBaCoCh,
		Channels: mc.Channels,
		CoreXbar: xbar.Config{Latency: 1 * sim.Nanosecond, QueueDepth: 64},
		MemXbar:  xbar.Config{Latency: 2 * sim.Nanosecond, QueueDepth: 64},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if !fs.Run(1000 * sim.Second) {
		b.Fatal("run did not complete")
	}
	b.StopTimer()
	b.ReportMetric(fs.AggregateIPC(), "IPC")
	b.ReportMetric(fs.MemBandwidth()/1e9, "GB/s")
}

func BenchmarkFig9(b *testing.B) {
	for _, mc := range experiments.Fig9Configs() {
		mc := mc
		b.Run(mc.Name, func(b *testing.B) { benchFig9(b, mc) })
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
// beside a refresh-like event every 7.8 us that lives in the far heap. An
// event kernel pays per event, not per simulated time skipped, so ns/event
// must read the same at every gap: inside a bucket, a few buckets, most of
// the ring, and beyond the window.
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

// Protocol checking cost over a realistic command trace.
func BenchmarkProtocolCheck(b *testing.B) {
	spec := dram.DDR3_1600_x64()
	var trace power.CommandTrace
	k := sim.NewKernel()
	reg := stats.NewRegistry("b")
	cfg := core.DefaultConfig(spec)
	hub := obs.NewHub()
	hub.Attach(obs.CommandFunc(trace.Record))
	cfg.Probes = hub
	ctrl, err := core.NewController(k, cfg, reg, "mc")
	if err != nil {
		b.Fatal(err)
	}
	gen, err := trafficgen.New(k, trafficgen.Config{
		RequestBytes: 64, MaxOutstanding: 32, Count: 5000,
	}, &trafficgen.Random{Start: 0, End: 1 << 26, Align: 64, ReadPercent: 67, Seed: 3}, reg, "gen")
	if err != nil {
		b.Fatal(err)
	}
	mem.Connect(gen.Port(), ctrl.Port())
	gen.Start()
	for i := 0; i < 10000 && !gen.Done(); i++ {
		k.RunUntil(k.Now() + sim.Microsecond)
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

// The command-trace hook's overhead on the event controller.
func BenchmarkControllerWithCommandTrace(b *testing.B) {
	spec := dram.DDR3_1333_8x8()
	var trace power.CommandTrace
	k := sim.NewKernel()
	reg := stats.NewRegistry("b")
	cfg := core.DefaultConfig(spec)
	hub := obs.NewHub()
	hub.Attach(obs.CommandFunc(trace.Record))
	cfg.Probes = hub
	ctrl, err := core.NewController(k, cfg, reg, "mc")
	if err != nil {
		b.Fatal(err)
	}
	gen, err := trafficgen.New(k, trafficgen.Config{
		RequestBytes: 64, MaxOutstanding: 32, Count: uint64(b.N),
	}, &trafficgen.Linear{Start: 0, End: 1 << 26, Step: 64, ReadPercent: 100}, reg, "gen")
	if err != nil {
		b.Fatal(err)
	}
	mem.Connect(gen.Port(), ctrl.Port())
	b.ResetTimer()
	gen.Start()
	for !gen.Done() {
		k.RunUntil(k.Now() + 10*sim.Microsecond)
	}
	b.StopTimer()
	_ = ctrl
}

// benchControllerProbes drives the event controller with a linear read
// stream under the given probe hub, so the cost of the obs emission sites
// can be compared across hub configurations.
func benchControllerProbes(b *testing.B, hub *obs.Hub) {
	spec := dram.DDR3_1333_8x8()
	k := sim.NewKernel()
	reg := stats.NewRegistry("b")
	cfg := core.DefaultConfig(spec)
	cfg.Probes = hub
	ctrl, err := core.NewController(k, cfg, reg, "mc")
	if err != nil {
		b.Fatal(err)
	}
	gen, err := trafficgen.New(k, trafficgen.Config{
		RequestBytes: 64, MaxOutstanding: 32, Count: uint64(b.N),
	}, &trafficgen.Linear{Start: 0, End: 1 << 26, Step: 64, ReadPercent: 100}, reg, "gen")
	if err != nil {
		b.Fatal(err)
	}
	mem.Connect(gen.Port(), ctrl.Port())
	b.ResetTimer()
	gen.Start()
	for !gen.Done() {
		k.RunUntil(k.Now() + 10*sim.Microsecond)
	}
	b.StopTimer()
	_ = ctrl
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
