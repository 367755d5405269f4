package main

import (
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trafficgen"
	"repro/internal/xbar"
)

// This file is the single table of workload constants and metric
// definitions. BENCHMARK.json mirrors it (smoke_test.go fails when the two
// drift); nothing in the product ever reads a workload name.

// runSeconds is the measuring time of one run, BENCHMARK.json's run_seconds.
const runSeconds = 24

// cycleEvery interleaves one cycle-model segment after every cycleEvery-th
// event-model segment, so host drift hits both models alike.
const cycleEvery = 4

// model selects the controller model of a segment.
type model int

const (
	eventModel model = iota
	cycleModel
)

// topology names the system shape a workload builds.
type topology int

const (
	// topoTraffic is one generator on one controller (system.TrafficRig).
	topoTraffic topology = iota
	// topoFullSys is cores, L1s, LLC, two crossbars and one channel
	// (system.FullSystem).
	topoFullSys
	// topoSharded is generators behind a crossbar with every channel on its
	// own kernel (system.ShardedRig); its single-kernel twin is
	// system.MultiChannelRig.
	topoSharded
)

// patternKind selects the address pattern of the generator workloads.
type patternKind int

const (
	patDRAMAware patternKind = iota
	patRandom
	patLinear
)

// workload is one row of the benchmark's workload table. A "request" is a
// generator request, or a core memory operation in the full system.
type workload struct {
	name string
	why  string
	topo topology

	// evReqs and cyReqs are the requests of one event-model and one
	// cycle-model segment; quickReqs replaces both under -quick and in tests.
	evReqs, cyReqs, quickReqs uint64

	pattern     patternKind
	readPct     int
	outstanding int
	itt         sim.Tick // generator inter-transaction time
	footprint   uint64   // pattern address range in bytes
	closedPage  bool
	mapping     dram.Mapping
	channels    int
	workers     int // sharded rig worker goroutines of the gated run
}

// workloads is the table. All systems are DDR3-1333 8x8 with the matched
// queue depths of system.Matched*Config.
var workloads = []workload{
	{
		name: "stream_reads_sat", topo: topoTraffic,
		why:    "row-hit read stream at saturation (Fig. 3): controller work is cheap, so kernel, port, generator and stats cost per request dominates",
		evReqs: 20000, cyReqs: 6000, quickReqs: 1000,
		pattern: patDRAMAware, readPct: 100, outstanding: 32,
		mapping: dram.RoRaBaCoCh, channels: 1,
	},
	{
		name: "mix_random_wrdrain", topo: topoTraffic,
		why:    "random 50% reads over 256 MiB: row misses, deep FR-FCFS scans and write-drain switching make the controller dominate; writes beside reads",
		evReqs: 8000, cyReqs: 2400, quickReqs: 1000,
		pattern: patRandom, readPct: 50, outstanding: 32, footprint: 256 << 20,
		mapping: dram.RoRaBaCoCh, channels: 1,
	},
	{
		name: "sparse_reads_lowload", topo: topoTraffic,
		why:    "linear reads every 48 ns (low load, paper III-D): long simulated gaps exercise the kernel's bucket-skip path and refresh; arbitration is idle",
		evReqs: 16000, cyReqs: 4000, quickReqs: 1000,
		pattern: patLinear, readPct: 100, outstanding: 16, itt: 48 * sim.Nanosecond, footprint: 64 << 20,
		mapping: dram.RoRaBaCoCh, channels: 1,
	},
	{
		name: "fullsys_canneal_4c", topo: topoFullSys,
		why:    "4 cores of canneal over L1s, LLC and two crossbars (Fig. 8): cpu, cache and xbar are most of the cost; the only workload with steady-state allocations",
		evReqs: 4000, cyReqs: 2000, quickReqs: 1000,
		footprint: 64 << 20, closedPage: true,
		mapping: dram.RoCoRaBaCh, channels: 1,
	},
	{
		name: "multichan_4ch", topo: topoSharded,
		why:    "4 channels sharded over 4 kernels stepped by one worker (dramctrl -channels 4): crossbar, shard links, quantum barrier; 2-worker stepping is a per-layer number",
		evReqs: 4000, cyReqs: 1200, quickReqs: 1000,
		pattern: patLinear, readPct: 80, outstanding: 32, footprint: 64 << 20,
		mapping: dram.RoRaBaCoCh, channels: 4, workers: 1,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// DRAM-aware pattern shape of stream_reads_sat (the Fig. 3 point).
const (
	awareStrideBursts = 8
	awareBanks        = 4
)

// Full-system shape (the Fig. 8 configuration of bench_test.go).
const (
	fullSysCores         = 4
	fullSysInstrPerMemOp = 8
)

func spec() dram.Spec { return dram.DDR3_1333_8x8() }

// units is the number of independent requestors (generators or cores).
func (w *workload) units() int {
	switch w.topo {
	case topoFullSys:
		return fullSysCores
	case topoSharded:
		return w.channels
	}
	return 1
}

// unitSeed derives requestor i's pattern seed from the run seed.
func (w *workload) unitSeed(seed int64, i int) int64 {
	return seed*int64(w.units()) + int64(i)
}

// pattern returns requestor i's address pattern for the run seed. Patterns
// with a 100% read share and no random addresses (DRAM-aware, linear) are
// the same for every seed; that is their definition, not an omission.
func (w *workload) newPattern(seed int64, i int) trafficgen.Pattern {
	s := w.unitSeed(seed, i)
	burst := spec().Org.BurstBytes()
	switch {
	case w.topo == topoFullSys:
		return cpu.CannealWorkload(w.footprint, s)
	case w.pattern == patDRAMAware:
		dec, err := dram.NewDecoder(spec().Org, w.mapping, 1)
		if err != nil {
			panic(err) // fixed table entry; cannot fail
		}
		return &trafficgen.DRAMAware{Decoder: dec, StrideBursts: awareStrideBursts,
			Banks: awareBanks, ReadPercent: w.readPct, Seed: s}
	case w.pattern == patRandom:
		return &trafficgen.Random{Start: 0, End: mem.Addr(w.footprint), Align: burst,
			ReadPercent: w.readPct, Seed: s}
	}
	return &trafficgen.Linear{Start: 0, End: mem.Addr(w.footprint), Step: burst,
		ReadPercent: w.readPct, Seed: s}
}

// genConfig shapes requestor i's generator for a segment of reqs requests.
func (w *workload) genConfig(reqs uint64, i int) trafficgen.Config {
	return trafficgen.Config{
		RequestBytes:     spec().Org.BurstBytes(),
		MaxOutstanding:   w.outstanding,
		InterTransaction: w.itt,
		Count:            reqs / uint64(w.units()),
		RequestorID:      i,
	}
}

func (w *workload) coreConfig(reqs uint64) cpu.Config {
	c := cpu.DefaultConfig()
	c.InstrPerMemOp = fullSysInstrPerMemOp
	c.MemOps = reqs / uint64(w.units())
	return c
}

func l1Config() cache.Config {
	return cache.Config{SizeBytes: 64 * 1024, Assoc: 2, LineBytes: 64,
		HitLatency: 2 * sim.Nanosecond, MSHRs: 6, WriteBufferDepth: 8}
}

func llcConfig() cache.Config {
	return cache.Config{SizeBytes: 512 * 1024, Assoc: 8, LineBytes: 64,
		HitLatency: 12 * sim.Nanosecond, MSHRs: 16, WriteBufferDepth: 16}
}

func coreXbarConfig() xbar.Config {
	return xbar.Config{Latency: 1 * sim.Nanosecond, QueueDepth: 32}
}

func memXbarConfig() xbar.Config {
	return xbar.Config{Latency: 2 * sim.Nanosecond, QueueDepth: 32}
}

// chanXbarConfig is the crossbar of the multi-channel workloads.
func chanXbarConfig() xbar.Config {
	return xbar.Config{Latency: 2 * sim.Nanosecond, QueueDepth: 64}
}

// maxSim bounds the simulated time of one segment.
const maxSim = 1000 * sim.Second

// metricDef is one named metric: BENCHMARK.json's name/unit/better (and
// bound, for end-to-end metrics). README.md says where each number comes from.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median
}

// endToEnd are the gated metrics, reported per workload with -trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"host_ns_per_req", "ns", "lower", 0.25},
	{"allocs_per_req", "count", "lower", 0.10},
	{"heap_live_mb", "MiB", "lower", 0.25},
	{"bw_match_vs_cycle_pct", "%", "higher", 0.15},
	{"lat_match_vs_cycle_pct", "%", "higher", 0.10},
	{"ok_req_share", "fraction", "higher", 0.001},
	{"events_per_req", "count", "lower", 0.10},
}

// perLayer are the per-layer metrics, reported per workload with -trace 1.
// The prefix before the first dot is the layer (= package name).
var perLayer = []metricDef{
	{"sim.ns_per_event_dense", "ns", "lower", 0},
	{"sim.ns_per_event_sparse", "ns", "lower", 0},
	{"sim.ns_per_event_matched", "ns", "lower", 0},
	{"sim.ns_per_call", "ns", "lower", 0},
	{"sim.share_ns", "ns", "lower", 0},

	{"mem.port_ns_per_hop", "ns", "lower", 0},
	{"mem.pool_ns_per_pkt", "ns", "lower", 0},
	{"mem.link_ns_per_pkt", "ns", "lower", 0},
	{"mem.link_share_ns", "ns", "lower", 0},
	{"mem.req_refused_share", "fraction", "lower", 0},

	{"stats.ns_per_inc", "ns", "lower", 0},
	{"stats.ns_per_hist_sample", "ns", "lower", 0},

	{"dram.decode_ns", "ns", "lower", 0},

	{"trafficgen.pattern_ns_per_addr", "ns", "lower", 0},
	{"trafficgen.iso_ns_per_req", "ns", "lower", 0},
	{"trafficgen.recv_resp_ns", "ns", "lower", 0},
	{"trafficgen.share_ns", "ns", "lower", 0},

	{"core.recv_req_ns", "ns", "lower", 0},
	{"core.iso_ns_per_req", "ns", "lower", 0},
	{"core.event_ns_per_req", "ns", "lower", 0},
	{"core.share_ns", "ns", "lower", 0},
	{"core.row_hit_rate", "fraction", "higher", 0},
	{"core.bus_util", "fraction", "higher", 0},
	{"core.avg_rdq_len", "count", "lower", 0},
	{"core.avg_wrq_len", "count", "lower", 0},
	{"core.wr_merged_share", "fraction", "higher", 0},
	{"core.rd_forwarded_share", "fraction", "higher", 0},
	{"core.turnarounds_per_kreq", "count", "lower", 0},
	{"core.refreshes_per_kreq", "count", "lower", 0},
	{"core.sim_bw_gbs", "GB/s", "higher", 0},
	{"core.sim_read_lat_ns", "ns", "lower", 0},

	{"cyclesim.host_ns_per_req", "ns", "lower", 0},
	{"cyclesim.events_per_req", "count", "lower", 0},
	{"cyclesim.cycles_per_req", "count", "lower", 0},
	{"cyclesim.allocs_per_req", "count", "lower", 0},
	{"cyclesim.sim_bw_gbs", "GB/s", "higher", 0},
	{"cyclesim.sim_read_lat_ns", "ns", "lower", 0},
	{"cyclesim.speedup_vs_cycle", "ratio", "higher", 0},

	{"xbar.recv_req_ns", "ns", "lower", 0},
	{"xbar.recv_resp_ns", "ns", "lower", 0},
	{"xbar.iso_ns_per_pkt", "ns", "lower", 0},
	{"xbar.share_ns", "ns", "lower", 0},
	{"xbar.blocked_share", "fraction", "lower", 0},

	{"cache.l1_recv_req_ns", "ns", "lower", 0},
	{"cache.llc_recv_req_ns", "ns", "lower", 0},
	{"cache.l1_recv_resp_ns", "ns", "lower", 0},
	{"cache.llc_recv_resp_ns", "ns", "lower", 0},
	{"cache.iso_hit_ns", "ns", "lower", 0},
	{"cache.iso_miss_ns", "ns", "lower", 0},
	{"cache.share_ns", "ns", "lower", 0},
	{"cache.l1_hit_rate", "fraction", "higher", 0},
	{"cache.llc_hit_rate", "fraction", "higher", 0},
	{"cache.llc_mshr_blocked_share", "fraction", "lower", 0},
	{"cache.writebacks_per_kreq", "count", "lower", 0},
	{"cache.llc_miss_lat_ns", "ns", "lower", 0},

	{"cpu.iso_ns_per_memop", "ns", "lower", 0},
	{"cpu.recv_resp_ns", "ns", "lower", 0},
	{"cpu.share_ns", "ns", "lower", 0},
	{"cpu.ipc", "ratio", "higher", 0},
	{"cpu.stall_share", "fraction", "lower", 0},

	{"system.segments", "count", "higher", 0},
	{"system.host_ns_per_req", "ns", "lower", 0},
	{"system.host_ns_per_req_best3", "ns", "lower", 0},
	{"system.host_ns_per_req_p25", "ns", "lower", 0},
	{"system.host_ns_per_req_p90", "ns", "lower", 0},
	{"system.seg_iqr_pct", "%", "lower", 0},
	{"system.run_allocs_per_req", "count", "lower", 0},
	{"system.gc_cycles_per_mreq", "count", "lower", 0},
	{"system.traced_ns_per_req", "ns", "lower", 0},
	{"system.trace_overhead_pct", "%", "lower", 0},
	{"system.trace_clock_ns", "ns", "lower", 0},
	{"system.unattributed_pct", "%", "lower", 0},
	{"system.barriers_per_kreq", "count", "lower", 0},
	{"system.step_ns", "ns", "lower", 0},
	{"system.singlekernel_ns_per_req", "ns", "lower", 0},
	{"system.shard_overhead_ratio", "ratio", "lower", 0},
	{"system.host_ns_per_req_2w", "ns", "lower", 0},
	{"system.parallel_speedup_2w", "ratio", "higher", 0},
	{"system.undersubscribed", "count", "lower", 0},
}

// routeDecoder is the address decoder of the workload's controllers.
func routeDecoder(w *workload) (dram.Decoder, error) {
	return dram.NewDecoder(spec().Org, w.mapping, w.channels)
}
