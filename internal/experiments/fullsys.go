package experiments

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trafficgen"
	"repro/internal/xbar"
)

// fullPoint is a full system of cfg's cores, each over a paper Table II L1
// (64 KiB, 2-way), sharing llc, behind crossbars queue entries deep, on cfg's
// memory. Each core runs s.N memory operations of workload, core i seeded
// s.Seed+i.
func fullPoint(name string, s Setup, llc cache.Config, queue int, workload func(core int, seed int64) trafficgen.Pattern, cfg system.MultiCoreConfig) FullPoint {
	cfg.Core.MemOps = s.N
	cfg.Workload = func(id int) trafficgen.Pattern { return workload(id, s.Seed+int64(id)) }
	cfg.L1 = cache.Config{SizeBytes: 64 * 1024, Assoc: 2, LineBytes: 64, HitLatency: 2 * sim.Nanosecond, MSHRs: 6, WriteBufferDepth: 8}
	cfg.LLC = llc
	cfg.CoreXbar = xbar.Config{Latency: 1 * sim.Nanosecond, QueueDepth: queue}
	cfg.MemXbar = xbar.Config{Latency: 2 * sim.Nanosecond, QueueDepth: queue}
	return FullPoint{Name: name, Limit: 10 * sim.Second, MultiCoreConfig: cfg}
}

// fig8Workload is a synthetic PARSEC stand-in (see DESIGN.md): a name and a
// core's address pattern.
type fig8Workload struct {
	name    string
	pattern func(core int, seed int64) trafficgen.Pattern
}

var fig8Workloads = []fig8Workload{
	{"canneal", func(_ int, seed int64) trafficgen.Pattern { return cpu.CannealWorkload(64<<20, seed) }},
	{"streamcluster", func(core int, seed int64) trafficgen.Pattern {
		return &cpu.Offset{Base: mem.Addr(core) * (32 << 20), Pattern: cpu.StreamWorkload(32<<20, seed)}
	}},
	{"blackscholes", func(_ int, seed int64) trafficgen.Pattern { return cpu.ComputeWorkload(128*1024, seed) }},
	{"fluidanimate", func(_ int, seed int64) trafficgen.Pattern {
		return &cpu.MixedWorkload{HotSet: 256 * 1024, Footprint: 32 << 20, ColdEvery: 8, Seed: seed}
	}},
	{"x264", func(_ int, seed int64) trafficgen.Pattern {
		return &cpu.BurstyWorkload{FrameBytes: 64 * 1024, HotSet: 128 * 1024, ComputeAccesses: 256, Footprint: 64 << 20, Seed: seed}
	}},
	{"dedup", func(_ int, seed int64) trafficgen.Pattern {
		return &cpu.DedupWorkload{TableBytes: 4 << 20, ChunkBytes: 8 * 1024, Footprint: 64 << 20, Seed: seed}
	}},
}

// fig8Point is the 4-core PARSEC-like full system of Figure 8 running workload
// w on the given model and device, with the paper's Table II L2 (512 KiB,
// 8-way) as its LLC.
func fig8Point(kind system.Kind, w int, s Setup, spec dram.Spec) FullPoint {
	coreCfg := cpu.DefaultConfig()
	// PARSEC-like compute-to-memory ratio: with caches absorbing most
	// accesses, DRAM sees realistic (sub-saturation) pressure, which is the
	// regime in which the paper reports near-perfect correlation.
	coreCfg.InstrPerMemOp = 8
	llc := cache.Config{SizeBytes: 512 * 1024, Assoc: 8, LineBytes: 64, HitLatency: 12 * sim.Nanosecond, MSHRs: 16, WriteBufferDepth: 16}
	return fullPoint("fig8 "+fig8Workloads[w].name, s, llc, 32, fig8Workloads[w].pattern, system.MultiCoreConfig{
		Cores: 4, Core: coreCfg, Kind: kind, Spec: spec, Mapping: dram.RoCoRaBaCh, Channels: 1,
		ClosedPage: true, // §IV-A: both models employ a closed-page policy
	})
}

// Fig8Point is fig8Point on the study's device: memOps per core of the named
// workload, core i seeded seed+i.
func Fig8Point(kind system.Kind, workload string, memOps uint64, seed int64) FullPoint {
	w := slices.IndexFunc(fig8Workloads, func(wl fig8Workload) bool { return wl.name == workload })
	return fig8Point(kind, w, Setup{N: memOps, Seed: seed}, fig8Study.Spec)
}

// fig8Study is the Figure 8 comparison: for each workload, the ratio of the
// cycle-based (DRAMSim2-style) model's metrics to the event-based model's.
// The paper reports ratios near 1 everywhere, with simulation time reduced by
// up to 20% (13% on average) by the event-based model. The simulation-time
// ratio is of host time, cycle/event (>1 means the event model is faster);
// the reduction is 1 - event/cycle host time.
var fig8Study = &Study{
	Name: "8", Flags: "memops", Count: 5000, Spec: dram.DDR3_1333_8x8(), Seed: 1,
	Cases: func(s Setup, spec dram.Spec) (cases []Case) {
		for w, wl := range fig8Workloads {
			cases = append(cases, Case{wl.name, func(r Runner) (Row, error) {
				var fs [2]*system.FullSystem
				var host [2]time.Duration
				for i, kind := range models {
					var err error
					if fs[i], host[i], err = r.RunFull(fig8Point(kind, w, s, spec)); err != nil {
						return nil, err
					}
				}
				ev, cy := fs[0], fs[1]
				return Row{{"workload", wl.name}, {"simTime", float64(host[1]) / float64(host[0])},
					{"ipc", ratioOrOne(cy.AggregateIPC(), ev.AggregateIPC())},
					{"missLat", ratioOrOne(cy.LLC.AvgMissLatencyNs(), ev.LLC.AvgMissLatencyNs())},
					{"busUtil", ratioOrOne(cy.AvgBusUtilisation(), ev.AvgBusUtilisation())},
					{"reduction", 1 - float64(host[0])/float64(host[1])}}, nil
			}})
		}
		return cases
	},
	Title: func(t *Table) string {
		return fmt.Sprintf("Full-system comparison (Figure 8): 4 cores, %d mem ops/core, DDR3, closed page\n"+
			"ratios are cycle-based / event-based; 1.00 = perfect correlation\n\n", t.Setup.N)
	},
	Columns: []Column{{"workload", "workload", "%-16s"}, {"simTime", "sim time", "%9.2fx"}, {"ipc", "IPC", "%10.2f"},
		{"missLat", "L2 miss lat", "%12.2f"}, {"busUtil", "bus util", "%10.2f"}},
	Footer: func(t *Table) string {
		return fmt.Sprintf("\naverage simulation-time reduction from the event-based model: %.0f%%\n"+
			"(paper reports up to 20%%, 13%% on average, with metric ratios near 1)\n", t.Mean("reduction")*100)
	},
	Partial: "%[1]d workloads",
}

func ratioOrOne(a, b float64) float64 {
	if b == 0 {
		return 1
	}
	return a / b
}

// Fig9Config is one memory technology in the §IV-B case study: the Table IV
// DDR3 / LPDDR3 / WideIO configurations, all at 12.8 GB/s aggregate.
type Fig9Config struct {
	Name     string
	Spec     dram.Spec
	Channels int
}

// Fig9Configs returns the paper's three memory systems.
func Fig9Configs() []Fig9Config {
	return []Fig9Config{
		{Name: "DDR3", Spec: dram.DDR3_1600_x64(), Channels: 1},
		{Name: "LPDDR3", Spec: dram.LPDDR3_1600_x32(), Channels: 2},
		{Name: "WideIO", Spec: dram.WideIO_200_x128(), Channels: 4},
	}
}

// Point is the §IV-B case-study system over this memory: cores running
// canneal behind a shared 8 MByte LLC, on the event-based controller, core i
// seeded seed+i.
func (mc Fig9Config) Point(memOps uint64, cores int, seed int64) FullPoint {
	llc := cache.Config{SizeBytes: 8 << 20, Assoc: 16, LineBytes: 64, HitLatency: 20 * sim.Nanosecond, MSHRs: 32, WriteBufferDepth: 32}
	canneal := func(_ int, seed int64) trafficgen.Pattern { return cpu.CannealWorkload(256<<20, seed) }
	return fullPoint("fig9 "+mc.Name, Setup{N: memOps, Seed: seed}, llc, 64, canneal, system.MultiCoreConfig{
		Cores: cores, Core: cpu.DefaultConfig(), Kind: system.EventBased, Spec: mc.Spec, Channels: mc.Channels,
		Mapping: dram.RoRaBaCoCh, // Table III: open page, RoRaBaCoCh-style
	})
}

// fig9Study is the 16-core canneal memory-sensitivity study (paper §IV-B,
// Tables II-IV, Figure 9) on the event-based controller. Each row's IPC is
// the cores' aggregate, and normalised to DDR3's, which only a complete run
// has; the read latency is the controller-observed one, split as Figure 9
// does; row hits are the channels' average, power their Micron-model total.
var fig9Study = &Study{
	Name: "9", Flags: "memops cores json", Count: 3000, Seed: 1,
	Cases: func(s Setup, _ dram.Spec) []Case {
		return each(Fig9Configs(), func(mc Fig9Config) Case {
			return Case{mc.Name, func(r Runner) (Row, error) {
				fs, _, err := r.RunFull(mc.Point(s.N, s.Cores, s.Seed))
				if err != nil {
					return nil, err
				}
				var latSum, hitSum, powerMW float64
				for _, c := range fs.Ctrls {
					latSum += c.AvgReadLatencyNs()
					hitSum += c.RowHitRate()
					powerMW += power.Compute(mc.Spec, c.PowerStats()).TotalMW()
				}
				n := float64(len(fs.Ctrls))
				lat, hits := latSum/n, hitSum/n
				// Static latency is configured (zero: validation-matched
				// controllers run without it), bank and bus follow from the
				// timings and the measured hit rate, queueing is the rest.
				t := mc.Spec.Timing
				busNs := t.TBURST.Nanoseconds()
				bankNs := t.TCL.Nanoseconds() + (1-hits)*t.TRCD.Nanoseconds()
				staticNs := 0.0
				queueNs := max(lat-busNs-bankNs-staticNs, 0)
				return Row{{"name", mc.Name}, {"ipc", fs.AggregateIPC()}, {"normIPC", 0.0}, {"avgReadLatencyNs", lat},
					{"queueNs", queueNs}, {"bankNs", bankNs}, {"busNs", busNs}, {"staticNs", staticNs},
					{"bandwidthGBs", fs.MemBandwidth() / 1e9}, {"rowHitRate", hits}, {"powerMW", powerMW}}, nil
			}}
		})
	},
	Title: func(t *Table) string {
		return fmt.Sprintf("Memory technology exploration (Figure 9): %d-core canneal, shared 8 MB LLC\n"+
			"all three memory systems offer 12.8 GB/s aggregate (Table IV)\n\n", t.Setup.Cores)
	},
	Columns: []Column{{"name", "memory", "%-8s"}, {"ipc", "IPC", "%8.3f"}, {"normIPC", "IPC/DDR3", "%9.2f"},
		{"avgReadLatencyNs", "rd lat ns", "%10.1f"}, {"rowHitRate", "row hits", "%9.3f"},
		{"bandwidthGBs", "BW GB/s", "%10.2f"}, {"powerMW", "power mW", "%10.1f"}},
	Footer: func(t *Table) string {
		return "\nread latency breakdown (ns):\n" + t.Format([]Column{{"name", "memory", "%-8s"},
			{"queueNs", "queue", "%8.1f"}, {"bankNs", "bank", "%8.1f"}, {"busNs", "bus", "%8.1f"}, {"staticNs", "static", "%8.1f"}})
	},
	Partial: "%[1]d of %[2]d memory systems, IPC not normalised",
	Finish: func(rows []Row) {
		for _, row := range rows {
			row.set("normIPC", row.Float("ipc")/rows[0].Float("ipc"))
		}
	},
	// "kind" names the command that first wrote this form, so that old files
	// and new compare; "normalized" says whether normIPC was computed.
	JSON: func(t *Table) Row {
		return Row{{"kind", "explore"}, {"memOps", t.Setup.N}, {"cores", t.Setup.Cores},
			{"partial", t.Partial()}, {"normalized", !t.Partial()}}
	},
}
