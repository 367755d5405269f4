package experiments

import (
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trafficgen"
	"repro/internal/xbar"
)

// Fig8Row is the Figure 8 comparison for one workload: the ratio of the
// cycle-based (DRAMSim2-style) model's metrics to the event-based model's.
// The paper reports ratios near 1 everywhere, with simulation time reduced
// by up to 20% (13% on average) by the event-based model.
type Fig8Row struct {
	Workload string
	// SimTimeRatio is host time cycle/event (>1 means the event model is
	// faster).
	SimTimeRatio float64
	// IPCRatio, MissLatRatio and BusUtilRatio are cycle/event metric
	// ratios; 1.0 means perfect correlation.
	IPCRatio     float64
	MissLatRatio float64
	BusUtilRatio float64
}

// Fig8Result is the full-system validation run.
type Fig8Result struct {
	Rows []Fig8Row
	// AvgSimTimeReduction is 1 - event/cycle host time, averaged.
	AvgSimTimeReduction float64
}

// Fig8Point is the 4-core PARSEC-like full system of Figure 8 running one of
// the synthetic workloads on the given model, memOps operations per core.
func Fig8Point(kind system.Kind, workload string, memOps uint64) FullPoint {
	coreCfg := cpu.DefaultConfig()
	coreCfg.MemOps = memOps
	// PARSEC-like compute-to-memory ratio: with caches absorbing most
	// accesses, DRAM sees realistic (sub-saturation) pressure, which is the
	// regime in which the paper reports near-perfect correlation.
	coreCfg.InstrPerMemOp = 8
	return FullPoint{Name: "fig8 " + workload, Limit: 10 * sim.Second, MultiCoreConfig: system.MultiCoreConfig{
		Cores:    4,
		Core:     coreCfg,
		Workload: func(id int) trafficgen.Pattern { return fig8Workload(workload, id) },
		// Paper Table II cache shapes (L1D 64k/2-way, L2 512k/8-way).
		L1: cache.Config{
			SizeBytes: 64 * 1024, Assoc: 2, LineBytes: 64,
			HitLatency: 2 * sim.Nanosecond, MSHRs: 6, WriteBufferDepth: 8,
		},
		LLC: cache.Config{
			SizeBytes: 512 * 1024, Assoc: 8, LineBytes: 64,
			HitLatency: 12 * sim.Nanosecond, MSHRs: 16, WriteBufferDepth: 16,
		},
		Kind:       kind,
		Spec:       dram.DDR3_1333_8x8(),
		Mapping:    dram.RoCoRaBaCh,
		ClosedPage: true, // §IV-A: both models employ a closed-page policy
		Channels:   1,
		CoreXbar:   xbar.Config{Latency: 1 * sim.Nanosecond, QueueDepth: 32},
		MemXbar:    xbar.Config{Latency: 2 * sim.Nanosecond, QueueDepth: 32},
	}}
}

// fig8Workloads names the synthetic PARSEC stand-ins (see DESIGN.md).
var fig8Workloads = []string{"canneal", "streamcluster", "blackscholes", "fluidanimate", "x264", "dedup"}

func fig8Workload(name string, coreID int) trafficgen.Pattern {
	seed := int64(coreID) + 1
	switch name {
	case "canneal":
		return cpu.CannealWorkload(64<<20, seed)
	case "streamcluster":
		return &cpu.Offset{
			Base:    mem.Addr(coreID) * (32 << 20),
			Pattern: cpu.StreamWorkload(32<<20, seed),
		}
	case "blackscholes":
		return cpu.ComputeWorkload(128*1024, seed)
	case "fluidanimate":
		return &cpu.MixedWorkload{HotSet: 256 * 1024, Footprint: 32 << 20, ColdEvery: 8, Seed: seed}
	case "x264":
		return &cpu.BurstyWorkload{
			FrameBytes: 64 * 1024, HotSet: 128 * 1024,
			ComputeAccesses: 256, Footprint: 64 << 20, Seed: seed,
		}
	case "dedup":
		return &cpu.DedupWorkload{
			TableBytes: 4 << 20, ChunkBytes: 8 * 1024,
			Footprint: 64 << 20, Seed: seed,
		}
	default:
		panic("experiments: unknown workload " + name)
	}
}

// RunFig8 executes the full-system comparison for every workload.
func (r Runner) RunFig8(memOps uint64) (*Fig8Result, error) {
	res := &Fig8Result{}
	var reductionSum float64
	for _, wl := range fig8Workloads {
		ev, evHost, err := r.RunFull(Fig8Point(system.EventBased, wl, memOps))
		if err != nil {
			return res, err
		}
		cy, cyHost, err := r.RunFull(Fig8Point(system.CycleBased, wl, memOps))
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, Fig8Row{
			Workload:     wl,
			SimTimeRatio: float64(cyHost) / float64(evHost),
			IPCRatio:     ratioOrOne(cy.AggregateIPC(), ev.AggregateIPC()),
			MissLatRatio: ratioOrOne(cy.LLC.AvgMissLatencyNs(), ev.LLC.AvgMissLatencyNs()),
			BusUtilRatio: ratioOrOne(cy.AvgBusUtilisation(), ev.AvgBusUtilisation()),
		})
		reductionSum += 1 - float64(evHost)/float64(cyHost)
		res.AvgSimTimeReduction = reductionSum / float64(len(res.Rows))
	}
	return res, nil
}

func ratioOrOne(a, b float64) float64 {
	if b == 0 {
		return 1
	}
	return a / b
}
