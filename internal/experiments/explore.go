package experiments

import (
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trafficgen"
	"repro/internal/xbar"
)

// ExploreMemOps and ExploreCores are explore's defaults.
const (
	ExploreMemOps = 3000
	ExploreCores  = 16
)

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

// LatencyBreakdown splits the average read latency the way Figure 9 does.
type LatencyBreakdown struct {
	// QueueNs is time spent waiting in controller queues.
	QueueNs float64 `json:"queueNs"`
	// BankNs is the row/column access time (tRCD weighted by miss rate, plus
	// tCL).
	BankNs float64 `json:"bankNs"`
	// BusNs is the data transfer time (tBURST).
	BusNs float64 `json:"busNs"`
	// StaticNs is the frontend + backend controller latency.
	StaticNs float64 `json:"staticNs"`
}

// Fig9Row is the measurement for one memory system. The tags, with the
// breakdown's fields inlined, are the row's canonical JSON form (see
// resultjson.go).
type Fig9Row struct {
	Name string `json:"name"`
	// IPC is the 16-core aggregate IPC; NormIPC is relative to DDR3.
	IPC     float64 `json:"ipc"`
	NormIPC float64 `json:"normIPC"`
	// AvgReadLatencyNs is the controller-observed read latency, split into
	// the breakdown.
	AvgReadLatencyNs float64 `json:"avgReadLatencyNs"`
	LatencyBreakdown
	// BandwidthGBs is the achieved aggregate bandwidth.
	BandwidthGBs float64 `json:"bandwidthGBs"`
	// RowHitRate is the average across channels.
	RowHitRate float64 `json:"rowHitRate"`
	// PowerMW is the total Micron-model DRAM power across channels.
	PowerMW float64 `json:"powerMW"`
}

// Fig9Result is the complete case study.
type Fig9Result struct {
	Rows []Fig9Row
}

// Point is the §IV-B case-study system over this memory: cores running
// canneal behind Table II L1s and a shared 8 MByte LLC, on the event-based
// controller.
func (mc Fig9Config) Point(memOps uint64, cores int) FullPoint {
	coreCfg := cpu.DefaultConfig()
	coreCfg.MemOps = memOps
	return FullPoint{Name: "fig9 " + mc.Name, Limit: 10 * sim.Second, MultiCoreConfig: system.MultiCoreConfig{
		Cores: cores,
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
		Kind:     system.EventBased,
		Spec:     mc.Spec,
		Mapping:  dram.RoRaBaCoCh, // Table III: open page, RoRaBaCoCh-style
		Channels: mc.Channels,
		CoreXbar: xbar.Config{Latency: 1 * sim.Nanosecond, QueueDepth: 64},
		MemXbar:  xbar.Config{Latency: 2 * sim.Nanosecond, QueueDepth: 64},
	}}
}

// RunFig9 runs the 16-core canneal memory-sensitivity study (paper §IV-B,
// Tables II-IV, Figure 9) on the event-based controller. An interrupted study
// returns the completed rows without normalised IPC — the DDR3 baseline may
// be missing.
func (r Runner) RunFig9(memOps uint64, cores int) (*Fig9Result, error) {
	res := &Fig9Result{}
	for _, mc := range Fig9Configs() {
		row, err := r.runExplorePoint(mc, memOps, cores)
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, row)
	}
	// Normalise to the first (DDR3) row, which only a complete study has.
	for i := range res.Rows {
		res.Rows[i].NormIPC = res.Rows[i].IPC / res.Rows[0].IPC
	}
	return res, nil
}

// NumExplorePoints returns the number of memory systems in the case study.
func NumExplorePoints() int { return len(Fig9Configs()) }

// runExplorePoint measures one memory system of the case study: RunFig9's
// loop body. NormIPC is left zero — it needs the DDR3 baseline.
func (r Runner) runExplorePoint(mc Fig9Config, memOps uint64, cores int) (Fig9Row, error) {
	fs, _, err := r.RunFull(mc.Point(memOps, cores))
	if err != nil {
		return Fig9Row{}, err
	}

	row := Fig9Row{Name: mc.Name, IPC: fs.AggregateIPC()}
	var latSum, hitSum float64
	for _, c := range fs.Ctrls {
		latSum += c.AvgReadLatencyNs()
		hitSum += c.RowHitRate()
		act := c.PowerStats()
		row.PowerMW += power.Compute(mc.Spec, act).TotalMW()
	}
	n := float64(len(fs.Ctrls))
	row.AvgReadLatencyNs = latSum / n
	row.RowHitRate = hitSum / n
	row.BandwidthGBs = fs.MemBandwidth() / 1e9

	// Split the average latency: static is configured, bank/bus follow from
	// the timings and measured hit rate, queueing is the remainder.
	t := mc.Spec.Timing
	busNs := t.TBURST.Nanoseconds()
	bankNs := t.TCL.Nanoseconds() + (1-row.RowHitRate)*t.TRCD.Nanoseconds()
	staticNs := 0.0 // validation-matched controllers run with zero static latency
	queueNs := row.AvgReadLatencyNs - busNs - bankNs - staticNs
	if queueNs < 0 {
		queueNs = 0
	}
	row.LatencyBreakdown = LatencyBreakdown{
		StaticNs: staticNs, QueueNs: queueNs, BankNs: bankNs, BusNs: busNs,
	}
	return row, nil
}
