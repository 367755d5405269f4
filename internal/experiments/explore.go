package experiments

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trafficgen"
	"repro/internal/xbar"
)

// Fig9Config is one memory technology in the §IV-B case study: the Table IV
// DDR3 / LPDDR3 / WideIO configurations, all at 12.8 GB/s aggregate.
type Fig9Config struct {
	Name     string
	Spec     dram.Spec
	Channels int
	// BackendNs reflects the interface's PHY/IO cost: DIMM for DDR3, PoP
	// for LPDDR3, TSV for WideIO (§II-B's backend latency knob).
	BackendNs float64
}

// Fig9Configs returns the paper's three memory systems.
func Fig9Configs() []Fig9Config {
	return []Fig9Config{
		{Name: "DDR3", Spec: dram.DDR3_1600_x64(), Channels: 1, BackendNs: 10},
		{Name: "LPDDR3", Spec: dram.LPDDR3_1600_x32(), Channels: 2, BackendNs: 8},
		{Name: "WideIO", Spec: dram.WideIO_200_x128(), Channels: 4, BackendNs: 4},
	}
}

// LatencyBreakdown splits the average read latency the way Figure 9 does.
type LatencyBreakdown struct {
	// StaticNs is the frontend + backend controller latency.
	StaticNs float64
	// QueueNs is time spent waiting in controller queues.
	QueueNs float64
	// BankNs is the row/column access time (tRCD weighted by miss rate, plus
	// tCL).
	BankNs float64
	// BusNs is the data transfer time (tBURST).
	BusNs float64
}

// Fig9Row is the measurement for one memory system.
type Fig9Row struct {
	Name string
	// IPC is the 16-core aggregate IPC; NormIPC is relative to DDR3.
	IPC     float64
	NormIPC float64
	// AvgReadLatencyNs is the controller-observed read latency, split into
	// Breakdown.
	AvgReadLatencyNs float64
	Breakdown        LatencyBreakdown
	// BandwidthGBs is the achieved aggregate bandwidth.
	BandwidthGBs float64
	// RowHitRate is the average across channels.
	RowHitRate float64
	// PowerMW is the total Micron-model DRAM power across channels.
	PowerMW float64
}

// Fig9Result is the complete case study.
type Fig9Result struct {
	Rows []Fig9Row
}

// RunFig9 runs the 16-core canneal memory-sensitivity study (paper §IV-B,
// Tables II-IV, Figure 9) on the event-based controller.
func RunFig9(memOps uint64, cores int) (*Fig9Result, error) {
	return RunFig9Stoppable(memOps, cores, nil)
}

// RunFig9Stoppable is RunFig9 with a stop check polled between memory
// configurations; once it returns true the completed rows come back with
// ErrInterrupted (no normalised IPC — the DDR3 baseline may be missing).
func RunFig9Stoppable(memOps uint64, cores int, stop func() bool) (*Fig9Result, error) {
	res := &Fig9Result{}
	for _, mc := range Fig9Configs() {
		if stop != nil && stop() {
			return res, ErrInterrupted
		}
		row, err := runFig9Config(mc, memOps, cores)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	NormalizeFig9(res)
	return res, nil
}

func runFig9Config(mc Fig9Config, memOps uint64, cores int) (Fig9Row, error) {
	coreCfg := cpu.DefaultConfig()
	coreCfg.MemOps = memOps
	fs, err := system.NewFullSystem(system.MultiCoreConfig{
		Cores: cores,
		Core:  coreCfg,
		Workload: func(id int) trafficgen.Pattern {
			return cpu.CannealWorkload(256<<20, int64(id)+1)
		},
		// Table II L1; the §IV-B study shares an 8 MByte LLC.
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
	})
	if err != nil {
		return Fig9Row{}, err
	}
	if !fs.Run(10 * sim.Second) {
		return Fig9Row{}, fmt.Errorf("experiments: fig9 %q did not complete", mc.Name)
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
	row.Breakdown = LatencyBreakdown{
		StaticNs: staticNs, QueueNs: queueNs, BankNs: bankNs, BusNs: busNs,
	}
	return row, nil
}
