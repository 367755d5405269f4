package experiments

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/system"
	"repro/internal/trafficgen"
)

// The ablations quantify the design choices the paper discusses in §II:
// page policy variants (§II-C), address mapping (§II-A), FCFS vs FR-FCFS
// (§II-C), and the write-drain watermarks/batch size (§II-C, the mechanism
// behind Figs. 4/5/7's differences).

// AblationRow is one configuration's outcome on a fixed workload.
type AblationRow struct {
	Config       string
	BusUtil      float64
	AvgReadLatNs float64
	// P99Ns is the requestor-observed tail latency (0 where not measured).
	P99Ns      float64
	RowHitRate float64
}

// AblationResult is one ablation study.
type AblationResult struct {
	Name     string
	Workload string
	Rows     []AblationRow
}

// runAblationPoint measures one tuned event-model configuration on the
// standard mixed workload.
func runAblationPoint(name string, requests uint64, mapping dram.Mapping,
	readPct int, stride uint64, banks int, tune func(*core.Config)) (AblationRow, error) {
	spec := dram.DDR3_1333_8x8()
	dec, err := dram.NewDecoder(spec.Org, mapping, 1)
	if err != nil {
		return AblationRow{}, err
	}
	rig, err := system.NewTrafficRig(system.RigConfig{
		Kind:      system.EventBased,
		Spec:      spec,
		Mapping:   mapping,
		TuneEvent: tune,
		Gen: trafficgen.Config{
			RequestBytes:   spec.Org.BurstBytes(),
			MaxOutstanding: 32,
			Count:          requests,
		},
		Pattern: &trafficgen.DRAMAware{
			Decoder: dec, StrideBursts: stride, Banks: banks,
			ReadPercent: readPct, Seed: 11,
		},
	})
	if err != nil {
		return AblationRow{}, err
	}
	if !rig.Run(10 * sim.Second) {
		return AblationRow{}, fmt.Errorf("experiments: ablation %q did not complete", name)
	}
	return AblationRow{
		Config:       name,
		BusUtil:      rig.Ctrl.BusUtilisation(),
		AvgReadLatNs: rig.Ctrl.AvgReadLatencyNs(),
		RowHitRate:   rig.Ctrl.RowHitRate(),
	}, nil
}

// PagePolicyAblation compares the four row-buffer policies on a moderately
// local mixed workload (stride 8 over 4 banks).
func PagePolicyAblation(requests uint64) (*AblationResult, error) {
	res := &AblationResult{
		Name:     "page policy",
		Workload: "DRAM-aware, stride 8, 4 banks, 2:1 reads",
	}
	for _, p := range []core.PagePolicy{core.Open, core.OpenAdaptive, core.Closed, core.ClosedAdaptive} {
		p := p
		row, err := runAblationPoint(p.String(), requests, dram.RoRaBaCoCh, 67, 8, 4,
			func(c *core.Config) { c.Page = p })
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// MappingAblation compares the three address mappings on sequential traffic.
func MappingAblation(requests uint64) (*AblationResult, error) {
	res := &AblationResult{
		Name:     "address mapping",
		Workload: "sequential reads (linear)",
	}
	spec := dram.DDR3_1333_8x8()
	for _, m := range []dram.Mapping{dram.RoRaBaCoCh, dram.RoRaBaChCo, dram.RoCoRaBaCh} {
		rig, err := system.NewTrafficRig(system.RigConfig{
			Kind: system.EventBased, Spec: spec, Mapping: m,
			Gen: trafficgen.Config{
				RequestBytes:   spec.Org.BurstBytes(),
				MaxOutstanding: 32,
				Count:          requests,
			},
			Pattern: &trafficgen.Linear{Start: 0, End: 1 << 26, Step: spec.Org.BurstBytes(), ReadPercent: 100},
		})
		if err != nil {
			return nil, err
		}
		if !rig.Run(10 * sim.Second) {
			return nil, fmt.Errorf("experiments: mapping ablation %s did not complete", m)
		}
		res.Rows = append(res.Rows, AblationRow{
			Config:       m.String(),
			BusUtil:      rig.Ctrl.BusUtilisation(),
			AvgReadLatNs: rig.Ctrl.AvgReadLatencyNs(),
			RowHitRate:   rig.Ctrl.RowHitRate(),
		})
	}
	return res, nil
}

// SchedulerAblation compares FCFS with FR-FCFS on bank-conflicting traffic,
// where reordering pays.
func SchedulerAblation(requests uint64) (*AblationResult, error) {
	res := &AblationResult{
		Name:     "scheduler",
		Workload: "DRAM-aware, stride 4, 8 banks, reads",
	}
	for _, s := range []core.SchedulingPolicy{core.FCFS, core.FRFCFS} {
		s := s
		row, err := runAblationPoint(s.String(), requests, dram.RoRaBaCoCh, 100, 4, 8,
			func(c *core.Config) { c.Scheduling = s })
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// WriteDrainAblation sweeps the minimum write batch, the knob behind the
// Fig. 7 bimodality and the Fig. 4 row-hit/turnaround trade-off.
func WriteDrainAblation(requests uint64) (*AblationResult, error) {
	res := &AblationResult{
		Name:     "write drain batch",
		Workload: "DRAM-aware, stride 16, 4 banks, 1:1 mix",
	}
	for _, minW := range []int{1, 4, 8, 16, 32} {
		minW := minW
		row, err := runAblationPoint(fmt.Sprintf("minWrites=%d", minW), requests,
			dram.RoRaBaCoCh, 50, 16, 4,
			func(c *core.Config) { c.MinWritesPerSwitch = minW })
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// ActivationWindowAblation toggles the tXAW limit on bank-hopping traffic.
func ActivationWindowAblation(requests uint64) (*AblationResult, error) {
	res := &AblationResult{
		Name:     "activation window (tXAW)",
		Workload: "DRAM-aware, stride 1, 8 banks, reads, closed page",
	}
	for _, limit := range []int{0, 2, 4, 8} {
		limit := limit
		name := fmt.Sprintf("limit=%d", limit)
		if limit == 0 {
			name = "unlimited"
		}
		row, err := runAblationPoint(name, requests, dram.RoCoRaBaCh, 100, 1, 8,
			func(c *core.Config) {
				c.Page = core.Closed
				c.Device.Org.ActivationLimit = limit
			})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// RefreshAblation compares all-bank and per-bank refresh on spaced random
// traffic: per-bank softens the tail latency spikes the paper attributes to
// refresh (§II-B), at the cost of more frequent short stalls.
func RefreshAblation(requests uint64) (*AblationResult, error) {
	res := &AblationResult{
		Name:     "refresh policy",
		Workload: "spaced random reads across refresh intervals",
	}
	spec := dram.DDR3_1333_8x8()
	for _, rp := range []dram.RefreshKind{dram.RefAllBank, dram.RefPerBank} {
		spec.Refresh = rp
		rig, err := system.NewTrafficRig(system.RigConfig{
			Kind: system.EventBased, Spec: spec, Mapping: dram.RoRaBaCoCh,
			Gen: trafficgen.Config{
				RequestBytes:     spec.Org.BurstBytes(),
				MaxOutstanding:   8,
				Count:            requests,
				InterTransaction: 100 * sim.Nanosecond,
			},
			Pattern: &trafficgen.Random{Start: 0, End: 1 << 26, Align: spec.Org.BurstBytes(), ReadPercent: 100, Seed: 17},
		})
		if err != nil {
			return nil, err
		}
		if !rig.Run(10 * sim.Second) {
			return nil, fmt.Errorf("experiments: refresh ablation %s did not complete", rp)
		}
		res.Rows = append(res.Rows, AblationRow{
			Config:       rp.String(),
			BusUtil:      rig.Ctrl.BusUtilisation(),
			AvgReadLatNs: rig.Gen.ReadLatency().Mean(),
			P99Ns:        rig.Gen.ReadLatency().Percentile(99),
			RowHitRate:   rig.Ctrl.RowHitRate(),
		})
	}
	return res, nil
}

// XORHashAblation measures the bank hash on the pathological same-bank row
// stride.
func XORHashAblation(requests uint64) (*AblationResult, error) {
	res := &AblationResult{
		Name:     "XOR bank hash",
		Workload: "same-bank row-stride reads",
	}
	spec := dram.DDR3_1333_8x8()
	stride := spec.Org.RowBufferBytes * uint64(spec.Org.Banks())
	for _, hash := range []bool{false, true} {
		hash := hash
		name := "plain"
		if hash {
			name = "xor-hash"
		}
		rig, err := system.NewTrafficRig(system.RigConfig{
			Kind: system.EventBased, Spec: spec, Mapping: dram.RoRaBaCoCh,
			TuneEvent: func(c *core.Config) { c.XORBankHash = hash },
			Gen: trafficgen.Config{
				RequestBytes:   spec.Org.BurstBytes(),
				MaxOutstanding: 32,
				Count:          requests,
			},
			Pattern: &trafficgen.Strided{Start: 0, StrideBytes: stride, WrapBytes: stride * 4096, ReadPercent: 100},
		})
		if err != nil {
			return nil, err
		}
		if !rig.Run(10 * sim.Second) {
			return nil, fmt.Errorf("experiments: xor ablation %q did not complete", name)
		}
		res.Rows = append(res.Rows, AblationRow{
			Config:       name,
			BusUtil:      rig.Ctrl.BusUtilisation(),
			AvgReadLatNs: rig.Ctrl.AvgReadLatencyNs(),
			RowHitRate:   rig.Ctrl.RowHitRate(),
		})
	}
	return res, nil
}

// PrefetchAblation compares prefetch policies in an L1 over a DRAM
// controller on a streaming core: the DRAM-visible effect is the point
// (prefetches contend for bandwidth like demand fills).
func PrefetchAblation(memOps uint64) (*AblationResult, error) {
	res := &AblationResult{
		Name:     "L1 prefetcher",
		Workload: "streaming core over DDR3",
	}
	for _, p := range []cache.PrefetchPolicy{cache.PrefetchNone, cache.PrefetchNextLine, cache.PrefetchStride} {
		k := sim.NewKernel()
		reg := stats.NewRegistry("t")
		l1, err := cache.New(k, cache.Config{
			SizeBytes: 32 * 1024, Assoc: 2, LineBytes: 64,
			HitLatency: 1 * sim.Nanosecond, MSHRs: 8, WriteBufferDepth: 8,
			Prefetch: p,
		}, reg, "l1")
		if err != nil {
			return nil, err
		}
		ctrl, err := core.NewController(k, core.DefaultConfig(dram.DDR3_1600_x64()), reg, "mc")
		if err != nil {
			return nil, err
		}
		coreCfg := cpu.DefaultConfig()
		coreCfg.MemOps = memOps
		coreCfg.MaxOutstanding = 2 // latency-sensitive: prefetching must help
		cpuCore, err := cpu.New(k, coreCfg, cpu.StreamWorkload(64<<20, 1), reg, "core")
		if err != nil {
			return nil, err
		}
		mem.Connect(cpuCore.Port(), l1.CPUPort())
		mem.Connect(l1.MemPort(), ctrl.Port())
		cpuCore.Start()
		for i := 0; i < 100000 && !cpuCore.Done(); i++ {
			k.RunUntil(k.Now() + sim.Microsecond)
		}
		if !cpuCore.Done() {
			return nil, fmt.Errorf("experiments: prefetch ablation %s did not complete", p)
		}
		res.Rows = append(res.Rows, AblationRow{
			Config:       p.String(),
			BusUtil:      ctrl.BusUtilisation(),
			AvgReadLatNs: cpuCore.AvgLoadLatencyNs(),
			RowHitRate:   l1.HitRate(),
		})
	}
	return res, nil
}
