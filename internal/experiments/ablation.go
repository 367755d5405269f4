package experiments

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
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

// ablations maps bwsweep's -ablation names to the studies, in the order
// -ablation all runs them.
var ablations = []struct {
	key string
	run func(Runner, uint64) (*AblationResult, error)
}{
	{"pagepolicy", Runner.pagePolicyAblation},
	{"mapping", Runner.mappingAblation},
	{"scheduler", Runner.schedulerAblation},
	{"writedrain", Runner.writeDrainAblation},
	{"xaw", Runner.activationWindowAblation},
	{"refresh", Runner.refreshAblation},
	{"xorhash", Runner.xorHashAblation},
	{"prefetch", Runner.prefetchAblation},
}

// RunAblations runs the named study, or every one in order for "all", with n
// requests (memory operations, for prefetch) per configuration, and returns
// the studies that completed.
func (r Runner) RunAblations(name string, n uint64) ([]*AblationResult, error) {
	var results []*AblationResult
	var known []string
	for _, a := range ablations {
		known = append(known, a.key)
		if name != a.key && name != "all" {
			continue
		}
		res, err := a.run(r, n)
		if err != nil {
			return results, err
		}
		results = append(results, res)
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("unknown ablation %q (have %v and all)", name, known)
	}
	return results, nil
}

// ablationPoint is one configuration's point: the event-based controller on
// DDR3-1333, matched configuration, ten simulated seconds to finish.
func ablationPoint(config string, spec dram.Spec, mapping dram.Mapping, n uint64, pattern trafficgen.Pattern) Point {
	p := matched(config, spec, mapping, false, 1, n, pattern)
	p.Limit = 10 * sim.Second
	return p
}

// ablate runs one configuration and appends its row: the controller's bus
// utilisation, read latency and row-hit rate, which adjust (nil for none) may
// replace with what the study measures elsewhere.
func (r Runner) ablate(res *AblationResult, p Point, adjust func(*Rig, *AblationRow)) error {
	rig, err := r.Run(p)
	if err != nil {
		return err
	}
	row := AblationRow{
		Config:       p.Name,
		BusUtil:      rig.AvgBusUtilisation(),
		AvgReadLatNs: rig.Ctrls[0].AvgReadLatencyNs(),
		RowHitRate:   rig.Ctrls[0].RowHitRate(),
	}
	if adjust != nil {
		adjust(rig, &row)
	}
	res.Rows = append(res.Rows, row)
	return nil
}

// ablateDRAMAware runs one configuration on the DRAM-aware workload; tune
// sets the knob under study on the point.
func (r Runner) ablateDRAMAware(res *AblationResult, config string, mapping dram.Mapping,
	n uint64, readPct int, stride uint64, banks int, tune func(*Point)) error {
	spec := dram.DDR3_1333_8x8()
	pattern, err := dramAware(spec, mapping, 1, stride, banks, readPct, 11)
	if err != nil {
		return err
	}
	p := ablationPoint(config, spec, mapping, n, pattern)
	tune(&p)
	return r.ablate(res, p, nil)
}

// pagePolicyAblation compares the four row-buffer policies on a moderately
// local mixed workload (stride 8 over 4 banks).
func (r Runner) pagePolicyAblation(n uint64) (*AblationResult, error) {
	res := &AblationResult{Name: "page policy", Workload: "DRAM-aware, stride 8, 4 banks, 2:1 reads"}
	for _, page := range []core.PagePolicy{core.Open, core.OpenAdaptive, core.Closed, core.ClosedAdaptive} {
		err := r.ablateDRAMAware(res, page.String(), dram.RoRaBaCoCh, n, 67, 8, 4,
			func(p *Point) { p.Event.Page = page })
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// mappingAblation compares the three address mappings on sequential traffic.
func (r Runner) mappingAblation(n uint64) (*AblationResult, error) {
	res := &AblationResult{Name: "address mapping", Workload: "sequential reads (linear)"}
	spec := dram.DDR3_1333_8x8()
	for _, m := range []dram.Mapping{dram.RoRaBaCoCh, dram.RoRaBaChCo, dram.RoCoRaBaCh} {
		p := ablationPoint(m.String(), spec, m, n,
			&trafficgen.Linear{Start: 0, End: 1 << 26, Step: spec.Org.BurstBytes(), ReadPercent: 100})
		if err := r.ablate(res, p, nil); err != nil {
			return res, err
		}
	}
	return res, nil
}

// schedulerAblation compares FCFS with FR-FCFS on bank-conflicting traffic,
// where reordering pays.
func (r Runner) schedulerAblation(n uint64) (*AblationResult, error) {
	res := &AblationResult{Name: "scheduler", Workload: "DRAM-aware, stride 4, 8 banks, reads"}
	for _, sched := range []core.SchedulingPolicy{core.FCFS, core.FRFCFS} {
		err := r.ablateDRAMAware(res, sched.String(), dram.RoRaBaCoCh, n, 100, 4, 8,
			func(p *Point) { p.Event.Scheduling = sched })
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// writeDrainAblation sweeps the minimum write batch, the knob behind the
// Fig. 7 bimodality and the Fig. 4 row-hit/turnaround trade-off.
func (r Runner) writeDrainAblation(n uint64) (*AblationResult, error) {
	res := &AblationResult{Name: "write drain batch", Workload: "DRAM-aware, stride 16, 4 banks, 1:1 mix"}
	for _, minW := range []int{1, 4, 8, 16, 32} {
		err := r.ablateDRAMAware(res, fmt.Sprintf("minWrites=%d", minW), dram.RoRaBaCoCh, n, 50, 16, 4,
			func(p *Point) { p.Event.MinWritesPerSwitch = minW })
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// activationWindowAblation toggles the tXAW limit on bank-hopping traffic.
func (r Runner) activationWindowAblation(n uint64) (*AblationResult, error) {
	res := &AblationResult{Name: "activation window (tXAW)", Workload: "DRAM-aware, stride 1, 8 banks, reads, closed page"}
	for _, limit := range []int{0, 2, 4, 8} {
		config := fmt.Sprintf("limit=%d", limit)
		if limit == 0 {
			config = "unlimited"
		}
		err := r.ablateDRAMAware(res, config, dram.RoCoRaBaCh, n, 100, 1, 8, func(p *Point) {
			p.Event.Page = core.Closed
			p.Event.Device.Org.ActivationLimit = limit
		})
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// refreshAblation compares all-bank and per-bank refresh on spaced random
// traffic: per-bank softens the tail latency spikes the paper attributes to
// refresh (§II-B), at the cost of more frequent short stalls. Latencies are
// the requestor's, tail included.
func (r Runner) refreshAblation(n uint64) (*AblationResult, error) {
	res := &AblationResult{Name: "refresh policy", Workload: "spaced random reads across refresh intervals"}
	spec := dram.DDR3_1333_8x8()
	for _, refresh := range []dram.RefreshKind{dram.RefAllBank, dram.RefPerBank} {
		spec.Refresh = refresh
		p := ablationPoint(refresh.String(), spec, dram.RoRaBaCoCh, n,
			&trafficgen.Random{Start: 0, End: 1 << 26, Align: spec.Org.BurstBytes(), ReadPercent: 100, Seed: 17})
		p.Gen.MaxOutstanding = 8
		p.Gen.InterTransaction = 100 * sim.Nanosecond
		err := r.ablate(res, p, func(rig *Rig, row *AblationRow) {
			row.AvgReadLatNs = rig.Gen.ReadLatency().Mean()
			row.P99Ns = rig.Gen.ReadLatency().Percentile(99)
		})
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// xorHashAblation measures the bank hash on the pathological same-bank row
// stride.
func (r Runner) xorHashAblation(n uint64) (*AblationResult, error) {
	res := &AblationResult{Name: "XOR bank hash", Workload: "same-bank row-stride reads"}
	spec := dram.DDR3_1333_8x8()
	stride := spec.Org.RowBufferBytes * uint64(spec.Org.Banks())
	for _, hash := range []bool{false, true} {
		config := "plain"
		if hash {
			config = "xor-hash"
		}
		p := ablationPoint(config, spec, dram.RoRaBaCoCh, n,
			&trafficgen.Strided{Start: 0, StrideBytes: stride, WrapBytes: stride * 4096, ReadPercent: 100})
		p.Event.XORBankHash = hash
		if err := r.ablate(res, p, nil); err != nil {
			return res, err
		}
	}
	return res, nil
}

// prefetchAblation compares prefetch policies in an L1 over a DRAM
// controller on a streaming core: the DRAM-visible effect is the point
// (prefetches contend for bandwidth like demand fills). The frontend is a
// core over its L1 on the controller's default configuration; the row
// reports the core's load latency and the L1's hit rate.
func (r Runner) prefetchAblation(memOps uint64) (*AblationResult, error) {
	res := &AblationResult{Name: "L1 prefetcher", Workload: "streaming core over DDR3"}
	for _, policy := range []cache.PrefetchPolicy{cache.PrefetchNone, cache.PrefetchNextLine, cache.PrefetchStride} {
		var l1 *cache.Cache
		var streamer *cpu.Core
		p := Point{
			Name: policy.String(), Event: core.DefaultConfig(dram.DDR3_1600_x64()), Limit: 100 * sim.Millisecond,
			Attach: func(m *system.Memory) (_ []system.Source, err error) {
				l1, err = cache.New(m.K, cache.Config{
					SizeBytes: 32 * 1024, Assoc: 2, LineBytes: 64,
					HitLatency: 1 * sim.Nanosecond, MSHRs: 8, WriteBufferDepth: 8,
					Prefetch: policy,
				}, m.Reg, "l1")
				if err != nil {
					return nil, err
				}
				coreCfg := cpu.DefaultConfig()
				coreCfg.MemOps = memOps
				coreCfg.MaxOutstanding = 2 // latency-sensitive: prefetching must help
				if streamer, err = cpu.New(m.K, coreCfg, cpu.StreamWorkload(64<<20, 1), m.Reg, "core"); err != nil {
					return nil, err
				}
				mem.Connect(streamer.Port(), l1.CPUPort())
				mem.Connect(l1.MemPort(), m.FrontPort("l1"))
				return []system.Source{streamer}, nil
			},
		}
		err := r.ablate(res, p, func(_ *Rig, row *AblationRow) {
			row.AvgReadLatNs, row.RowHitRate = streamer.AvgLoadLatencyNs(), l1.HitRate()
		})
		if err != nil {
			return res, err
		}
	}
	return res, nil
}
