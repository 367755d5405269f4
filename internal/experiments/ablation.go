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
// behind Figs. 4/5/7's differences). Each is a study of one configuration
// per row on a fixed workload, at Fig. 3's default count.
func ablation(name, title, workload string, spec dram.Spec, seed int64, cases func(s Setup, spec dram.Spec) []Case) *Study {
	return &Study{
		Name: name, Flags: "requests", Count: 4000, Spec: spec, Seed: seed, Cases: cases,
		Title: func(*Table) string { return "\nAblation: " + title + " (workload: " + workload + ")\n" },
		Columns: []Column{{"config", "config", "%-20s"}, {"busUtil", "bus util", "%10.3f"}, {"readLat", "read lat (ns)", "%14.1f"},
			{"p99", "p99 (ns)", "%12.1f"}, {"rowHits", "row hits", "%12.3f"}},
	}
}

// ablate is one configuration's case: its point on the matched event-based
// controller with ten simulated seconds to finish, tuned by tune. The row
// holds the controller's bus utilisation, read latency and row-hit rate;
// with requestor set, the latencies are the generator's, tail included.
func ablate(config string, spec dram.Spec, mapping dram.Mapping, s Setup, pattern trafficgen.Pattern, tune func(*Point), requestor bool) Case {
	return measure(config, 1, func(int) (Point, error) {
		p := matched(config, spec, mapping, false, 1, s.N, pattern)
		p.Limit = 10 * sim.Second
		tune(&p)
		return p, nil
	}, func(rigs []*Rig) Row {
		rig := rigs[0]
		row := Row{{"config", config}, {"busUtil", rig.AvgBusUtilisation()},
			{"readLat", rig.Ctrls[0].AvgReadLatencyNs()}, {"rowHits", rig.Ctrls[0].RowHitRate()}}
		if requestor {
			row.set("readLat", rig.Gen.ReadLatency().Mean())
			row = append(row, Cell{"p99", rig.Gen.ReadLatency().Percentile(99)})
		}
		return row
	})
}

// aware is one configuration on the DRAM-aware workload: readPct reads,
// stride bursts over banks.
func aware(config string, spec dram.Spec, mapping dram.Mapping, s Setup, readPct int, stride uint64, banks int, tune func(*Point)) Case {
	pattern, err := dramAware(spec, mapping, 1, stride, banks, readPct, s.Seed)
	if err != nil {
		return measure(config, 1, func(int) (Point, error) { return Point{}, err }, nil)
	}
	return ablate(config, spec, mapping, s, pattern, tune, false)
}

// Ablations are the design ablations, in the order `paper -ablation all`
// runs them.
var Ablations = []*Study{
	// The four row-buffer policies on a moderately local mixed workload.
	ablation("pagepolicy", "page policy", "DRAM-aware, stride 8, 4 banks, 2:1 reads", dram.DDR3_1333_8x8(), 11,
		func(s Setup, spec dram.Spec) []Case {
			return each([]core.PagePolicy{core.Open, core.OpenAdaptive, core.Closed, core.ClosedAdaptive}, func(page core.PagePolicy) Case {
				return aware(page.String(), spec, dram.RoRaBaCoCh, s, 67, 8, 4, func(p *Point) { p.Event.Page = page })
			})
		}),
	// The three address mappings on sequential traffic.
	ablation("mapping", "address mapping", "sequential reads (linear)", dram.DDR3_1333_8x8(), 0,
		func(s Setup, spec dram.Spec) []Case {
			return each([]dram.Mapping{dram.RoRaBaCoCh, dram.RoRaBaChCo, dram.RoCoRaBaCh}, func(m dram.Mapping) Case {
				return ablate(m.String(), spec, m, s,
					&trafficgen.Linear{Start: 0, End: 1 << 26, Step: spec.Org.BurstBytes(), ReadPercent: 100, Seed: s.Seed}, func(*Point) {}, false)
			})
		}),
	// FCFS against FR-FCFS on bank-conflicting traffic, where reordering pays.
	ablation("scheduler", "scheduler", "DRAM-aware, stride 4, 8 banks, reads", dram.DDR3_1333_8x8(), 11,
		func(s Setup, spec dram.Spec) []Case {
			return each([]core.SchedulingPolicy{core.FCFS, core.FRFCFS}, func(sched core.SchedulingPolicy) Case {
				return aware(sched.String(), spec, dram.RoRaBaCoCh, s, 100, 4, 8, func(p *Point) { p.Event.Scheduling = sched })
			})
		}),
	// The minimum write batch, the knob behind the Fig. 7 bimodality and the
	// Fig. 4 row-hit/turnaround trade-off.
	ablation("writedrain", "write drain batch", "DRAM-aware, stride 16, 4 banks, 1:1 mix", dram.DDR3_1333_8x8(), 11,
		func(s Setup, spec dram.Spec) []Case {
			return each([]int{1, 4, 8, 16, 32}, func(minW int) Case {
				return aware(fmt.Sprintf("minWrites=%d", minW), spec, dram.RoRaBaCoCh, s, 50, 16, 4,
					func(p *Point) { p.Event.MinWritesPerSwitch = minW })
			})
		}),
	// The tXAW limit on bank-hopping traffic.
	ablation("xaw", "activation window (tXAW)", "DRAM-aware, stride 1, 8 banks, reads, closed page", dram.DDR3_1333_8x8(), 11,
		func(s Setup, spec dram.Spec) []Case {
			return each([]int{0, 2, 4, 8}, func(limit int) Case {
				config := fmt.Sprintf("limit=%d", limit)
				if limit == 0 {
					config = "unlimited"
				}
				return aware(config, spec, dram.RoCoRaBaCh, s, 100, 1, 8, func(p *Point) {
					p.Event.Page = core.Closed
					p.Event.Device.Org.ActivationLimit = limit
				})
			})
		}),
	// All-bank against per-bank refresh on spaced random traffic: per-bank
	// softens the tail latency spikes the paper attributes to refresh
	// (§II-B), at the cost of more frequent short stalls.
	ablation("refresh", "refresh policy", "spaced random reads across refresh intervals", dram.DDR3_1333_8x8(), 17,
		func(s Setup, spec dram.Spec) []Case {
			return each([]dram.RefreshKind{dram.RefAllBank, dram.RefPerBank}, func(refresh dram.RefreshKind) Case {
				spec.Refresh = refresh
				return ablate(refresh.String(), spec, dram.RoRaBaCoCh, s,
					&trafficgen.Random{Start: 0, End: 1 << 26, Align: spec.Org.BurstBytes(), ReadPercent: 100, Seed: s.Seed},
					func(p *Point) { p.Gen.MaxOutstanding, p.Gen.InterTransaction = 8, 100*sim.Nanosecond }, true)
			})
		}),
	// The bank hash on the pathological same-bank row stride.
	ablation("xorhash", "XOR bank hash", "same-bank row-stride reads", dram.DDR3_1333_8x8(), 0,
		func(s Setup, spec dram.Spec) []Case {
			stride := spec.Org.RowBufferBytes * uint64(spec.Org.Banks())
			return each([]bool{false, true}, func(hash bool) Case {
				return ablate(map[bool]string{false: "plain", true: "xor-hash"}[hash], spec, dram.RoRaBaCoCh, s,
					&trafficgen.Strided{Start: 0, StrideBytes: stride, WrapBytes: stride * 4096, ReadPercent: 100, Seed: s.Seed},
					func(p *Point) { p.Event.XORBankHash = hash }, false)
			})
		}),
	// Prefetch policies in an L1 over a DRAM controller on a streaming core:
	// the DRAM-visible effect is the point (prefetches contend for bandwidth
	// like demand fills). The frontend is a core over its L1 on the
	// controller's default configuration; the row reports the core's load
	// latency and the L1's hit rate.
	ablation("prefetch", "L1 prefetcher", "streaming core over DDR3", dram.DDR3_1600_x64(), 1,
		func(s Setup, spec dram.Spec) []Case {
			return each([]cache.PrefetchPolicy{cache.PrefetchNone, cache.PrefetchNextLine, cache.PrefetchStride}, func(policy cache.PrefetchPolicy) Case {
				var l1 *cache.Cache
				var streamer *cpu.Core
				return measure(policy.String(), 1, func(int) (Point, error) {
					return Point{Name: policy.String(), Event: core.DefaultConfig(spec), Limit: 100 * sim.Millisecond,
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
							coreCfg.MemOps = s.N
							coreCfg.MaxOutstanding = 2 // latency-sensitive: prefetching must help
							if streamer, err = cpu.New(m.K, coreCfg, cpu.StreamWorkload(64<<20, s.Seed), m.Reg, "core"); err != nil {
								return nil, err
							}
							mem.Connect(streamer.Port(), l1.CPUPort())
							mem.Connect(l1.MemPort(), m.FrontPort("l1"))
							return []system.Source{streamer}, nil
						}}, nil
				}, func(rigs []*Rig) Row {
					return Row{{"config", policy.String()}, {"busUtil", rigs[0].AvgBusUtilisation()},
						{"readLat", streamer.AvgLoadLatencyNs()}, {"rowHits", l1.HitRate()}}
				})
			})
		}),
}
