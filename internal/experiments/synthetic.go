package experiments

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/dram"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trafficgen"
)

// syntheticCase describes one synthetic workload of the model comparisons
// (§III-C3 power, §III-D speed). Open-page cases map RoRaBaCoCh, closed-page
// ones RoCoRaBaCh. For timing, saturating cases stress per-decision cost;
// spaced (ITT > 0) cases expose the cycle model's obligation to tick through
// every gap; the HMC case multiplies that by 16 controllers.
type syntheticCase struct {
	name       string
	readPct    int
	closedPage bool
	stride     uint64
	banks      int
	itt        sim.Tick
	channels   int
}

// point is the case's measurement on one model on device spec: one
// generator, DRAM-aware on one channel and linear over several. The
// DRAM-aware stride and bank count are clamped to a row and the banks of
// spec, as the sweeps' axes are.
func (sc syntheticCase) point(kind system.Kind, s Setup, spec dram.Spec) (Point, error) {
	mapping := dram.RoRaBaCoCh
	if sc.closedPage {
		mapping = dram.RoCoRaBaCh
	}
	var pattern trafficgen.Pattern = &trafficgen.Linear{Start: 0, End: 1 << 26, Step: spec.Org.BurstBytes(), ReadPercent: sc.readPct, Seed: s.Seed}
	if sc.channels == 1 {
		stride, banks := min(sc.stride, spec.Org.BurstsPerRow()), min(sc.banks, spec.Org.BanksPerRank)
		aware, err := dramAware(spec, mapping, 1, stride, banks, sc.readPct, s.Seed)
		if err != nil {
			return Point{}, err
		}
		pattern = aware
	}
	p := matched(sc.name, spec, mapping, sc.closedPage, sc.channels, s.N, pattern)
	p.Kind = kind
	p.Gen.InterTransaction = sc.itt
	p.Limit = 100 * sim.Second
	return p, nil
}

// speedupStudy is §III-D's model-performance measurement: host wall-clock
// time for each model over an identical request stream, and the kernel events
// each needed. The paper reports up to 10x and 7x on average for synthetic
// traffic, and an order of magnitude for a 16-channel HMC-like system. Counts
// should be large enough (tens of thousands) for stable wall-clock numbers.
var speedupStudy = &Study{
	Name: "speedup", Flags: "requests spec", Count: 100000, Spec: dram.DDR3_1333_8x8(), Seed: 5,
	Cases: func(s Setup, spec dram.Spec) []Case {
		return each(speedupCases, func(sc syntheticCase) Case {
			dev := spec
			if sc.channels > 1 && s.Spec == nil {
				dev = dram.HMCVault() // the paper's 16-channel HMC, unless -spec names a device
			}
			return measure(sc.name, len(models), func(i int) (Point, error) {
				p, err := sc.point(models[i], s, dev)
				runtime.GC() // settle the garbage collector so runs time comparably
				return p, err
			}, func(rigs []*Rig) Row {
				ev, cy := rigs[0], rigs[1]
				// Host ns per request beside each ratio says which model moved it.
				nsPerReq := func(host time.Duration) float64 { return float64(host.Nanoseconds()) / float64(s.N) }
				return Row{{"case", sc.name}, {"eventHost", ev.Host.Round(time.Microsecond)}, {"cycleHost", cy.Host.Round(time.Microsecond)},
					{"eventNsPerReq", nsPerReq(ev.Host)}, {"cycleNsPerReq", nsPerReq(cy.Host)},
					{"eventEvents", ev.K.EventsExecuted()}, {"cycleEvents", cy.K.EventsExecuted()},
					{"speedup", float64(cy.Host) / float64(ev.Host)}}
			})
		})
	},
	Title: func(t *Table) string {
		return fmt.Sprintf("Model performance (§III-D): %d requests per case\n\n", t.Setup.N)
	},
	Columns: []Column{{"case", "case", "%-26s"}, {"eventHost", "event host", "%12v"}, {"cycleHost", "cycle host", "%12v"},
		{"eventNsPerReq", "event ns/req", "%12.1f"}, {"cycleNsPerReq", "cycle ns/req", "%12.1f"},
		{"eventEvents", "event evts", "%12d"}, {"cycleEvents", "cycle evts", "%12d"}, {"speedup", "speedup", "%8.2fx"}},
	Footer: func(t *Table) string {
		return fmt.Sprintf("\naverage speedup: %.2fx   maximum: %.2fx\n"+
			"(paper reports 7x average / 10x max against DRAMSim2, and ~10x for a 16-channel HMC)\n", t.Mean("speedup"), t.Max("speedup"))
	},
	Partial: "%[1]d cases",
}

var speedupCases = []syntheticCase{
	{"open/reads/saturated", 100, false, 16, 4, 0, 1},
	{"open/mix/saturated", 50, false, 4, 8, 0, 1},
	{"closed/writes/saturated", 0, true, 4, 4, 0, 1},
	{"open/reads/25%load", 100, false, 16, 4, 24 * sim.Nanosecond, 1},
	{"open/mix/12%load", 50, false, 8, 8, 48 * sim.Nanosecond, 1},
	{"hmc16/reads/25%load", 100, false, 8, 4, 1500 * sim.Picosecond, 16},
}

// powerStudy compares the Micron-model power of both controllers on a
// representative subset of the §III test cases (max difference 8%, average
// 3% in the paper), plus a third methodology: a DRAMPower-style analysis of
// the event controller's command trace, captured through the observability
// hub.
var powerStudy = &Study{
	Name: "power", Flags: "requests", Count: 5000, Spec: dram.DDR3_1333_8x8(), Seed: 3,
	Cases: func(s Setup, spec dram.Spec) []Case {
		return each(powerCases, func(sc syntheticCase) Case {
			var cmds power.CommandTrace
			return measure(sc.name, len(models), func(i int) (Point, error) {
				p, err := sc.point(models[i], s, spec)
				if i == 0 {
					p.Probes = obs.NewHub()
					p.Probes.Attach(obs.CommandFunc(cmds.Record))
				}
				return p, err
			}, func(rigs []*Rig) Row {
				ev, cy := rigs[0].Ctrls[0].PowerStats(), rigs[1].Ctrls[0].PowerStats()
				evMW, cyMW := power.Compute(spec, ev).TotalMW(), power.Compute(spec, cy).TotalMW()
				trMW := power.AnalyzeCommands(spec, cmds.Commands(), ev.Elapsed).TotalMW()
				return Row{{"case", sc.name}, {"event", evMW}, {"cycle", cyMW}, {"trace", trMW},
					{"diff", math.Abs(evMW-cyMW) / cyMW * 100}, {"traceDiff", math.Abs(trMW-evMW) / evMW * 100}}
			})
		})
	},
	Title: func(t *Table) string {
		return fmt.Sprintf("DRAM power comparison (§III-C3), Micron model, %d requests/case\n\n", t.Setup.N)
	},
	Columns: []Column{{"case", "case", "%-28s"}, {"event", "event (mW)", "%12.1f"}, {"cycle", "cycle (mW)", "%12.1f"},
		{"trace", "trace (mW)", "%12.1f"}, {"diff", "diff", "%7.1f%%"}, {"traceDiff", "tr-diff", "%7.1f%%"}},
	Footer: func(t *Table) string {
		return fmt.Sprintf("\nmax difference: %.1f%%   average: %.1f%%   max trace-vs-aggregate: %.1f%%\n"+
			"(paper reports max 8%%, average 3%%; trace column is the DRAMPower-style\n"+
			" command-trace analysis of the event controller, via the obs hub)\n", t.Max("diff"), t.Mean("diff"), t.Max("traceDiff"))
	},
	Partial: "%[1]d cases",
}

var powerCases = []syntheticCase{
	{"open/reads/stride1/b8", 100, false, 1, 8, 0, 1},
	{"open/reads/stride16/b4", 100, false, 16, 4, 0, 1},
	{"open/mix/stride8/b8", 50, false, 8, 8, 0, 1},
	{"open/writes/stride16/b2", 0, false, 16, 2, 0, 1},
	{"closed/reads/stride4/b8", 100, true, 4, 8, 0, 1},
	{"closed/mix/stride2/b4", 50, true, 2, 4, 0, 1},
	{"closed/writes/stride1/b8", 0, true, 1, 8, 0, 1},
}

// savingsStudy runs bursty traffic shapes — fixed-length request bursts
// separated by growing idle gaps — under three power configurations: no
// low-power states, power-down only, and power-down with self-refresh (the
// comparison of Jagtap et al.'s DRAM low-power study: savings grow with the
// idle-gap length as deeper states amortize their entry/exit cost). The
// power-down idle threshold is short (it pays off within tens of nanoseconds
// of idleness); the self-refresh threshold scales with the gap so the deep
// state only engages when the gap can absorb its tXS/tXSDLL exit cost.
var savingsStudy = &Study{
	Name: "savings", Flags: "requests", Count: 5000, Spec: dram.DDR3_1600_x64(), Seed: 7,
	Cases: func(s Setup, spec dram.Spec) (cases []Case) {
		for _, pc := range []struct {
			name     string
			burstLen int
			off      sim.Tick
		}{
			{"burst16/off1us", 16, 1_000 * sim.Nanosecond},
			{"burst16/off5us", 16, 5_000 * sim.Nanosecond},
			{"burst64/off20us", 64, 20_000 * sim.Nanosecond},
			{"burst16/off100us", 16, 100_000 * sim.Nanosecond},
		} {
			pdIdle := 200 * sim.Nanosecond
			srIdle := pc.off / 4
			if srIdle <= pdIdle {
				srIdle = pdIdle + 50*sim.Nanosecond
			}
			// The three runs' power-down and self-refresh idle thresholds
			// (0 = state off).
			idle := [][2]sim.Tick{{0, 0}, {pdIdle, 0}, {pdIdle, srIdle}}
			cases = append(cases, measure(pc.name, len(idle), func(i int) (Point, error) {
				p := matched(pc.name, spec, dram.RoRaBaCoCh, false, 1, s.N, &trafficgen.Bursty{
					Start: 0, End: 1 << 28, Align: spec.Org.BurstBytes(),
					ReadPercent: 67, Seed: s.Seed, BurstLen: pc.burstLen, OffTime: pc.off,
				})
				p.Limit = 10 * sim.Second
				p.Event.PowerDownIdle, p.Event.SelfRefreshIdle = idle[i][0], idle[i][1]
				return p, nil
			}, func(rigs []*Rig) Row {
				var mw [3]float64
				for i, rig := range rigs {
					mw[i] = power.Compute(spec, rig.Ctrls[0].PowerStats()).TotalMW()
				}
				// Residencies are the share of rank time in power-down and
				// self-refresh during the PD+SR run, in percent.
				var pdRes, srRes float64
				if both := rigs[2].Ctrls[0].PowerStats(); both.Elapsed > 0 {
					pdRes = float64(both.PowerDownTime) / float64(both.Elapsed) * 100
					srRes = float64(both.SelfRefreshTime) / float64(both.Elapsed) * 100
				}
				return Row{{"case", pc.name}, {"active", mw[0]}, {"pd", mw[1]}, {"pdsr", mw[2]},
					{"pdSave", (mw[0] - mw[1]) / mw[0] * 100}, {"srSave", (mw[0] - mw[2]) / mw[0] * 100},
					{"pdRes", pdRes}, {"srRes", srRes}}
			}))
		}
		return cases
	},
	Title: func(t *Table) string {
		return fmt.Sprintf("DRAM low-power savings on bursty traffic, Micron model, %d requests/case\n\n", t.Setup.N)
	},
	Columns: []Column{{"case", "case", "%-20s"}, {"active", "active (mW)", "%11.1f"}, {"pd", "PD (mW)", "%11.1f"},
		{"pdsr", "PD+SR (mW)", "%11.1f"}, {"pdSave", "PD save", "%7.1f%%"}, {"srSave", "SR save", "%7.1f%%"},
		{"pdRes", "PD res", "%6.1f%%"}, {"srRes", "SR res", "%6.1f%%"}},
	Footer: func(*Table) string {
		return "\n(power-down pays off within short gaps; self-refresh needs gaps long\n" +
			" enough to absorb its tXS/tXSDLL exit cost — savings grow with gap length)\n"
	},
	Partial: "%[1]d cases",
}

// RandomMixPoint is uniform-random traffic over 256 MiB with 32 outstanding,
// seeded seed, the shape of the ledger's mix_random_wrdrain workload: the
// row-hit rate is ~0 and every decision runs the full arbitration over deep
// queues. depth > 0 holds that many requests outstanding in a read buffer as
// deep. The count is the caller's to set.
func RandomMixPoint(kind system.Kind, readPct, depth int, seed int64) Point {
	spec := dram.DDR3_1333_8x8()
	p := matched("random mix", spec, dram.RoRaBaCoCh, false, 1, 0,
		&trafficgen.Random{Start: 0, End: 256 << 20, Align: spec.Org.BurstBytes(), ReadPercent: readPct, Seed: seed})
	p.Kind = kind
	if depth > 0 {
		p.Gen.MaxOutstanding = depth
		p.Event.ReadBufferSize = depth
	}
	return p
}
