package experiments

import (
	"math"
	"runtime"
	"time"

	"repro/internal/dram"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trafficgen"
)

// SpeedupRow is the §III-D model-performance measurement for one workload:
// host wall-clock time for each model over an identical request stream, and
// the number of kernel events each needed. The paper reports up to 10x and
// 7x on average for synthetic traffic, and an order of magnitude for a
// 16-channel HMC-like system.
type SpeedupRow struct {
	Case        string
	EventHost   time.Duration
	CycleHost   time.Duration
	EventEvents uint64
	CycleEvents uint64
	// Speedup is CycleHost/EventHost.
	Speedup float64
}

// SpeedupResult aggregates the model-performance comparison.
type SpeedupResult struct {
	Rows       []SpeedupRow
	AvgSpeedup float64
	MaxSpeedup float64
}

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

var speedupCases = []syntheticCase{
	{"open/reads/saturated", 100, false, 16, 4, 0, 1},
	{"open/mix/saturated", 50, false, 4, 8, 0, 1},
	{"closed/writes/saturated", 0, true, 4, 4, 0, 1},
	{"open/reads/25%load", 100, false, 16, 4, 24 * sim.Nanosecond, 1},
	{"open/mix/12%load", 50, false, 8, 8, 48 * sim.Nanosecond, 1},
	{"hmc16/reads/25%load", 100, false, 8, 4, 1500 * sim.Picosecond, 16},
}

// point is the case's measurement on one model. A nil dev keeps the paper's
// per-case device (DDR3-1333-8x8, HMC vaults for the 16-channel case): one
// generator, DRAM-aware on one channel and linear over several, seeded seed.
func (sc syntheticCase) point(kind system.Kind, requests uint64, dev *dram.Spec, seed int64) (Point, error) {
	spec := dram.DDR3_1333_8x8()
	mapping := dram.RoRaBaCoCh
	if sc.closedPage {
		mapping = dram.RoCoRaBaCh
	}
	if sc.channels > 1 {
		spec = dram.HMCVault()
	}
	if dev != nil {
		spec = *dev
	}
	var pattern trafficgen.Pattern = &trafficgen.Linear{Start: 0, End: 1 << 26, Step: spec.Org.BurstBytes(), ReadPercent: sc.readPct, Seed: seed}
	if sc.channels == 1 {
		aware, err := dramAware(spec, mapping, 1, sc.stride, sc.banks, sc.readPct, seed)
		if err != nil {
			return Point{}, err
		}
		pattern = aware
	}
	p := matched(sc.name, spec, mapping, sc.closedPage, sc.channels, requests, pattern)
	p.Kind = kind
	p.Gen.InterTransaction = sc.itt
	p.Limit = 100 * sim.Second
	return p, nil
}

// RunSpeedup measures host time for both models over identical synthetic
// workloads. Requests should be large enough (tens of thousands) for stable
// wall-clock numbers. A non-nil dev overrides every case's device (paper
// -figure speedup -spec).
func (r Runner) RunSpeedup(requests uint64, dev *dram.Spec) (*SpeedupResult, error) {
	res := &SpeedupResult{}
	var sum float64
	for _, sc := range speedupCases {
		timed := func(kind system.Kind) (time.Duration, uint64, error) {
			p, err := sc.point(kind, requests, dev, 5)
			if err != nil {
				return 0, 0, err
			}
			runtime.GC() // settle the garbage collector so runs time comparably
			rig, err := r.Run(p)
			if err != nil {
				return 0, 0, err
			}
			return rig.Host, rig.K.EventsExecuted(), nil
		}
		row := SpeedupRow{Case: sc.name}
		var err error
		if row.EventHost, row.EventEvents, err = timed(system.EventBased); err != nil {
			return res, err
		}
		if row.CycleHost, row.CycleEvents, err = timed(system.CycleBased); err != nil {
			return res, err
		}
		row.Speedup = float64(row.CycleHost) / float64(row.EventHost)
		res.Rows = append(res.Rows, row)
		sum += row.Speedup
		res.MaxSpeedup = math.Max(res.MaxSpeedup, row.Speedup)
		res.AvgSpeedup = sum / float64(len(res.Rows))
	}
	return res, nil
}

// LowLoadPoint is the §III-D low-load shape in isolation — the Fig. 6 linear
// reads spaced 48 ns apart, where a cycle-based model pays for every idle
// cycle. The count is the caller's to set (bench_test.go: b.N).
func LowLoadPoint(kind system.Kind) Point {
	s := Fig6Spec(0)
	s.InterTransaction = 48 * sim.Nanosecond
	p := s.Point(kind)
	p.Name = "low load"
	return p
}

// RandomMixPoint is uniform-random traffic over 256 MiB with 32 outstanding,
// the shape of the ledger's mix_random_wrdrain workload: the row-hit rate is
// ~0 and every decision runs the full arbitration over deep queues. depth > 0
// holds that many requests outstanding in a read buffer as deep. The count is
// the caller's to set.
func RandomMixPoint(kind system.Kind, readPct, depth int) Point {
	spec := dram.DDR3_1333_8x8()
	p := matched("random mix", spec, dram.RoRaBaCoCh, false, 1, 0,
		&trafficgen.Random{Start: 0, End: 256 << 20, Align: spec.Org.BurstBytes(), ReadPercent: readPct, Seed: 1})
	p.Kind = kind
	if depth > 0 {
		p.Gen.MaxOutstanding = depth
		p.Event.ReadBufferSize = depth
	}
	return p
}
