package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/dram"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trafficgen"
	"repro/internal/xbar"
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

// speedupCase describes one synthetic workload for the timing comparison.
// Saturating cases stress per-decision cost; spaced (ITT > 0) cases expose
// the cycle model's obligation to tick through every gap; the HMC case
// multiplies that by 16 controllers.
type speedupCase struct {
	name       string
	readPct    int
	closedPage bool
	stride     uint64
	banks      int
	itt        sim.Tick
	channels   int
}

func speedupCases() []speedupCase {
	return []speedupCase{
		{"open/reads/saturated", 100, false, 16, 4, 0, 1},
		{"open/mix/saturated", 50, false, 4, 8, 0, 1},
		{"closed/writes/saturated", 0, true, 4, 4, 0, 1},
		{"open/reads/25%load", 100, false, 16, 4, 24 * sim.Nanosecond, 1},
		{"open/mix/12%load", 50, false, 8, 8, 48 * sim.Nanosecond, 1},
		{"hmc16/reads/25%load", 100, false, 8, 4, 1500 * sim.Picosecond, 16},
	}
}

// RunSpeedup measures host time for both models over identical synthetic
// workloads. Requests should be large enough (tens of thousands) for stable
// wall-clock numbers.
func RunSpeedup(requests uint64) (*SpeedupResult, error) {
	return RunSpeedupOn(requests, nil)
}

// RunSpeedupOn is RunSpeedup with every case's device overridden — the
// -standard exploration path. A nil device keeps the paper's per-case
// defaults (DDR3-1333-8x8, HMC vaults for the 16-channel case).
func RunSpeedupOn(requests uint64, dev *dram.Spec) (*SpeedupResult, error) {
	res := &SpeedupResult{}
	var sum float64
	for _, sc := range speedupCases() {
		evT, evN, err := runSpeedupCase(sc, system.EventBased, requests, dev)
		if err != nil {
			return nil, err
		}
		cyT, cyN, err := runSpeedupCase(sc, system.CycleBased, requests, dev)
		if err != nil {
			return nil, err
		}
		speedup := float64(cyT) / float64(evT)
		res.Rows = append(res.Rows, SpeedupRow{
			Case: sc.name, EventHost: evT, CycleHost: cyT,
			EventEvents: evN, CycleEvents: cyN, Speedup: speedup,
		})
		sum += speedup
		if speedup > res.MaxSpeedup {
			res.MaxSpeedup = speedup
		}
	}
	res.AvgSpeedup = sum / float64(len(res.Rows))
	return res, nil
}

// hostTimed returns how long the host took to run fn. The experiment tables
// report host time beside simulated results; nothing simulated ever reads it,
// which is why this is the one place the package touches the wall clock.
func hostTimed(fn func()) time.Duration {
	start := time.Now() //lint:allow simtime host time of a whole run, reported beside the simulated results and never fed back
	fn()
	return time.Since(start) //lint:allow simtime host time of a whole run, reported beside the simulated results and never fed back
}

func runSpeedupCase(sc speedupCase, kind system.Kind, requests uint64, dev *dram.Spec) (time.Duration, uint64, error) {
	// Settle the garbage collector so runs time comparably.
	runtime.GC()

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
	dec, err := dram.NewDecoder(spec.Org, mapping, sc.channels)
	if err != nil {
		return 0, 0, err
	}
	gen := trafficgen.Config{
		RequestBytes:     spec.Org.BurstBytes(),
		MaxOutstanding:   32,
		Count:            requests,
		InterTransaction: sc.itt,
	}

	if sc.channels == 1 {
		rig, err := system.NewTrafficRig(system.RigConfig{
			Kind: kind, Spec: spec, Mapping: mapping, ClosedPage: sc.closedPage,
			Gen: gen,
			Pattern: &trafficgen.DRAMAware{
				Decoder: dec, StrideBursts: sc.stride, Banks: sc.banks,
				ReadPercent: sc.readPct, Seed: 5,
			},
		})
		if err != nil {
			return 0, 0, err
		}
		var done bool
		host := hostTimed(func() { done = rig.Run(100 * sim.Second) })
		if !done {
			return 0, 0, fmt.Errorf("experiments: speedup case %q (%s) did not complete", sc.name, kind)
		}
		return host, rig.K.EventsExecuted(), nil
	}

	// Multi-channel (HMC-like) case: one generator spraying the channels.
	rig, err := system.NewMultiChannelRig(system.MultiChannelConfig{
		Kind: kind, Spec: spec, Mapping: mapping, ClosedPage: sc.closedPage,
		Channels: sc.channels,
		Xbar:     xbar.Config{Latency: 2 * sim.Nanosecond, QueueDepth: 64},
		Gens:     []trafficgen.Config{gen},
		Patterns: []trafficgen.Pattern{
			&trafficgen.Linear{Start: 0, End: 1 << 26, Step: spec.Org.BurstBytes(), ReadPercent: sc.readPct, Seed: 5},
		},
	})
	if err != nil {
		return 0, 0, err
	}
	var done bool
	host := hostTimed(func() { done = rig.Run(100 * sim.Second) })
	if !done {
		return 0, 0, fmt.Errorf("experiments: speedup case %q (%s) did not complete", sc.name, kind)
	}
	return host, rig.K.EventsExecuted(), nil
}
