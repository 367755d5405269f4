package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/dram"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trafficgen"
	"repro/internal/xbar"
)

// This file measures the sharded (parallel per-channel) rig against its own
// serial schedule: identical topology, identical statistics (asserted, not
// assumed), wall-clock compared across worker counts. This is the headline
// claim of the parallel kernel work — determinism is free, speedup scales
// with channels on a multi-core host — and the numbers land in BENCH_3.json.
//
// Honesty matters more than a flattering number: a host with fewer hardware
// threads than workers cannot scale, so every row records whether it was
// undersubscribed, and consumers (the CI guardrail in particular) must not
// read speedups off undersubscribed rows.

// ParallelRow is one (case, channels, workers) wall-clock measurement.
type ParallelRow struct {
	// Case names the workload: "saturating" (generators never idle) or
	// "spaced" (inter-transaction gaps, where the adaptive horizon pays).
	Case     string        `json:"case"`
	Channels int           `json:"channels"`
	Workers  int           `json:"workers"`
	Host     time.Duration `json:"hostNs"`
	// AggregateGBs is the summed channel bandwidth, as a sanity check that
	// every configuration simulated the same traffic.
	AggregateGBs float64 `json:"aggregateGBs"`
	// Speedup is serial host time over this row's host time, within the same
	// (case, channels) cell (workers=1 rows therefore read 1.0).
	Speedup float64 `json:"speedup"`
	// Deterministic reports whether this row's full statistics dump was
	// byte-identical to the serial run's.
	Deterministic bool `json:"deterministic"`
	// Barriers counts the quantum barriers the run executed. With adaptive
	// lookahead the spaced case shows the reduction directly.
	Barriers uint64 `json:"barriers"`
	// Undersubscribed marks a row that asked for more workers than the host
	// can actually run in parallel (min of GOMAXPROCS and CPU count). Its
	// Speedup is then a measurement of goroutine overhead, not of scaling,
	// and must not back any scaling claim.
	Undersubscribed bool `json:"undersubscribed,omitempty"`
}

// ParallelResult aggregates the sharded-rig scaling measurement.
type ParallelResult struct {
	HostCPUs   int    `json:"hostCPUs"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Requests   uint64 `json:"requestsPerGen"`
	// AdaptiveQuanta is the ShardedConfig.AdaptiveQuanta every row ran with
	// (1 = fixed quantum). Part of the schedule, hence recorded.
	AdaptiveQuanta int `json:"adaptiveQuanta"`
	// Undersubscribed is true when ANY row was undersubscribed; a baseline
	// carrying this flag is not a scaling baseline.
	Undersubscribed bool          `json:"undersubscribed"`
	Rows            []ParallelRow `json:"rows"`
}

// hardwareParallelism is the number of workers the host can genuinely run
// at once.
func hardwareParallelism() int {
	hw := runtime.GOMAXPROCS(0)
	if n := runtime.NumCPU(); n < hw {
		hw = n
	}
	return hw
}

// parallelWorkload builds the sharded workload: one mixed linear/random
// generator per channel (minimum two generators), so offered load grows with
// the channel count and every channel stays busy. spaced throttles every
// generator with an inter-transaction gap, modelling the sub-saturation
// traffic where the adaptive horizon collapses idle barriers.
func parallelWorkload(channels, workers, quanta int, requests uint64, spaced bool) system.ShardedConfig {
	spec := dram.DDR3_1333_8x8()
	nGens := channels
	if nGens < 2 {
		nGens = 2
	}
	gens := make([]trafficgen.Config, nGens)
	patterns := make([]trafficgen.Pattern, nGens)
	for i := range gens {
		gens[i] = trafficgen.Config{
			RequestBytes:   spec.Org.BurstBytes(),
			MaxOutstanding: 32,
			Count:          requests,
			RequestorID:    i,
		}
		if spaced {
			gens[i].InterTransaction = 200 * sim.Nanosecond
		}
		if i%2 == 0 {
			patterns[i] = &trafficgen.Linear{
				Start: 0, End: 1 << 26, Step: spec.Org.BurstBytes(),
				ReadPercent: 80, Seed: int64(11 + i),
			}
		} else {
			patterns[i] = &trafficgen.Random{
				Start: 0, End: 1 << 26, Align: spec.Org.BurstBytes(),
				ReadPercent: 60, Seed: int64(23 + i),
			}
		}
	}
	return system.ShardedConfig{
		Kind:           system.EventBased,
		Spec:           spec,
		Mapping:        dram.RoRaBaCoCh,
		Channels:       channels,
		Xbar:           xbar.Config{Latency: 2 * sim.Nanosecond, QueueDepth: 64},
		Gens:           gens,
		Patterns:       patterns,
		Workers:        workers,
		AdaptiveQuanta: quanta,
	}
}

// runParallelPoint runs one sharded configuration to completion and returns
// host time, aggregate bandwidth, barrier count and the statistics dump.
func runParallelPoint(cfg system.ShardedConfig) (time.Duration, float64, uint64, string, error) {
	runtime.GC()
	rig, err := system.NewShardedRig(cfg)
	if err != nil {
		return 0, 0, 0, "", err
	}
	sess, err := rig.NewSession("", 0) // Run sets the deadline
	if err != nil {
		return 0, 0, 0, "", err
	}
	defer sess.Close()
	host := hostTimed(func() { err = sess.Run(100 * sim.Second) })
	if err != nil {
		return 0, 0, 0, "", fmt.Errorf("experiments: sharded run ch=%d w=%d: %w", cfg.Channels, cfg.Workers, err)
	}
	var buf bytes.Buffer
	if err := rig.Reg.DumpJSON(&buf); err != nil {
		return 0, 0, 0, "", err
	}
	return host, rig.AggregateBandwidth() / 1e9, sess.Steps(), buf.String(), nil
}

// RunParallelSpeedup measures the sharded rig at every channel count in
// channelCounts, serial (workers=1) against each entry of workerCounts, and
// verifies the parallel statistics dumps byte-match the serial ones. The
// saturating case covers every channel count; the spaced case (where the
// adaptive horizon matters) runs at the first channel count only.
// adaptiveQuanta <= 1 keeps the fixed quantum. Rows that ask for more
// workers than the host's hardware parallelism are stamped Undersubscribed —
// their speedups measure goroutine overhead, not scaling.
func RunParallelSpeedup(requests uint64, channelCounts, workerCounts []int, adaptiveQuanta int) (*ParallelResult, error) {
	if adaptiveQuanta < 1 {
		adaptiveQuanta = 1
	}
	res := &ParallelResult{
		HostCPUs:       runtime.NumCPU(),
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		Requests:       requests,
		AdaptiveQuanta: adaptiveQuanta,
	}
	hw := hardwareParallelism()
	cases := []struct {
		name     string
		spaced   bool
		channels []int
	}{
		{name: "saturating", spaced: false, channels: channelCounts},
		{name: "spaced", spaced: true, channels: channelCounts[:1]},
	}
	for _, c := range cases {
		for _, ch := range c.channels {
			serialHost, gbs, barriers, serialDump, err := runParallelPoint(
				parallelWorkload(ch, 1, adaptiveQuanta, requests, c.spaced))
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, ParallelRow{
				Case: c.name, Channels: ch, Workers: 1, Host: serialHost,
				AggregateGBs: gbs, Speedup: 1, Deterministic: true, Barriers: barriers,
			})
			for _, w := range workerCounts {
				if w <= 1 {
					continue
				}
				host, gbs, barriers, dump, err := runParallelPoint(
					parallelWorkload(ch, w, adaptiveQuanta, requests, c.spaced))
				if err != nil {
					return nil, err
				}
				under := w > hw
				if under {
					res.Undersubscribed = true
				}
				res.Rows = append(res.Rows, ParallelRow{
					Case: c.name, Channels: ch, Workers: w, Host: host,
					AggregateGBs:    gbs,
					Speedup:         float64(serialHost) / float64(host),
					Deterministic:   dump == serialDump,
					Barriers:        barriers,
					Undersubscribed: under,
				})
			}
		}
	}
	return res, nil
}
