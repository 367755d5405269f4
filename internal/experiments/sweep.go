// Package experiments implements the paper's evaluation (§III and §IV):
// each function regenerates one figure or table, running both controller
// models over identical workloads and reporting the series the paper plots.
// The cmd/ tools print these results; bench_test.go wraps them in testing.B
// harnesses.
package experiments

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trafficgen"
	"repro/internal/xbar"
)

// SweepSpec describes one bandwidth sweep (Figs. 3-5): a DRAM-aware traffic
// pattern swept over stride size and bank count, run on both models.
type SweepSpec struct {
	Name       string
	Figure     int
	ReadPct    int
	ClosedPage bool
	Mapping    dram.Mapping
	Spec       dram.Spec
	// Strides are sequential run lengths in bursts.
	Strides []uint64
	// Banks are the bank counts targeted.
	Banks []int
	// Requests per measurement point.
	Requests uint64
	// Stop, when non-nil, is polled between measurement points; once it
	// returns true the sweep stops and returns the rows measured so far
	// together with ErrInterrupted. This is how the CLIs turn SIGINT into
	// "finish the current point, flush partial results, exit cleanly".
	Stop func() bool
}

// SweepRow is one (stride, banks) measurement from both models.
type SweepRow struct {
	StrideBursts uint64
	Banks        int
	// EventUtil and CycleUtil are data bus utilisations in [0,1].
	EventUtil float64
	CycleUtil float64
}

// SweepResult is a complete sweep.
type SweepResult struct {
	Spec SweepSpec
	Rows []SweepRow
}

// defaultStrides returns log-spaced strides from one burst to the full row.
func defaultStrides(org dram.Organization) []uint64 {
	var out []uint64
	for s := uint64(1); s <= org.BurstsPerRow(); s *= 2 {
		out = append(out, s)
	}
	return out
}

func defaultBanks(org dram.Organization) []int {
	var out []int
	for b := 1; b <= org.BanksPerRank; b *= 2 {
		out = append(out, b)
	}
	return out
}

// Fig3Spec is the paper's Figure 3: open page, 100% reads, RoRaBaCoCh (the
// mapping that maximises page hits for sequential addresses).
func Fig3Spec(requests uint64) SweepSpec {
	spec := dram.DDR3_1333_8x8()
	return SweepSpec{
		Name: "Fig3: bus utilisation, open page, reads", Figure: 3,
		ReadPct: 100, ClosedPage: false, Mapping: dram.RoRaBaCoCh,
		Spec:    spec,
		Strides: defaultStrides(spec.Org), Banks: defaultBanks(spec.Org),
		Requests: requests,
	}
}

// Fig4Spec is Figure 4: open page, 1:1 read/write mix.
func Fig4Spec(requests uint64) SweepSpec {
	s := Fig3Spec(requests)
	s.Name = "Fig4: bus utilisation, open page, 1:1 mix"
	s.Figure = 4
	s.ReadPct = 50
	return s
}

// Fig5Spec is Figure 5: closed page, 100% writes, RoCoRaBaCh (the mapping
// that maximises bank parallelism).
func Fig5Spec(requests uint64) SweepSpec {
	s := Fig3Spec(requests)
	s.Name = "Fig5: bus utilisation, closed page, writes"
	s.Figure = 5
	s.ReadPct = 0
	s.ClosedPage = true
	s.Mapping = dram.RoCoRaBaCh
	return s
}

// sweepPattern builds the DRAM-aware pattern for one sweep point.
func sweepPattern(s SweepSpec, stride uint64, banks, channels int) (trafficgen.Pattern, error) {
	dec, err := dram.NewDecoder(s.Spec.Org, s.Mapping, channels)
	if err != nil {
		return nil, err
	}
	pattern := &trafficgen.DRAMAware{
		Decoder:      dec,
		StrideBursts: stride,
		Banks:        banks,
		ReadPercent:  s.ReadPct,
		Seed:         1,
	}
	if err := pattern.Validate(); err != nil {
		return nil, err
	}
	return pattern, nil
}

// trafficGenConfig is the generator configuration every sweep point uses.
func trafficGenConfig(s SweepSpec) trafficgen.Config {
	return trafficgen.Config{
		RequestBytes:   s.Spec.Org.BurstBytes(),
		MaxOutstanding: 32,
		Count:          s.Requests,
	}
}

// runMultiChannelPoint measures one model at one sweep point on the
// multi-channel rig and returns the average per-channel bus utilisation.
func runMultiChannelPoint(kind system.Kind, s SweepSpec, stride uint64, banks, channels int) (float64, error) {
	pattern, err := sweepPattern(s, stride, banks, channels)
	if err != nil {
		return 0, err
	}
	rig, err := system.NewMultiChannelRig(system.MultiChannelConfig{
		Kind:       kind,
		Spec:       s.Spec,
		Mapping:    s.Mapping,
		ClosedPage: s.ClosedPage,
		Channels:   channels,
		Xbar:       xbar.Config{Latency: 2 * sim.Nanosecond, QueueDepth: 64},
		Gens: []trafficgen.Config{{
			RequestBytes:   s.Spec.Org.BurstBytes(),
			MaxOutstanding: 32 * channels,
			Count:          s.Requests,
		}},
		Patterns: []trafficgen.Pattern{pattern},
	})
	if err != nil {
		return 0, err
	}
	if !rig.Run(sim.Second) {
		return 0, fmt.Errorf("experiments: %d-channel %s point stride=%d banks=%d did not complete", channels, kind, stride, banks)
	}
	var util float64
	for _, c := range rig.Ctrls {
		util += c.BusUtilisation()
	}
	return util / float64(len(rig.Ctrls)), nil
}

// RunSweep executes the full sweep on both models.
func RunSweep(s SweepSpec) (*SweepResult, error) {
	return runSweepWith(s, func(kind system.Kind, stride uint64, banks int) (float64, error) {
		return runPoint(kind, s, stride, banks, nil)
	})
}

// RunSweepMultiChannel executes the sweep with the same traffic interleaved
// over `channels` channels behind a crossbar, on one kernel. The reported
// utilisation is the per-channel average.
func RunSweepMultiChannel(s SweepSpec, channels int) (*SweepResult, error) {
	return runSweepWith(s, func(kind system.Kind, stride uint64, banks int) (float64, error) {
		return runMultiChannelPoint(kind, s, stride, banks, channels)
	})
}

func runSweepWith(s SweepSpec, point func(system.Kind, uint64, int) (float64, error)) (*SweepResult, error) {
	res := &SweepResult{Spec: s}
	for _, banks := range s.Banks {
		for _, stride := range s.Strides {
			if s.Stop != nil && s.Stop() {
				return res, ErrInterrupted
			}
			ev, err := point(system.EventBased, stride, banks)
			if err != nil {
				return nil, err
			}
			cy, err := point(system.CycleBased, stride, banks)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, SweepRow{
				StrideBursts: stride, Banks: banks,
				EventUtil: ev, CycleUtil: cy,
			})
		}
	}
	return res, nil
}

// RowsForBanks filters the sweep rows for one bank count, in stride order.
func (r *SweepResult) RowsForBanks(banks int) []SweepRow {
	var out []SweepRow
	for _, row := range r.Rows {
		if row.Banks == banks {
			out = append(out, row)
		}
	}
	return out
}
