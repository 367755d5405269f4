package experiments

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/system"
)

// SweepRequests is bwsweep's requests-per-point default.
const SweepRequests = 4000

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
	// Channels, when above one, interleaves the same traffic over that many
	// channels behind a crossbar; the reported utilisation is then the
	// per-channel average.
	Channels int
}

// SweepRow is one (stride, banks) measurement from both models. The tags are
// the row's canonical JSON form (see resultjson.go).
type SweepRow struct {
	StrideBursts uint64 `json:"strideBursts"`
	Banks        int    `json:"banks"`
	// EventUtil and CycleUtil are data bus utilisations in [0,1].
	EventUtil float64 `json:"eventUtil"`
	CycleUtil float64 `json:"cycleUtil"`
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

// SpecForFigure returns the bandwidth-sweep spec for one paper figure.
func SpecForFigure(figure int, requests uint64) (SweepSpec, error) {
	switch figure {
	case 3:
		return Fig3Spec(requests), nil
	case 4:
		return Fig4Spec(requests), nil
	case 5:
		return Fig5Spec(requests), nil
	}
	return SweepSpec{}, fmt.Errorf("experiments: figure %d is not a bandwidth sweep (want 3, 4 or 5)", figure)
}

// Point is the measurement of one model at one (stride, banks) cell of the
// sweep: DRAM-aware traffic from one generator, 32 requests outstanding per
// channel.
func (s SweepSpec) Point(kind system.Kind, stride uint64, banks int) (Point, error) {
	channels := max(s.Channels, 1)
	pattern, err := dramAware(s.Spec, s.Mapping, channels, stride, banks, s.ReadPct, 1)
	if err == nil {
		err = pattern.Validate()
	}
	if err != nil {
		return Point{}, err
	}
	p := matched(fmt.Sprintf("fig%d stride=%d banks=%d channels=%d", s.Figure, stride, banks, channels),
		s.Spec, s.Mapping, s.ClosedPage, channels, s.Requests, pattern)
	p.Kind = kind
	p.Gen.MaxOutstanding *= channels
	return p, nil
}

// runSweepPoint measures one (stride, banks) cell on both models: RunSweep's
// loop body.
func (r Runner) runSweepPoint(s SweepSpec, stride uint64, banks int) (SweepRow, error) {
	row := SweepRow{StrideBursts: stride, Banks: banks}
	util := func(kind system.Kind) (float64, error) {
		p, err := s.Point(kind, stride, banks)
		if err != nil {
			return 0, err
		}
		rig, err := r.Run(p)
		if err != nil {
			return 0, err
		}
		return rig.AvgBusUtilisation(), nil
	}
	var err error
	if row.EventUtil, err = util(system.EventBased); err != nil {
		return row, err
	}
	row.CycleUtil, err = util(system.CycleBased)
	return row, err
}

// RunSweep executes the full sweep on both models, banks outer and strides
// inner.
func (r Runner) RunSweep(s SweepSpec) (*SweepResult, error) {
	res := &SweepResult{Spec: s}
	for _, banks := range s.Banks {
		for _, stride := range s.Strides {
			row, err := r.runSweepPoint(s, stride, banks)
			if err != nil {
				return res, err
			}
			res.Rows = append(res.Rows, row)
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
