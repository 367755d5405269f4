package experiments

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/system"
	"repro/internal/trafficgen"
)

// LatencySpec describes a read-latency-distribution experiment (Figs. 6-7).
type LatencySpec struct {
	Name       string
	Figure     int
	ReadPct    int
	ClosedPage bool
	Mapping    dram.Mapping
	Spec       dram.Spec
	Requests   uint64
	// InterTransaction spaces requests so queues stay moderately loaded
	// rather than saturated (latency distributions are most interesting at
	// intermediate load).
	InterTransaction sim.Tick
	// MinWritesPerSwitch overrides the event model's write-drain batch when
	// non-zero; Fig. 7's bimodality grows with the batch size.
	MinWritesPerSwitch int
}

// Fig6Spec is Figure 6: linear read-only traffic, open page.
func Fig6Spec(requests uint64) LatencySpec {
	return LatencySpec{
		Name: "Fig6: read latency distribution, linear reads, open page", Figure: 6,
		ReadPct: 100, ClosedPage: false, Mapping: dram.RoRaBaCoCh,
		Spec:     dram.DDR3_1333_8x8(),
		Requests: requests, InterTransaction: 20 * sim.Nanosecond,
	}
}

// Fig7Spec is Figure 7: linear 1:1 mixed traffic, closed page. The paper's
// headline observation is that the event-based model's write-drain policy
// produces a *bimodal* read latency distribution here, while the baseline's
// interleaved scheduling stays unimodal.
func Fig7Spec(requests uint64) LatencySpec {
	return LatencySpec{
		Name: "Fig7: read latency distribution, linear 1:1 mix, closed page", Figure: 7,
		ReadPct: 50, ClosedPage: true, Mapping: dram.RoCoRaBaCh,
		Spec:     dram.DDR3_1333_8x8(),
		Requests: requests, InterTransaction: 12 * sim.Nanosecond,
		MinWritesPerSwitch: 16,
	}
}

// HistogramSummary is a portable snapshot of a latency histogram.
type HistogramSummary struct {
	Samples uint64
	MeanNs  float64
	P50Ns   float64
	P99Ns   float64
	StdDev  float64
	// Buckets/BucketLo render the distribution (non-empty buckets only).
	BucketLo []float64
	Buckets  []uint64
}

func summarise(h *stats.Histogram) HistogramSummary {
	s := HistogramSummary{
		Samples: h.Count(),
		MeanNs:  h.Mean(),
		P50Ns:   h.Percentile(50),
		P99Ns:   h.Percentile(99),
		StdDev:  h.StdDev(),
	}
	for i, c := range h.Buckets() {
		if c == 0 {
			continue
		}
		lo, _ := h.BucketBounds(i)
		s.BucketLo = append(s.BucketLo, lo)
		s.Buckets = append(s.Buckets, c)
	}
	return s
}

// LatencyResult holds both models' distributions for one figure.
type LatencyResult struct {
	Event HistogramSummary
	Cycle HistogramSummary
}

// Point is the measurement of one model: linear traffic over 64 MiB at the
// spec's spacing, 16 requests outstanding.
func (s LatencySpec) Point(kind system.Kind) Point {
	p := matched(fmt.Sprintf("fig%d latency", s.Figure), s.Spec, s.Mapping, s.ClosedPage, 1, s.Requests,
		&trafficgen.Linear{Start: 0, End: 1 << 26, Step: s.Spec.Org.BurstBytes(), ReadPercent: s.ReadPct, Seed: 7})
	p.Kind = kind
	p.Gen.MaxOutstanding = 16
	p.Gen.InterTransaction = s.InterTransaction
	if s.MinWritesPerSwitch > 0 {
		p.Event.MinWritesPerSwitch = s.MinWritesPerSwitch
	}
	return p
}

// RunLatency executes the distribution experiment on both models.
func (r Runner) RunLatency(s LatencySpec) (*LatencyResult, error) {
	res := &LatencyResult{}
	rig, err := r.Run(s.Point(system.EventBased))
	if err != nil {
		return res, err
	}
	res.Event = summarise(rig.Gen.ReadLatency())
	if rig, err = r.Run(s.Point(system.CycleBased)); err != nil {
		return res, err
	}
	res.Cycle = summarise(rig.Gen.ReadLatency())
	return res, nil
}

// Coarse rebins the distribution into binNs-wide bins: element b counts the
// samples in [b*binNs, (b+1)*binNs). The paper's Figure 7 bimodality claim is
// about distribution *shape*, so coarse bins (tens of ns) are the right
// resolution.
func (h HistogramSummary) Coarse(binNs float64) []uint64 {
	var coarse []uint64
	for i, lo := range h.BucketLo {
		b := int(lo / binNs)
		for len(coarse) <= b {
			coarse = append(coarse, 0)
		}
		coarse[b] += h.Buckets[i]
	}
	return coarse
}

// CoarseModes returns the lower bounds of the coarse bins that are local
// maxima holding at least minShare of all samples.
func (h HistogramSummary) CoarseModes(binNs, minShare float64) []float64 {
	if h.Samples == 0 || binNs <= 0 {
		return nil
	}
	coarse := append(h.Coarse(binNs), 0) // a zero neighbour past the last bin
	thresh := minShare * float64(h.Samples)
	var modes []float64
	var left uint64
	for b, c := range coarse[:len(coarse)-1] {
		right := coarse[b+1]
		if float64(c) >= thresh && c >= left && c >= right && (c > left || c > right) {
			modes = append(modes, float64(b)*binNs)
		}
		left = c
	}
	return modes
}

// Bimodal reports whether the distribution has two coarse modes separated
// by at least minGapNs (using 25 ns bins and a 5% share threshold).
func (h HistogramSummary) Bimodal(minGapNs float64) bool {
	modes := h.CoarseModes(25, 0.05)
	if len(modes) < 2 {
		return false
	}
	return modes[len(modes)-1]-modes[0] >= minGapNs
}
