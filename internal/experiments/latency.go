package experiments

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/internal/dram"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/system"
	"repro/internal/trafficgen"
)

// latency is a read-latency-distribution study (Figs. 6-7).
type latency struct {
	figure  int
	name    string
	readPct int
	closed  bool
	mapping dram.Mapping
	// itt spaces requests so queues stay moderately loaded rather than
	// saturated (latency distributions are most interesting at intermediate
	// load).
	itt sim.Tick
	// minWrites overrides the event model's write-drain batch when non-zero;
	// Fig. 7's bimodality grows with the batch size.
	minWrites int
}

// latencies are Figure 6 (linear read-only traffic, open page) and Figure 7
// (linear 1:1 mixed traffic, closed page). Fig. 7's headline observation is
// that the event-based model's write-drain policy produces a *bimodal* read
// latency distribution, while the baseline's interleaved scheduling stays
// unimodal.
var latencies = []latency{
	{6, "Fig6: read latency distribution, linear reads, open page", 100, false, dram.RoRaBaCoCh, 20 * sim.Nanosecond, 0},
	{7, "Fig7: read latency distribution, linear 1:1 mix, closed page", 50, true, dram.RoCoRaBaCh, 12 * sim.Nanosecond, 16},
}

// point is the measurement of one model: linear traffic over 64 MiB at the
// figure's spacing, 16 requests outstanding.
func (g latency) point(kind system.Kind, s Setup, spec dram.Spec) Point {
	p := matched(fmt.Sprintf("fig%d latency", g.figure), spec, g.mapping, g.closed, 1, s.N,
		&trafficgen.Linear{Start: 0, End: 1 << 26, Step: spec.Org.BurstBytes(), ReadPercent: g.readPct, Seed: s.Seed})
	p.Kind = kind
	p.Gen.MaxOutstanding = 16
	p.Gen.InterTransaction = g.itt
	if g.minWrites > 0 {
		p.Event.MinWritesPerSwitch = g.minWrites
	}
	return p
}

// LatencyPoint is Figure figure's (6 or 7) point, at the study's defaults, for
// one model.
func LatencyPoint(figure int, kind system.Kind) Point {
	return latencies[figure-6].point(kind, Studies[figure-3].Setup(), Studies[figure-3].Spec)
}

// LowLoadPoint is the §III-D low-load shape in isolation — the Fig. 6 linear
// reads spaced 48 ns apart, where a cycle-based model pays for every idle
// cycle. The count is the caller's to set (bench_test.go: b.N).
func LowLoadPoint(kind system.Kind) Point {
	p := LatencyPoint(6, kind)
	p.Gen.InterTransaction = 48 * sim.Nanosecond
	p.Name = "low load"
	return p
}

// study measures each model's read latency distribution, event-based first,
// and prints each as its summary, its modes and a bar per bin.
func (g latency) study() *Study {
	return &Study{
		Name: strconv.Itoa(g.figure), Flags: "requests spec bin", Count: 20000, Spec: dram.DDR3_1333_8x8(), Seed: 7,
		Cases: func(s Setup, spec dram.Spec) (cases []Case) {
			for i, name := range []string{"event-based (this work)", "cycle-based (DRAMSim2-style)"} {
				cases = append(cases, measure(name, 1, func(int) (Point, error) { return g.point(models[i], s, spec), nil },
					func(rigs []*Rig) Row { return Row{{"model", name}, {"latency", rigs[0].Gen.ReadLatency()}} }))
			}
			return cases
		},
		Title: func(t *Table) string {
			return fmt.Sprintf("%s\nmemory: %s, mapping: %s, reads: %d%%, ITT: %s\n\n", g.name, t.Spec.Name, g.mapping, g.readPct, g.itt)
		},
		Print: func(w io.Writer, t *Table) {
			for _, row := range t.Rows {
				h, bin := row.Get("latency").(*stats.Histogram), t.Setup.Bin
				fmt.Fprintf(w, "%s:\n  samples %d  mean %.1f ns  p50 %.1f ns  p99 %.1f ns  stddev %.1f ns\n  modes (>=5%% share, %g ns bins): %v  bimodal: %v\n",
					row.Get("model"), h.Count(), h.Mean(), h.Percentile(50), h.Percentile(99), h.StdDev(), bin, coarseModes(h, bin, 0.05), bimodal(h, 50))
				bins := coarse(h, bin)
				maxCount := slices.Max(append(bins, 0)) // 0: an empty histogram has no bars
				for b, c := range bins {
					if c > 0 {
						fmt.Fprintf(w, "  %6.0f-%6.0f ns %7d %s\n",
							float64(b)*bin, float64(b+1)*bin, c, strings.Repeat("#", int(c*50/maxCount)))
					}
				}
				fmt.Fprintln(w)
			}
		},
		Partial: "the models that finished",
	}
}

// coarse rebins h into binNs-wide bins: element b counts the samples in
// [b*binNs, (b+1)*binNs), up to the last non-empty bin. The paper's Figure 7
// bimodality claim is about distribution *shape*, so coarse bins (tens of ns)
// are the right resolution.
func coarse(h *stats.Histogram, binNs float64) []uint64 {
	var bins []uint64
	for i, c := range h.Buckets() {
		if c == 0 {
			continue
		}
		lo, _ := h.BucketBounds(i)
		b := int(lo / binNs)
		for len(bins) <= b {
			bins = append(bins, 0)
		}
		bins[b] += c
	}
	return bins
}

// coarseModes returns the lower bounds of the coarse bins that are local
// maxima holding at least minShare of all samples.
func coarseModes(h *stats.Histogram, binNs, minShare float64) []float64 {
	if h.Count() == 0 || binNs <= 0 {
		return nil
	}
	bins := append(coarse(h, binNs), 0) // a zero neighbour past the last bin
	thresh := minShare * float64(h.Count())
	var modes []float64
	var left uint64
	for b, c := range bins[:len(bins)-1] {
		right := bins[b+1]
		if float64(c) >= thresh && c >= left && c >= right && (c > left || c > right) {
			modes = append(modes, float64(b)*binNs)
		}
		left = c
	}
	return modes
}

// bimodal reports whether h has two coarse modes separated by at least
// minGapNs (using 25 ns bins and a 5% share threshold).
func bimodal(h *stats.Histogram, minGapNs float64) bool {
	modes := coarseModes(h, 25, 0.05)
	return len(modes) >= 2 && modes[len(modes)-1]-modes[0] >= minGapNs
}
