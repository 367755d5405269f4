// Command latdist regenerates the paper's read latency distributions
// (Figures 6-7) for both controller models, printing histograms as text and
// reporting the modality analysis: Figure 7's event-model distribution is
// bimodal (write-drain delays a fraction of the reads), the baseline's is
// not.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/experiments/cliconfig"
)

func main() {
	figure := flag.Int("figure", 6, "paper figure to regenerate (6 or 7)")
	requests := cliconfig.AddRequests(flag.CommandLine, 20000, "read+write requests to issue")
	bins := flag.Float64("bin", 25, "histogram bin width for display (ns)")
	standard := cliconfig.AddStandard(flag.CommandLine)
	flag.Parse()

	var spec experiments.LatencySpec
	switch *figure {
	case 6:
		spec = experiments.Fig6Spec(*requests)
	case 7:
		spec = experiments.Fig7Spec(*requests)
	default:
		fmt.Fprintf(os.Stderr, "latdist: figure %d not a latency distribution (want 6 or 7)\n", *figure)
		os.Exit(1)
	}

	if err := cliconfig.ResolveStandard(*standard, &spec.Spec); err != nil {
		fmt.Fprintln(os.Stderr, "latdist:", err)
		os.Exit(1)
	}

	res, err := experiments.RunLatency(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "latdist:", err)
		os.Exit(1)
	}

	fmt.Printf("%s\n", spec.Name)
	fmt.Printf("memory: %s, mapping: %s, reads: %d%%, ITT: %s\n\n",
		spec.Spec.Name, spec.Mapping, spec.ReadPct, spec.InterTransaction)

	printSummary("event-based (this work)", res.Event, *bins)
	printSummary("cycle-based (DRAMSim2-style)", res.Cycle, *bins)
}

func printSummary(name string, h experiments.HistogramSummary, binNs float64) {
	fmt.Printf("%s:\n", name)
	fmt.Printf("  samples %d  mean %.1f ns  p50 %.1f ns  p99 %.1f ns  stddev %.1f ns\n",
		h.Samples, h.MeanNs, h.P50Ns, h.P99Ns, h.StdDev)
	modes := h.CoarseModes(binNs, 0.05)
	fmt.Printf("  modes (>=5%% share, %g ns bins): %v  bimodal: %v\n", binNs, modes, h.Bimodal(50))

	// Coarse text histogram.
	coarse := map[int]uint64{}
	maxBin, maxCount := 0, uint64(0)
	for i, lo := range h.BucketLo {
		b := int(lo / binNs)
		coarse[b] += h.Buckets[i]
		if b > maxBin {
			maxBin = b
		}
		// Bins only grow, so the running maximum ends at the tallest bin.
		if coarse[b] > maxCount {
			maxCount = coarse[b]
		}
	}
	if maxCount == 0 {
		fmt.Println()
		return
	}
	for b := 0; b <= maxBin; b++ {
		c := coarse[b]
		if c == 0 {
			continue
		}
		width := int(c * 50 / maxCount)
		fmt.Printf("  %6.0f-%6.0f ns %7d %s\n",
			float64(b)*binNs, float64(b+1)*binNs, c, strings.Repeat("#", width))
	}
	fmt.Println()
}
