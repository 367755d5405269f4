// Command latdist regenerates the paper's read latency distributions
// (Figures 6-7) for both controller models, printing histograms as text and
// reporting the modality analysis: Figure 7's event-model distribution is
// bimodal (write-drain delays a fraction of the reads), the baseline's is
// not.
package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"repro/internal/experiments"
	"repro/internal/experiments/cliconfig"
)

// stop is polled before every measurement point: main points it at
// SIGINT/SIGTERM, the tests at a counter.
var stop func() bool

func main() { cliconfig.Main("latdist", &stop, run) }

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("latdist", flag.ContinueOnError)
	figure := fs.Int("figure", 6, "paper figure to regenerate (6 or 7)")
	requests := cliconfig.AddCount(fs, "requests", 20000, "read+write requests to issue")
	bins := fs.Float64("bin", 25, "histogram bin width for display (ns)")
	standard := cliconfig.AddStandard(fs)
	if ok, err := cliconfig.Parse(fs, args); !ok {
		return err
	}
	if *bins <= 0 {
		return fmt.Errorf("-bin must be a positive width in ns, got %g", *bins)
	}

	var spec experiments.LatencySpec
	switch *figure {
	case 6:
		spec = experiments.Fig6Spec(*requests)
	case 7:
		spec = experiments.Fig7Spec(*requests)
	default:
		return fmt.Errorf("figure %d not a latency distribution (want 6 or 7)", *figure)
	}
	if err := cliconfig.ResolveStandard(*standard, &spec.Spec); err != nil {
		return err
	}

	res, err := experiments.Runner{Stop: stop}.RunLatency(spec)
	if !cliconfig.Partial(out, err, "the models that finished") {
		return err
	}

	fmt.Fprintf(out, "%s\n", spec.Name)
	fmt.Fprintf(out, "memory: %s, mapping: %s, reads: %d%%, ITT: %s\n\n",
		spec.Spec.Name, spec.Mapping, spec.ReadPct, spec.InterTransaction)

	// An interrupted study has only the models that ran.
	if err == nil || res.Event.Samples > 0 {
		printSummary(out, "event-based (this work)", res.Event, *bins)
	}
	if err == nil {
		printSummary(out, "cycle-based (DRAMSim2-style)", res.Cycle, *bins)
	}
	return err
}

func printSummary(out io.Writer, name string, h experiments.HistogramSummary, binNs float64) {
	fmt.Fprintf(out, "%s:\n", name)
	fmt.Fprintf(out, "  samples %d  mean %.1f ns  p50 %.1f ns  p99 %.1f ns  stddev %.1f ns\n",
		h.Samples, h.MeanNs, h.P50Ns, h.P99Ns, h.StdDev)
	modes := h.CoarseModes(binNs, 0.05)
	fmt.Fprintf(out, "  modes (>=5%% share, %g ns bins): %v  bimodal: %v\n", binNs, modes, h.Bimodal(50))

	// Coarse text histogram.
	coarse := h.Coarse(binNs)
	var maxCount uint64
	for _, c := range coarse {
		maxCount = max(maxCount, c)
	}
	for b, c := range coarse {
		if c == 0 {
			continue
		}
		width := int(c * 50 / maxCount)
		fmt.Fprintf(out, "  %6.0f-%6.0f ns %7d %s\n",
			float64(b)*binNs, float64(b+1)*binNs, c, strings.Repeat("#", width))
	}
	fmt.Fprintln(out)
}
