// Command validate runs a reduced version of every paper experiment and
// checks the result against the expected qualitative bands, printing a
// pass/fail table — the one-command artefact-evaluation entry point.
//
//	go run ./cmd/validate          # ~a minute
//	go run ./cmd/validate -full    # full-size experiments
//	go run ./cmd/validate -faults  # fault-injection / RAS checks only
//	go run ./cmd/validate -trace run.json        # + observability self-check
//	go run ./cmd/validate -trace-check run.json  # validate an existing trace
//	go run ./cmd/validate -standard ddr5         # one standard's protocol smoke
//	go run ./cmd/validate -standard all          # every supported standard
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/experiments"
	"repro/internal/experiments/cliconfig"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trafficgen"
)

// check is one named assertion about an experiment outcome.
type check struct {
	name   string
	detail string
	pass   bool
}

// errFailed marks a run whose summary has failing checks; the table is
// already printed, so main only sets the exit status.
var errFailed = errors.New("checks failed")

// studies runs the reduced paper experiments: every point to completion.
var studies experiments.Runner

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil:
	case errors.Is(err, errFailed):
		os.Exit(1)
	default:
		fmt.Fprintln(os.Stderr, "validate:", err)
		os.Exit(1)
	}
}

// run is the whole command: parse, run the selected checks, print the table.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("validate", flag.ContinueOnError)
	full := fs.Bool("full", false, "run full-size experiments (slower)")
	faultsOnly := fs.Bool("faults", false, "run only the fault-injection / RAS checks")
	traceOut := fs.String("trace", "", "also run the observability self-check, writing its Perfetto trace here")
	traceCheck := fs.String("trace-check", "", "validate an existing Chrome trace file and exit")
	standard := fs.String("standard", "", "run only the protocol smoke for one memory standard keyword, or \"all\"")
	if ok, err := cliconfig.Parse(fs, args); !ok {
		return err
	}

	if *traceCheck != "" {
		sum, err := obs.ValidateTraceStrict(*traceCheck)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s: valid Chrome trace JSON: %d events, %d lifecycle spans (%d open), "+
			"%d bursts, %d activates, %d refreshes, %d power spans, processes %v\n",
			*traceCheck, sum.Events, sum.SpanBegins, sum.OpenSpans(),
			sum.Bursts, sum.Activates, sum.Refreshes, sum.PowerSpans, sum.Processes)
		return nil
	}

	sweepReq, latReq, powerReq, speedReq := uint64(1500), uint64(6000), uint64(1500), uint64(20000)
	memOps := uint64(1000)
	cores := 8
	if *full {
		sweepReq, latReq, powerReq, speedReq = 4000, 20000, 5000, 100000
		memOps = 5000
		cores = 16
	}

	var checks []check
	add := func(name string, pass bool, detail string, args ...any) {
		checks = append(checks, check{name: name, pass: pass, detail: fmt.Sprintf(detail, args...)})
	}

	if *standard != "" {
		standardChecks(add, *standard, memOps)
		return report(out, checks)
	}

	if *faultsOnly {
		faultChecks(add, memOps)
		if *traceOut != "" {
			traceChecks(add, *traceOut, memOps)
		}
		return report(out, checks)
	}

	// Figure 3: open-page reads reach ~90%+, models agree.
	f3 := experiments.Fig3Spec(sweepReq)
	f3.Strides = []uint64{1, 16, 128}
	f3.Banks = []int{1, 8}
	if res, err := studies.RunSweep(f3); err == nil {
		rows := res.RowsForBanks(8)
		last := rows[len(rows)-1]
		add("Fig3 peak utilisation", last.EventUtil > 0.85, "event %.3f at full stride", last.EventUtil)
		maxDiff := 0.0
		for _, r := range res.Rows {
			if d := math.Abs(r.EventUtil - r.CycleUtil); d > maxDiff {
				maxDiff = d
			}
		}
		add("Fig3 model agreement", maxDiff < 0.15, "max divergence %.3f", maxDiff)
	} else {
		add("Fig3", false, "error: %v", err)
	}

	// Figure 5: closed-page writes fall with stride.
	f5 := experiments.Fig5Spec(sweepReq)
	f5.Strides = []uint64{1, 128}
	f5.Banks = []int{8}
	if res, err := studies.RunSweep(f5); err == nil {
		rows := res.RowsForBanks(8)
		add("Fig5 stride pathology", rows[1].EventUtil < rows[0].EventUtil,
			"util %.3f -> %.3f as stride grows", rows[0].EventUtil, rows[1].EventUtil)
	} else {
		add("Fig5", false, "error: %v", err)
	}

	// Figure 6: latency means within 15%.
	if res, err := studies.RunLatency(experiments.Fig6Spec(latReq)); err == nil {
		ratio := res.Event.MeanNs / res.Cycle.MeanNs
		add("Fig6 latency correlation", ratio > 0.85 && ratio < 1.15,
			"mean ratio %.3f (ev %.1f / cy %.1f ns)", ratio, res.Event.MeanNs, res.Cycle.MeanNs)
	} else {
		add("Fig6", false, "error: %v", err)
	}

	// Figure 7: event model bimodal, baseline not.
	if res, err := studies.RunLatency(experiments.Fig7Spec(latReq)); err == nil {
		add("Fig7 bimodality", res.Event.Bimodal(50) && !res.Cycle.Bimodal(50),
			"event modes %v, cycle modes %v",
			res.Event.CoarseModes(25, 0.05), res.Cycle.CoarseModes(25, 0.05))
	} else {
		add("Fig7", false, "error: %v", err)
	}

	// §III-C3: power within 25% max (paper 8%).
	if res, err := studies.RunPowerComparison(powerReq); err == nil {
		add("Power comparison", res.AvgDiffPct < 10 && res.MaxDiffPct < 25,
			"avg %.1f%%, max %.1f%% (paper: 3%%/8%%)", res.AvgDiffPct, res.MaxDiffPct)
	} else {
		add("Power", false, "error: %v", err)
	}

	// §III-D: event model faster on average, and fastest on the HMC case.
	if res, err := studies.RunSpeedup(speedReq, nil); err == nil {
		add("Speedup", res.AvgSpeedup > 1.5,
			"avg %.2fx, max %.2fx (paper: 7x/10x vs DRAMSim2)", res.AvgSpeedup, res.MaxSpeedup)
	} else {
		add("Speedup", false, "error: %v", err)
	}

	// Figure 8: cache-friendly ratios near 1, event model faster overall.
	if res, err := studies.RunFig8(memOps); err == nil {
		ok := res.AvgSimTimeReduction > 0
		for _, row := range res.Rows {
			if row.Workload == "blackscholes" && (row.IPCRatio < 0.9 || row.IPCRatio > 1.1) {
				ok = false
			}
		}
		add("Fig8 full system", ok, "sim time reduction %.0f%% (paper: 13%%)",
			res.AvgSimTimeReduction*100)
	} else {
		add("Fig8", false, "error: %v", err)
	}

	// Figure 9: three technologies run; LPDDR3's chopped fills hit rows.
	if res, err := (experiments.Runner{}).RunFig9(memOps, cores); err == nil {
		var lp experiments.Fig9Row
		for _, row := range res.Rows {
			if row.Name == "LPDDR3" {
				lp = row
			}
		}
		add("Fig9 exploration", lp.RowHitRate > 0.45 && lp.RowHitRate < 0.55,
			"LPDDR3 row-hit rate %.3f (paper effect: exactly 0.5 from 2-burst fills)", lp.RowHitRate)
	} else {
		add("Fig9", false, "error: %v", err)
	}

	faultChecks(add, memOps)
	if *traceOut != "" {
		traceChecks(add, *traceOut, memOps)
	}
	return report(out, checks)
}

// standardChecks runs the multi-standard protocol smoke: each requested
// family's representative preset drives a short random run with the command
// stream recorded, and the device-aware protocol checker must find the
// stream clean — including the standard's own rules (bank-group spacings,
// same-bank refresh blackout, all-bank precharge time).
func standardChecks(add func(string, bool, string, ...any), std string, requests uint64) {
	stds := []string{std}
	if std == "all" {
		stds = dram.Standards()
	}
	for _, s := range stds {
		spec, err := dram.ByStandard(s)
		var trace power.CommandTrace
		var ctrl *core.Controller
		if err == nil {
			hub := obs.NewHub()
			hub.Attach(obs.CommandFunc(trace.Record))
			ctrl, err = runEvent(spec.Name+" smoke", core.DefaultConfig(spec), requests,
				&trafficgen.Random{Start: 0, End: 1 << 26, Align: 64, ReadPercent: 67, Seed: 7}, hub)
		}
		if err != nil {
			add("Standard "+s, false, "error: %v", err)
			continue
		}
		bw := ctrl.Bandwidth()
		vs := power.CheckTiming(spec, trace.Commands())
		detail := fmt.Sprintf("%s: %d commands protocol clean, %.2f GB/s", spec.Name, trace.Len(), bw/1e9)
		if len(vs) > 0 {
			detail = fmt.Sprintf("%s: %d violations, first: %s", spec.Name, len(vs), vs[0])
		}
		add("Standard "+s, len(vs) == 0 && bw > 0, "%s", detail)
		if spec.Refresh == dram.RefSameBank {
			refsb := 0
			for _, c := range trace.Commands() {
				if c.Kind == power.CmdREFSB {
					refsb++
				}
			}
			add("Standard "+s+" REFsb", refsb > 0, "%d same-bank refreshes in the trace", refsb)
		}
	}
}

// runEvent runs requests 64-byte accesses from pattern through one
// event-model controller of cfg, observed through probes, to completion, and
// closes any low-power interval still open, so spans, recorded commands and
// residency counters cover identical time.
func runEvent(name string, cfg core.Config, requests uint64, pattern trafficgen.Pattern, probes *obs.Hub) (*core.Controller, error) {
	rig, err := studies.Run(experiments.Point{
		Name: name, Kind: system.EventBased, Event: cfg,
		Gen:     trafficgen.Config{RequestBytes: 64, MaxOutstanding: 32, Count: requests},
		Pattern: pattern, Probes: probes, Limit: 100 * sim.Second,
	})
	if err != nil {
		return nil, err
	}
	ctrl := rig.Ctrls[0].(*core.Controller)
	ctrl.WakeAllRanks()
	return ctrl, nil
}

// traceChecks runs the observability self-check: a small traced run through
// the event-based controller, then the written Chrome trace is re-read,
// structurally validated, and its event counts reconciled against the
// controller's own aggregate statistics — the trace must tell the same
// story as the counters it is meant to explain.
func traceChecks(add func(string, bool, string, ...any), path string, requests uint64) {
	tracer, err := obs.OpenTrace(path)
	var ctrl *core.Controller
	if err == nil {
		hub := obs.NewHub()
		hub.Attach(tracer)
		// Low-power states on and bursty traffic, so the trace carries PD/SR
		// spans for the residency reconciliation check. The run is small, so
		// the tracer holds its lines until Close writes them.
		cfg := core.DefaultConfig(dram.DDR3_1600_x64())
		cfg.PowerDownIdle = 300 * sim.Nanosecond
		cfg.SelfRefreshIdle = 2 * sim.Microsecond
		ctrl, err = runEvent("traced", cfg, requests, &trafficgen.Bursty{
			Start: 0, End: 1 << 28, Align: 64, ReadPercent: 67, Seed: 1,
			BurstLen: 16, OffTime: 5 * sim.Microsecond,
		}, hub)
		err = errors.Join(err, tracer.Close())
	}
	if err != nil {
		add("Trace self-check", false, "error: %v", err)
		return
	}
	act := ctrl.PowerStats()
	sum, err := obs.ValidateTraceStrict(path)
	if err != nil {
		add("Trace validity", false, "error: %v", err)
		return
	}
	add("Trace validity", sum.Terminated, "%s: %d events, valid Chrome trace JSON", path, sum.Events)
	add("Trace spans balanced", sum.OpenSpans() == 0,
		"%d lifecycle begins, %d ends (%d open)", sum.SpanBegins, sum.SpanEnds, sum.OpenSpans())
	add("Trace/stats bursts", uint64(sum.Bursts) == act.ReadBursts+act.WriteBursts,
		"trace %d bursts vs controller %d+%d", sum.Bursts, act.ReadBursts, act.WriteBursts)
	add("Trace/stats activates", uint64(sum.Activates) == act.Activations,
		"trace %d ACTs vs controller %d", sum.Activates, act.Activations)
	add("Trace/stats refreshes", uint64(sum.Refreshes) == act.Refreshes,
		"trace %d REFs vs controller %d", sum.Refreshes, act.Refreshes)
	// Power-state residency must reconcile exactly: the traced PD/SR span
	// durations (fixed-point timestamps invert back to ticks) equal the
	// controller's per-rank residency counters. WakeAllRanks closed every
	// interval before the snapshot, so there is no open-interval slack.
	var pdSum, srSum sim.Tick
	for _, d := range act.PrePDTime {
		pdSum += d
	}
	for _, d := range act.ActPDTime {
		pdSum += d
	}
	for _, d := range act.SRTime {
		srSum += d
	}
	add("Trace/stats power residency",
		sum.PowerSpans > 0 && sum.PDTicks == int64(pdSum) && sum.SRTicks == int64(srSum),
		"trace %d spans, PD %d ticks vs controller %d, SR %d vs %d",
		sum.PowerSpans, sum.PDTicks, int64(pdSum), sum.SRTicks, int64(srSum))
}

// faultChecks validates the reliability extension: a seeded fault sweep is
// bit-for-bit reproducible, a zero error rate injects nothing, higher rates
// produce more corrections, and uncorrectable errors complete gracefully
// (poisoned responses) rather than crashing the run.
func faultChecks(add func(string, bool, string, ...any), requests uint64) {
	spec := experiments.DefaultFaultSweep(requests)
	a, err := studies.RunFaultSweep(spec)
	if err != nil {
		add("Fault sweep", false, "error: %v", err)
		return
	}
	b, err := studies.RunFaultSweep(spec)
	if err != nil {
		add("Fault sweep rerun", false, "error: %v", err)
		return
	}
	add("Fault determinism", slices.Equal(a.Rows, b.Rows),
		"two seed-%d sweeps produced identical corrected/uncorrected/retried/retired counts", spec.Seed)

	zero := a.Rows[0]
	add("Fault zero-rate baseline", zero.BER == 0 &&
		zero.Corrected+zero.Uncorrected+zero.Retried+zero.Retired+zero.Scrubs == 0,
		"BER 0 row: %d corrected, %d uncorrected, %d scrubs", zero.Corrected, zero.Uncorrected, zero.Scrubs)

	hot := a.Rows[len(a.Rows)-1]
	monotone := hot.Corrected > zero.Corrected && hot.Corrected > 0 && hot.Scrubs > 0
	for i := 1; i < len(a.Rows); i++ {
		if a.Rows[i].Corrected < a.Rows[i-1].Corrected {
			monotone = false
		}
	}
	add("Fault rate scaling", monotone,
		"corrected errors grow with BER: %d at %g -> %d at %g",
		a.Rows[1].Corrected, a.Rows[1].BER, hot.Corrected, hot.BER)

	add("Graceful uncorrectable", hot.Uncorrected > 0,
		"%d uncorrectable errors completed as poisoned responses, no crash", hot.Uncorrected)
}

// report prints the pass/fail table; a failing check is errFailed.
func report(out io.Writer, checks []check) error {
	fmt.Fprintln(out, "paper validation summary:")
	fmt.Fprintln(out)
	failed := 0
	for _, c := range checks {
		status := "PASS"
		if !c.pass {
			status = "FAIL"
			failed++
		}
		fmt.Fprintf(out, "  [%s] %-24s %s\n", status, c.name, c.detail)
	}
	fmt.Fprintln(out)
	if failed > 0 {
		fmt.Fprintf(out, "%d of %d checks failed\n", failed, len(checks))
		return errFailed
	}
	fmt.Fprintf(out, "all %d checks passed\n", len(checks))
	return nil
}
