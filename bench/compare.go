package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// exactMetrics are end-to-end metrics the simulator computes, not the host:
// two runs of the same code and seed must agree on them to the last digit.
var exactMetrics = map[string]bool{
	"bw_match_vs_cycle_pct":  true,
	"lat_match_vs_cycle_pct": true,
	"ok_req_share":           true,
	"events_per_req":         true,
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func compareFiles(out io.Writer, pathA, pathB string) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	if !compareReports(out, a, b, false) {
		return fmt.Errorf("%s is worse than %s beyond the benchmark's bounds", pathB, pathA)
	}
	return nil
}

// worseBy is how much worse b is than a, as a share of a, in the metric's
// own direction; negative when b is better.
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		if a == b {
			return 0
		}
		return 1
	}
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareReports prints, per workload and end-to-end metric, both sides
// (median, quartiles and sample count where the metric is a timing) and
// whether B is within the metric's bound of A. With sameCode (an A/A check)
// the exact metrics and the stats digests must be equal too. It reports
// whether every comparison passed.
func compareReports(out io.Writer, a, b *report, sameCode bool) bool {
	pass := true
	side := func(v value) string {
		if v.N > 0 {
			return fmt.Sprintf("%.6g (median %.6g, quartiles %.6g .. %.6g, n=%d)", v.Value, v.Median, v.P25, v.P75, v.N)
		}
		return fmt.Sprintf("%.6g", v.Value)
	}
	for _, wa := range a.Workloads {
		var wb *workloadReport
		for i := range b.Workloads {
			if b.Workloads[i].Workload == wa.Workload {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Fprintf(out, "== %s: missing from B\n", wa.Workload)
			pass = false
			continue
		}
		fmt.Fprintf(out, "== %s (seed A=%d B=%d)\n", wa.Workload, wa.Seed, wb.Seed)
		if !wa.Correct || !wb.Correct {
			fmt.Fprintf(out, "  FAIL correctness gate: A=%v B=%v\n", wa.Correct, wb.Correct)
			pass = false
		}
		if sameCode && (wa.StatsDigest != wb.StatsDigest || wa.CycleDigest != wb.CycleDigest) {
			fmt.Fprintf(out, "  FAIL stats_digest differs between two runs of the same code and seed\n")
			pass = false
		}
		for _, d := range endToEnd {
			va, oka := wa.Metrics[d.name]
			vb, okb := wb.Metrics[d.name]
			if !oka || !okb {
				continue
			}
			worse := worseBy(d, va.Value, vb.Value)
			verdict := "ok"
			switch {
			case sameCode && exactMetrics[d.name] && va.Value != vb.Value:
				verdict = "FAIL (exact metric differs)"
			case worse > d.bound:
				verdict = fmt.Sprintf("FAIL (bound %.3g%%)", 100*d.bound)
			}
			if verdict != "ok" {
				pass = false
			}
			fmt.Fprintf(out, "  %-24s A %s | B %s | B worse by %+.2f%% %s  %s\n",
				d.name, side(va), side(vb), 100*worse, d.unit, verdict)
		}
	}
	return pass
}

// runSelfcheck is the A/A check: two full end-to-end sets from this binary
// must agree within the benchmark's own bounds, and exactly on what the
// simulator computes.
func runSelfcheck(out io.Writer, o options) error {
	o.trace = 0
	sets := make([]*report, 2)
	for i := range sets {
		fmt.Fprintf(out, "# selfcheck set %c\n", 'A'+i)
		rep, err := runSet(out, o)
		if err != nil {
			return err
		}
		sets[i] = rep
	}
	fmt.Fprintln(out, "# selfcheck comparison")
	if !compareReports(out, sets[0], sets[1], true) {
		return fmt.Errorf("selfcheck: two sets of runs of the same binary disagree")
	}
	if o.jsonOut != "" {
		return writeJSON(o.jsonOut, sets[1])
	}
	return nil
}
