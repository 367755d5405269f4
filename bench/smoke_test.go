package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON is BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var bj benchmarkJSON
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

// TestBenchmarkJSONMirrorsTable: BENCHMARK.json and the tables in
// workloads.go name the same workloads and metrics, with the same units,
// directions and bounds, so neither can drift from the other.
func TestBenchmarkJSONMirrorsTable(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if bj.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, table %d", bj.RunSeconds, runSeconds)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), table has %q (%q)",
				i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	check := func(what string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the table", what, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s/%s, table has %s/%s/%s",
					what, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.bound):
				t.Errorf("%s %s: bound in BENCHMARK.json does not match the table's %v", what, d.name, d.bound)
			case bounded && (d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s %s: bound %v outside (0, 0.25]", what, d.name, d.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", what, d.name)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestQuickRunEmitsEveryMetric runs every workload and both passes at -quick
// size and checks the output against BENCHMARK.json: every named metric is
// printed exactly once per workload, finite, with its unit, and the
// correctness gate holds.
func TestQuickRunEmitsEveryMetric(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var out bytes.Buffer
	rep, err := runSet(&out, options{workload: "all", seed: 1, seconds: 1, trace: -1, quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(bj.Workloads) {
		t.Fatalf("%d workloads ran, BENCHMARK.json names %d", len(rep.Workloads), len(bj.Workloads))
	}
	printed := map[string]int{} // "workload name" -> lines
	current := ""
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) >= 2 && f[0] == "==":
			current = f[1]
		case len(f) >= 3:
			printed[current+" "+f[0]]++
		}
	}
	named := append(append([]jsonMetric(nil), bj.EndToEnd...), bj.PerLayer...)
	seen := map[string]bool{}
	for _, m := range named {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %q unit %q: name or unit outside the allowed alphabet", m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("metric %q is named twice", m.Name)
		}
		seen[m.Name] = true
	}
	for i, wr := range rep.Workloads {
		if wr.Workload != bj.Workloads[i].Name {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, wr.Workload, bj.Workloads[i].Name)
		}
		if !wr.Correct || wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d notes=%v", wr.Workload, wr.Correct, wr.Attempted, wr.Failed, wr.Notes)
		}
		if len(wr.Metrics) != len(named) {
			t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", wr.Workload, len(wr.Metrics), len(named))
		}
		for _, m := range named {
			v, ok := wr.Metrics[m.Name]
			if !ok {
				t.Errorf("%s: metric %s not emitted", wr.Workload, m.Name)
				continue
			}
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: metric %s = %v is not finite", wr.Workload, m.Name, v.Value)
			}
			if v.Unit != m.Unit {
				t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", wr.Workload, m.Name, v.Unit, m.Unit)
			}
			if n := printed[wr.Workload+" "+m.Name]; n != 1 {
				t.Errorf("%s: metric %s printed %d times, want once", wr.Workload, m.Name, n)
			}
		}
		// No end-to-end metric may read zero: the gate is a share of it.
		for _, m := range bj.EndToEnd {
			if wr.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", wr.Workload, m.Name, wr.Metrics[m.Name].Value)
			}
		}
	}
	// The layers a TrafficRig workload bypasses do no work there.
	for _, wr := range rep.Workloads {
		if findWorkload(wr.Workload).topo != topoTraffic {
			continue
		}
		for name, v := range wr.Metrics {
			layer := strings.SplitN(name, ".", 2)[0]
			if (layer == "cache" || layer == "cpu" || layer == "xbar") && v.Value != 0 {
				t.Errorf("%s: %s = %v, want 0 (layer bypassed)", wr.Workload, name, v.Value)
			}
		}
		// A fresh system grows its queues and pools once (a few hundred
		// allocations per segment, most of a request each at this tiny size);
		// the steady state allocates nothing.
		if v := wr.Metrics["system.run_allocs_per_req"].Value; v > 1.5 {
			t.Errorf("%s: %v allocations per request in the timed region, want only first-touch growth", wr.Workload, v)
		}
	}
	for _, wr := range rep.Workloads {
		if wr.Workload == "fullsys_canneal_4c" && wr.Metrics["system.run_allocs_per_req"].Value < 5 {
			t.Errorf("%s: expected steady-state allocations, got %v per request", wr.Workload, wr.Metrics["system.run_allocs_per_req"].Value)
		}
	}
}

// TestCompareReports: B within the bound passes, beyond it fails, and an A/A
// check also fails on an exact metric that moved at all.
func TestCompareReports(t *testing.T) {
	mk := func(host, events float64) *report {
		return &report{Workloads: []workloadReport{{
			Workload: "w", Correct: true,
			Metrics: map[string]value{
				"host_ns_per_req": {Value: host, Unit: "ns", P25: host, P75: host, N: 10},
				"events_per_req":  {Value: events, Unit: "count"},
			},
		}}}
	}
	var sink bytes.Buffer
	if !compareReports(&sink, mk(100, 3), mk(105, 3), true) {
		t.Errorf("5%% slower should pass a 10%% bound:\n%s", sink.String())
	}
	if compareReports(&sink, mk(100, 3), mk(130, 3), false) {
		t.Error("30% slower should fail")
	}
	if !compareReports(&sink, mk(100, 3), mk(60, 3), false) {
		t.Error("faster should pass")
	}
	if compareReports(&sink, mk(100, 3), mk(100, 3.001), true) {
		t.Error("an exact metric that moved should fail the A/A check")
	}
	if !compareReports(&sink, mk(100, 3), mk(100, 3.001), false) {
		t.Error("an exact metric within its bound should pass a plain comparison")
	}
	if compareReports(&sink, mk(100, 3), &report{}, false) {
		t.Error("a workload missing from B should fail")
	}
}
