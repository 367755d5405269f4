// Command bench is the repository's performance ledger: five named
// workloads, each measured end to end through internal/system (host time,
// allocations, heap, events and deviation from the cycle-based reference)
// and layer by layer from outside, through port taps and isolation drivers.
// See README.md in this directory and BENCHMARK.json at the repository root.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// value is one reported metric. A gated timing measured over segments is
// their best3 (see quant.go); the median, quartiles and sample count are
// there so the noise is stated beside it.
type value struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median,omitempty"`
	P25    float64 `json:"p25,omitempty"`
	P75    float64 `json:"p75,omitempty"`
	// TailPct is the highest percentile with ten samples beyond it, Tail its
	// value.
	TailPct float64 `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
	N       int     `json:"n,omitempty"`
}

// workloadReport is everything one workload produced in one invocation.
type workloadReport struct {
	Workload    string           `json:"workload"`
	Seed        int64            `json:"seed"`
	Correct     bool             `json:"correct"`
	Attempted   uint64           `json:"attempted"`
	Failed      uint64           `json:"failed"`
	StatsDigest string           `json:"stats_digest"`
	CycleDigest string           `json:"cycle_stats_digest"`
	Notes       []string         `json:"notes,omitempty"`
	Metrics     map[string]value `json:"metrics"`
}

// report is the -json file: one set of runs.
type report struct {
	GoVersion string           `json:"go_version"`
	NumCPU    int              `json:"num_cpu"`
	Seconds   float64          `json:"seconds_per_pass"`
	Quick     bool             `json:"quick"`
	Workloads []workloadReport `json:"workloads"`
}

// contractLine is the last line of standard output in driver mode.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted uint64                   `json:"attempted"`
	Failed    uint64                   `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int // 0 end-to-end only, 1 per-layer only, -1 both
	jsonOut  string
	traceOut string
	quick    bool
}

func main() {
	var o options
	var compare, selfcheck, emitJSON bool
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (1 for development; 2 is held out for claims)")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "measuring time per workload and pass")
	flag.IntVar(&o.trace, "trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only (traced and isolation passes); -1: both")
	flag.StringVar(&o.jsonOut, "json", "", "also write every metric to this JSON file")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced pass's spans to this JSON file")
	flag.BoolVar(&o.quick, "quick", false, "2 segments of ~1000 requests per workload: a smoke run, not a measurement")
	flag.BoolVar(&compare, "compare", false, "compare two -json files given as arguments: bench -compare A.json B.json")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run two full sets with this binary and compare them (A/A)")
	flag.BoolVar(&emitJSON, "emit-benchmark-json", false, "print BENCHMARK.json as the tables in workloads.go define it")
	flag.Parse()

	var err error
	switch {
	case emitJSON:
		err = emitBenchmarkJSON(os.Stdout)
	case compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two JSON files")
			break
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case selfcheck:
		err = runSelfcheck(os.Stdout, o)
	default:
		err = runAndPrint(os.Stdout, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect reports a failed correctness gate after the results were
// printed; the command exits 1.
var errIncorrect = errors.New("correctness gate failed")

func selectWorkloads(name string) ([]*workload, error) {
	if name == "all" {
		out := make([]*workload, len(workloads))
		for i := range workloads {
			out[i] = &workloads[i]
		}
		return out, nil
	}
	w := findWorkload(name)
	if w == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return nil, fmt.Errorf("unknown workload %q (have %s, all)", name, strings.Join(names, ", "))
	}
	return []*workload{w}, nil
}

// runSet runs the selected workloads and passes and returns the report.
func runSet(out io.Writer, o options) (*report, error) {
	ws, err := selectWorkloads(o.workload)
	if err != nil {
		return nil, err
	}
	if o.trace < -1 || o.trace > 1 {
		return nil, fmt.Errorf("-trace must be 0, 1 or -1")
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	rep := &report{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), Seconds: o.seconds, Quick: o.quick}
	for _, w := range ws {
		wr, err := runWorkload(w, o)
		if err != nil {
			return nil, err
		}
		printWorkload(out, wr)
		rep.Workloads = append(rep.Workloads, *wr)
	}
	return rep, nil
}

// runWorkload runs the passes -trace selects on one workload.
func runWorkload(w *workload, o options) (*workloadReport, error) {
	budget := time.Duration(o.seconds * float64(time.Second))
	minSegs := 8
	if o.quick {
		budget, minSegs = 0, 2
	}
	wr := &workloadReport{Workload: w.name, Seed: o.seed, Metrics: map[string]value{}}
	e2eBudget := budget
	if o.trace == 1 {
		// The per-layer pass needs an untraced reference of its own; it gets
		// a share of the one budget.
		e2eBudget = budget * 4 / 10
	}
	e2e, err := runEndToEnd(w, o.seed, e2eBudget, minSegs, o.quick)
	if err != nil {
		return nil, err
	}
	wr.Attempted, wr.Failed = e2e.attempted(), e2e.failed()
	wr.StatsDigest, wr.CycleDigest = e2e.event.digest, e2e.cycle.digest
	wr.Notes = append(append(wr.Notes, e2e.event.notes...), e2e.cycle.notes...)
	if o.trace != 1 {
		m := e2e.metrics()
		for _, d := range endToEnd {
			v := m[d.name]
			v.Unit = d.unit
			wr.Metrics[d.name] = v
		}
	}
	if o.trace != 0 {
		lr, err := runPerLayer(w, e2e, o, budget-e2eBudget)
		if err != nil {
			return nil, err
		}
		wr.Attempted += lr.attempted
		wr.Failed += lr.failed
		wr.Notes = append(wr.Notes, lr.notes...)
		for _, d := range perLayer {
			wr.Metrics[d.name] = value{Value: lr.metrics[d.name], Unit: d.unit}
		}
	}
	wr.Correct = wr.Failed == 0 && len(wr.Notes) == 0
	for name, v := range wr.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			wr.Correct = false
			wr.Notes = append(wr.Notes, fmt.Sprintf("metric %s is not finite", name))
		}
	}
	return wr, nil
}

// timing summarises per-segment samples.
func timing(samples []float64) value {
	v := value{Value: best3(samples), Median: median(samples),
		P25: quantile(samples, 0.25), P75: quantile(samples, 0.75), N: len(samples)}
	if p, ok := topPercentile(len(samples)); ok {
		v.TailPct, v.Tail = p, quantile(samples, p/100)
	}
	return v
}

// printWorkload prints every metric of one workload as "name value unit".
func printWorkload(out io.Writer, wr *workloadReport) {
	fmt.Fprintf(out, "== %s seed=%d correct=%v attempted=%d failed=%d\n",
		wr.Workload, wr.Seed, wr.Correct, wr.Attempted, wr.Failed)
	fmt.Fprintf(out, "stats_digest %s\n", wr.StatsDigest)
	fmt.Fprintf(out, "cycle_stats_digest %s\n", wr.CycleDigest)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			v, ok := wr.Metrics[d.name]
			if !ok {
				continue
			}
			fmt.Fprintf(out, "%s %.6g %s", d.name, v.Value, v.Unit)
			if v.N > 0 {
				fmt.Fprintf(out, "  (mean of the 3 fastest of %d segments; median %.6g, quartiles %.6g .. %.6g", v.N, v.Median, v.P25, v.P75)
				if v.TailPct > 0 {
					fmt.Fprintf(out, ", p%g %.6g: the highest percentile with 10 samples beyond it", v.TailPct, v.Tail)
				}
				fmt.Fprint(out, ")")
			}
			fmt.Fprintln(out)
		}
	}
	for _, n := range wr.Notes {
		fmt.Fprintf(out, "FAIL %s\n", n)
	}
}

// runAndPrint is the default mode: run, print, write -json, and print the
// driver's result line when exactly one workload and one pass ran.
func runAndPrint(out io.Writer, o options) error {
	rep, err := runSet(out, o)
	if err != nil {
		return err
	}
	if o.jsonOut != "" {
		if err := writeJSON(o.jsonOut, rep); err != nil {
			return err
		}
	}
	correct := true
	for _, wr := range rep.Workloads {
		correct = correct && wr.Correct
	}
	if len(rep.Workloads) == 1 && o.trace >= 0 {
		wr := rep.Workloads[0]
		line := contractLine{Correct: wr.Correct, Attempted: wr.Attempted, Failed: wr.Failed,
			Metrics: map[string]contractValue{}}
		for name, v := range wr.Metrics {
			line.Metrics[name] = contractValue{Value: v.Value, Unit: v.Unit}
		}
		b, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n", b)
	}
	if !correct {
		return errIncorrect
	}
	return nil
}

// emitBenchmarkJSON prints BENCHMARK.json from the workload and metric
// tables, which is how the file at the repository root is kept their mirror.
func emitBenchmarkJSON(out io.Writer) error {
	type namedWhy struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []namedWhy `json:"workloads"`
		EndToEnd   []metric   `json:"end_to_end"`
		PerLayer   []metric   `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, namedWhy{w.name, w.why})
	}
	for _, d := range endToEnd {
		bound := d.bound
		doc.EndToEnd = append(doc.EndToEnd, metric{d.name, d.unit, d.better, &bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, metric{d.name, d.unit, d.better, nil})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
