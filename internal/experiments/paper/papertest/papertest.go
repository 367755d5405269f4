// Package papertest is the one table the paper command is tested by: its
// goldens, refusals and interrupts, each row filed under the tool whose
// invocation it is. That is paper itself for what only paper takes, else one
// of the six figure tools it replaced (bwsweep, latdist, powercmp, speedup,
// fullsys, explore). cmd/paper's tests run paper's rows; each retired tool's
// directory under cmd/ holds no command, only its tests, which run that
// tool's rows under the names they always had. Every row runs once.
package papertest

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/clitest"
	"repro/internal/experiments"
	"repro/internal/experiments/paper"
)

// dir holds the goldens, seen from any directory under cmd/.
const dir = "../paper/testdata"

var (
	durations = regexp.MustCompile(`\d+(\.\d+)?(ns|µs|ms|s)\b`)
	decimals  = regexp.MustCompile(`\d+\.\d+x?`)
	simTime   = regexp.MustCompile(`\d+\.\d+x`)
	reduction = regexp.MustCompile(`model: -?\d+%`)
	spaces    = regexp.MustCompile(` +`)
)

// maskSpeedup blanks what depends on the host — durations, ns per request,
// the speedup ratios — and the column padding with them; the cases and both
// models' event counts stay.
func maskSpeedup(s string) string {
	s = durations.ReplaceAllString(s, "<host>")
	s = decimals.ReplaceAllString(s, "<host>")
	return spaces.ReplaceAllString(s, " ")
}

// maskFig8 blanks the host-time column and the average derived from it; the
// IPC, miss-latency and bus-utilisation ratios stay.
func maskFig8(s string) string {
	s = simTime.ReplaceAllString(s, "<host>x")
	s = reduction.ReplaceAllString(s, "model: <host>%")
	return spaces.ReplaceAllString(s, " ")
}

// Every study prints what the binaries of the commit before the figure tools
// moved onto experiments.Runner printed; a row with a json golden also runs
// with -json and compares the file, and its stdout says so ahead of the table.
var goldens = map[string][]struct {
	golden, json string
	mask         func(string) string
	args         []string
}{
	"bwsweep": {
		{"fig3", "", nil, []string{"-figure", "3", "-requests", "500"}},
		{"fig3", "fig3_json", nil, []string{"-figure", "3", "-requests", "500"}},
		{"fig4", "", nil, []string{"-figure", "4", "-requests", "500"}},
		{"fig5", "", nil, []string{"-figure", "5", "-requests", "500"}},
		{"fig3_channels2", "", nil, []string{"-figure", "3", "-requests", "500", "-channels", "2"}},
		{"fig3_ddr4", "", nil, []string{"-figure", "3", "-requests", "500", "-standard", "ddr4"}},
		{"ablation_all", "", nil, []string{"-ablation", "all", "-requests", "500"}},
	},
	// HMC's 256-byte rows clamp the stride axis at 8 bursts.
	"paper":    {{"fig3_hmc", "", nil, []string{"-figure", "3", "-requests", "500", "-standard", "hmc"}}},
	"latdist":  {{"fig6", "", nil, []string{"-figure", "6", "-requests", "3000"}}, {"fig7", "", nil, []string{"-figure", "7", "-requests", "3000"}}},
	"powercmp": {{"comparison", "", nil, []string{"-figure", "power", "-requests", "800"}}, {"savings", "", nil, []string{"-figure", "savings", "-requests", "800"}}},
	"speedup":  {{"speedup", "", maskSpeedup, []string{"-figure", "speedup", "-requests", "2000"}}},
	"fullsys":  {{"fig8", "", maskFig8, []string{"-figure", "8", "-memops", "300"}}},
	"explore":  {{"fig9", "fig9_json", nil, []string{"-figure", "9", "-memops", "300", "-cores", "4"}}},
}

// A flag the study does not read would be ignored, so it is refused: every
// flag has a study it does not affect. A count of 0 would be an unbounded run.
var badInput = map[string][]struct {
	want string
	args []string
}{
	"paper": {
		{"need -figure (3, 4, 5, 6, 7, 8, 9, power, savings, speedup) or -ablation NAME", nil},
		{`unknown figure "10"`, []string{"-figure", "10"}},
		{"-memops has no effect with -figure 3", []string{"-figure", "3", "-memops", "5"}},
		{"-ablation has no effect with -figure 3", []string{"-figure", "3", "-ablation", ""}},
	},
	"bwsweep": {
		{"flag -requests: must be at least 1", []string{"-figure", "3", "-requests", "0"}},
		{"flag -requests: must be at least 1", []string{"-ablation", "all", "-requests", "0"}},
		{"-channels has no effect with -figure 6", []string{"-figure", "6", "-channels", "2"}},
		{`unknown ablation "nosuch"`, []string{"-ablation", "nosuch"}},
		{`unknown standard "ddr9"`, []string{"-figure", "3", "-standard", "ddr9"}},
		{"need at least one channel", []string{"-figure", "3", "-channels", "0"}},
		{"-figure has no effect with -ablation", []string{"-ablation", "mapping", "-figure", "4"}},
		{"-channels has no effect with -ablation", []string{"-ablation", "mapping", "-channels", "2"}},
		{"-standard has no effect with -ablation", []string{"-ablation", "mapping", "-standard", "ddr4"}},
		{"-json has no effect with -ablation", []string{"-ablation", "all", "-json", "x.json"}},
	},
	"latdist": {
		{"flag -requests: must be at least 1", []string{"-figure", "6", "-requests", "0"}},
		// A bin width that is not positive used to print an empty histogram.
		{"-bin must be a positive width", []string{"-figure", "6", "-bin", "0"}},
		{"-bin must be a positive width", []string{"-figure", "7", "-bin", "-5"}},
		{"-bin has no effect with -figure 3", []string{"-figure", "3", "-bin", "10"}},
		{`unknown standard "ddr9"`, []string{"-figure", "6", "-standard", "ddr9"}},
		{"-json has no effect with -figure 7", []string{"-figure", "7", "-json", "x.json"}},
	},
	"powercmp": {
		{"flag -requests: must be at least 1", []string{"-figure", "power", "-requests", "0"}},
		{"flag -requests: must be at least 1", []string{"-figure", "savings", "-requests", "0"}},
		{"flag provided but not defined: -savings", []string{"-savings"}},
		{"-standard has no effect with -figure power", []string{"-figure", "power", "-standard", "ddr4"}},
		{"-standard has no effect with -figure savings", []string{"-figure", "savings", "-standard", "ddr4"}},
	},
	"speedup": {
		{"flag -requests: must be at least 1", []string{"-figure", "speedup", "-requests", "0"}},
		{`unknown standard "ddr9"`, []string{"-figure", "speedup", "-standard", "ddr9"}},
		{"-channels has no effect with -figure speedup", []string{"-figure", "speedup", "-channels", "2"}},
	},
	"fullsys": {
		{"flag -memops: must be at least 1", []string{"-figure", "8", "-memops", "0"}},
		{"-requests has no effect with -figure 8", []string{"-figure", "8", "-requests", "5"}},
		{"-cores has no effect with -figure 8", []string{"-figure", "8", "-cores", "4"}},
	},
	"explore": {
		{"flag -memops: must be at least 1", []string{"-figure", "9", "-memops", "0"}},
		{"need at least one core", []string{"-figure", "9", "-cores", "0"}},
		{"256 cores, but the core crossbar takes at most 255 requestors", []string{"-figure", "9", "-cores", "256"}},
		{"-requests has no effect with -figure 9", []string{"-figure", "9", "-requests", "5"}},
	},
}

// An interrupt after the first point of a study prints what finished under
// the header line, returns the sentinel and, with -json, marks the file
// partial. points lets that many model runs start: one per model for a sweep
// point, a latency model, a power case, a speedup case or a Fig. 8 workload,
// three per savings case, four per ablation, one per Fig. 9 memory system.
var interrupts = map[string][]struct {
	points   int
	args     []string
	header   string
	once     []string // each in the output exactly once
	absent   string   // the next point's
	jsonOnce []string // each in the -json file exactly once
}{
	"bwsweep": {
		{2, []string{"-figure", "3", "-requests", "500"}, "(1 of 32 points)",
			[]string{"\n1          0.115/ 0.115\n2       \n"}, "\n2          0", []string{`"partial": true`, `"strideBursts"`}},
		{4, []string{"-ablation", "all", "-requests", "500"}, "(1 ablations)",
			[]string{"\nAblation: "}, "", nil},
	},
	"latdist": {{1, []string{"-figure", "6", "-requests", "3000"}, "(the models that finished)",
		[]string{"event-based (this work):\n  samples 3000 "}, "cycle-based", nil}},
	"powercmp": {
		{2, []string{"-figure", "power", "-requests", "800"}, "(1 cases)",
			[]string{"\nopen/reads/stride1/b8 "}, "open/reads/stride16/b4", nil},
		{3, []string{"-figure", "savings", "-requests", "800"}, "(1 cases)",
			[]string{"\nburst16/off1us "}, "burst16/off5us", nil},
	},
	"speedup": {{2, []string{"-figure", "speedup", "-requests", "2000"}, "(1 cases)",
		[]string{"\nopen/reads/saturated "}, "open/mix/saturated", nil}},
	"fullsys": {{2, []string{"-figure", "8", "-memops", "300"}, "(1 workloads)",
		[]string{"\ncanneal "}, "streamcluster", nil}},
	"explore": {{1, []string{"-figure", "9", "-memops", "300", "-cores", "4"}, "(1 of 3 memory systems, IPC not normalised)",
		[]string{"\nDDR3        0.030      0.00 "}, "LPDDR3", []string{`"partial": true`, `"normalized": false`, `"name": "DDR3"`}}},
}

// Tool is paper.Run with stop as its interrupt.
func Tool(stop func() bool) clitest.Tool {
	return func(args []string, out io.Writer) error { return paper.Run(args, out, stop) }
}

// Goldens checks tool's golden rows that write no -json file.
func Goldens(t *testing.T, tool string) {
	t.Helper()
	ran := false
	for _, c := range goldens[tool] {
		if c.json == "" {
			clitest.Golden(t, Tool(nil), dir, c.golden, c.mask, c.args...)
			ran = true
		}
	}
	if !ran {
		t.Fatalf("no golden rows for %q", tool)
	}
}

// JSONGoldens checks tool's golden rows that also run with -json: stdout past
// the line naming the file against one golden, the file against the other.
func JSONGoldens(t *testing.T, tool string) {
	t.Helper()
	ran := false
	for _, c := range goldens[tool] {
		if c.json == "" {
			continue
		}
		path := filepath.Join(t.TempDir(), c.json+".json")
		out, err := Tool(nil).Output(append(c.args, "-json", path)...)
		if err != nil {
			t.Fatal(err)
		}
		clitest.Same(t, dir, c.golden, c.mask, []byte(strings.TrimPrefix(out, "result written to "+path+"\n")))
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		clitest.Same(t, dir, c.json, nil, got)
		ran = true
	}
	if !ran {
		t.Fatalf("no -json golden rows for %q", tool)
	}
}

// BadInput checks that each of tool's bad inputs is refused with its message.
func BadInput(t *testing.T, tool string) {
	t.Helper()
	if len(badInput[tool]) == 0 {
		t.Fatalf("no bad-input rows for %q", tool)
	}
	for _, c := range badInput[tool] {
		clitest.Refused(t, Tool(nil), c.want, c.args...)
	}
}

// Interrupt stops each of tool's studies after its first point.
func Interrupt(t *testing.T, tool string) {
	t.Helper()
	if len(interrupts[tool]) == 0 {
		t.Fatalf("no interrupt rows for %q", tool)
	}
	for _, c := range interrupts[tool] {
		args := c.args
		path := filepath.Join(t.TempDir(), "partial.json")
		if c.jsonOnce != nil {
			args = append(args, "-json", path)
		}
		out, err := Tool(clitest.StopAfter(c.points)).Output(args...)
		if !errors.Is(err, experiments.ErrInterrupted) {
			t.Fatalf("%v: err = %v, want ErrInterrupted", args, err)
		}
		if !strings.HasPrefix(out, "interrupted; partial results "+c.header+":\n") {
			t.Errorf("%v: header:\n%s", args, out)
		}
		checkOnce(t, args, "output", out, c.once)
		if c.absent != "" && strings.Contains(out, c.absent) {
			t.Errorf("%v: output holds the next point's %q:\n%s", args, c.absent, out)
		}
		if c.jsonOnce != nil {
			js, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			checkOnce(t, args, "JSON", string(js), c.jsonOnce)
		}
	}
}

func checkOnce(t *testing.T, args []string, what, got string, want []string) {
	t.Helper()
	for _, w := range want {
		if n := strings.Count(got, w); n != 1 {
			t.Errorf("%v: %s holds %q %d times, want once:\n%s", args, what, w, n, got)
		}
	}
}
