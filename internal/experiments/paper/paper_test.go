package paper

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clitest"
	"repro/internal/experiments"
)

// The usage and error text list every figure once, and nothing else.
func TestChoicesNameEveryFigure(t *testing.T) {
	listed := strings.Split(choices, ", ")
	if len(listed) != len(figures) {
		t.Errorf("choices %q lists %d figures, the table has %d", choices, len(listed), len(figures))
	}
	for _, name := range listed {
		if _, ok := figures[name]; !ok {
			t.Errorf("choices lists %q, which is not a figure", name)
		}
	}
}

// With no count flag each study runs at the size the tool it replaced ran at:
// stopped before its first point (or, for a latency study, after the event
// model), it still prints that size. The ablations print no size; they share
// -figure 3's default.
func TestDefaultCounts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig9.json")
	for _, c := range []struct {
		points int
		figure string
		want   string
	}{
		{0, "3", "4000 requests/point"},
		{0, "4", "4000 requests/point"},
		{0, "5", "4000 requests/point"},
		{1, "6", "samples 20000 "},
		{1, "7", "samples 10003 "}, // a 1:1 mix: about half of 20000 are reads
		{0, "8", "4 cores, 5000 mem ops/core"},
		{0, "9", "\"memOps\": 3000,\n  \"cores\": 16,"},
		{0, "power", "5000 requests/case"},
		{0, "savings", "5000 requests/case"},
		{0, "speedup", "100000 requests per case"},
	} {
		args := []string{"-figure", c.figure}
		if c.figure == "9" {
			args = append(args, "-json", path)
		}
		var buf bytes.Buffer
		err := Run(args, &buf, clitest.StopAfter(c.points))
		if !errors.Is(err, experiments.ErrInterrupted) {
			t.Fatalf("%v: err = %v, want ErrInterrupted", args, err)
		}
		out := buf.String()
		if c.figure == "9" {
			js, _ := os.ReadFile(path)
			out = string(js)
		}
		if !strings.Contains(out, c.want) {
			t.Errorf("%v: output lacks %q:\n%s", args, c.want, out)
		}
	}
}
