package paper

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/clitest"
	"repro/internal/experiments"
)

// The usage text and the unknown-figure error list every study of the table
// once, in table order, and -h is not an error.
func TestChoicesNameEveryFigure(t *testing.T) {
	var want []string
	for _, st := range experiments.Studies {
		if slices.Contains(want, st.Name) {
			t.Errorf("two studies are called %q", st.Name)
		}
		want = append(want, st.Name)
	}
	list := strings.Join(want, ", ")
	if err := Run([]string{"-figure", "10"}, io.Discard, nil); err == nil || !strings.HasSuffix(err.Error(), "(want "+list+")") {
		t.Errorf("unknown figure: %v, want it to end (want %s)", err, list)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	err = Run([]string{"-h"}, io.Discard, nil)
	os.Stderr = stderr
	w.Close()
	usage, _ := io.ReadAll(r)
	if err != nil || !strings.Contains(string(usage), "study to regenerate: "+list+"\n") {
		t.Errorf("-h: err %v, usage:\n%s\nwant it to list %s", err, usage, list)
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
