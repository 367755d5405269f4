package main

import (
	"errors"
	"regexp"
	"strings"
	"testing"

	"repro/internal/clitest"
	"repro/internal/experiments"
)

var (
	durations = regexp.MustCompile(`\d+(\.\d+)?(ns|µs|ms|s)\b`)
	decimals  = regexp.MustCompile(`\d+\.\d+x?`)
	spaces    = regexp.MustCompile(` +`)
)

// maskHost blanks what depends on the host — durations, ns per request, the
// speedup ratios — and the column padding with them; the cases and both
// models' event counts stay.
func maskHost(s string) string {
	s = durations.ReplaceAllString(s, "<host>")
	s = decimals.ReplaceAllString(s, "<host>")
	return spaces.ReplaceAllString(s, " ")
}

// The table's simulated columns are what the parent commit's binary printed.
func TestGolden(t *testing.T) {
	clitest.Golden(t, run, "speedup", maskHost, "-requests", "2000")
}

func TestBadInput(t *testing.T) {
	clitest.Refused(t, run, "flag -requests: must be at least 1", "-requests", "0")
	clitest.Refused(t, run, `unknown standard "ddr9"`, "-standard", "ddr9")
	clitest.Refused(t, run, "flag provided but not defined: -channels", "-channels", "2")
}

// An interrupt after the first case (two runs, one per model) prints that row
// and returns the sentinel.
func TestInterrupt(t *testing.T) {
	defer func() { stop = nil }()
	stop = clitest.StopAfter(2)
	out, err := clitest.Tool(run).Output("-requests", "2000")
	if !errors.Is(err, experiments.ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if !strings.HasPrefix(out, "interrupted; partial results (1 cases):\n") ||
		!strings.Contains(out, "\nopen/reads/saturated ") || strings.Contains(out, "open/mix/saturated") {
		t.Errorf("partial output:\n%s", out)
	}
}
