package main

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/clitest"
	"repro/internal/experiments"
)

// Both tables print what the parent commit's binary printed.
func TestGoldens(t *testing.T) {
	clitest.Golden(t, run, "comparison", nil, "-requests", "800")
	clitest.Golden(t, run, "savings", nil, "-requests", "800", "-savings")
}

func TestBadInput(t *testing.T) {
	clitest.Refused(t, run, "flag -requests: must be at least 1", "-requests", "0")
	clitest.Refused(t, run, "flag -requests: must be at least 1", "-savings", "-requests", "0")
	clitest.Refused(t, run, "flag provided but not defined: -standard", "-standard", "ddr4")
}

// An interrupt after the first case prints that row and returns the sentinel:
// two runs (one per model) in the comparison, three (no low-power state,
// power-down, power-down and self-refresh) in the savings table.
func TestInterrupt(t *testing.T) {
	defer func() { stop = nil }()
	for _, c := range []struct {
		points      int
		args        []string
		first, next string
	}{
		{2, []string{"-requests", "800"}, "\nopen/reads/stride1/b8 ", "open/reads/stride16/b4"},
		{3, []string{"-requests", "800", "-savings"}, "\nburst16/off1us ", "burst16/off5us"},
	} {
		stop = clitest.StopAfter(c.points)
		out, err := clitest.Tool(run).Output(c.args...)
		if !errors.Is(err, experiments.ErrInterrupted) {
			t.Fatalf("%v: err = %v, want ErrInterrupted", c.args, err)
		}
		if !strings.HasPrefix(out, "interrupted; partial results (1 cases):\n") ||
			!strings.Contains(out, c.first) || strings.Contains(out, c.next) {
			t.Errorf("%v: partial output:\n%s", c.args, out)
		}
	}
}
