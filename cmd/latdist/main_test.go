package main

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/clitest"
	"repro/internal/experiments"
)

// Both figures print what the parent commit's binary printed.
func TestGoldens(t *testing.T) {
	clitest.Golden(t, run, "fig6", nil, "-figure", "6", "-requests", "3000")
	clitest.Golden(t, run, "fig7", nil, "-figure", "7", "-requests", "3000")
}

func TestBadInput(t *testing.T) {
	for _, c := range []struct {
		want string
		args []string
	}{
		{"flag -requests: must be at least 1", []string{"-requests", "0"}},
		// A bin width that is not positive used to print an empty histogram.
		{"-bin must be a positive width", []string{"-bin", "0"}},
		{"-bin must be a positive width", []string{"-bin", "-5"}},
		{"figure 3 not a latency distribution", []string{"-figure", "3"}},
		{`unknown standard "ddr9"`, []string{"-standard", "ddr9"}},
	} {
		clitest.Refused(t, run, c.want, c.args...)
	}
}

// An interrupt after the event-based run prints that model's distribution
// alone and returns the sentinel.
func TestInterrupt(t *testing.T) {
	defer func() { stop = nil }()
	stop = clitest.StopAfter(1)
	out, err := clitest.Tool(run).Output("-figure", "6", "-requests", "3000")
	if !errors.Is(err, experiments.ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if !strings.HasPrefix(out, "interrupted; partial results (") ||
		!strings.Contains(out, "event-based (this work):\n  samples 3000 ") || strings.Contains(out, "cycle-based") {
		t.Errorf("partial output:\n%s", out)
	}
}
