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
	simTime   = regexp.MustCompile(`\d+\.\d+x`)
	reduction = regexp.MustCompile(`model: -?\d+%`)
	spaces    = regexp.MustCompile(` +`)
)

// maskHost blanks the host-time column and the average derived from it; the
// IPC, miss-latency and bus-utilisation ratios stay.
func maskHost(s string) string {
	s = simTime.ReplaceAllString(s, "<host>x")
	s = reduction.ReplaceAllString(s, "model: <host>%")
	return spaces.ReplaceAllString(s, " ")
}

// The metric ratios are what the parent commit's binary printed.
func TestGolden(t *testing.T) {
	clitest.Golden(t, run, "fig8", maskHost, "-memops", "300")
}

func TestBadInput(t *testing.T) {
	clitest.Refused(t, run, "flag -memops: must be at least 1", "-memops", "0")
	clitest.Refused(t, run, "flag provided but not defined: -requests", "-requests", "5")
}

// An interrupt after the first workload (two runs, one per model) prints that
// row and returns the sentinel.
func TestInterrupt(t *testing.T) {
	defer func() { stop = nil }()
	stop = clitest.StopAfter(2)
	out, err := clitest.Tool(run).Output("-memops", "300")
	if !errors.Is(err, experiments.ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if !strings.HasPrefix(out, "interrupted; partial results (1 workloads):\n") ||
		!strings.Contains(out, "\ncanneal ") || strings.Contains(out, "streamcluster") {
		t.Errorf("partial output:\n%s", out)
	}
}
