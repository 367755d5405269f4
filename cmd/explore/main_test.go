package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clitest"
	"repro/internal/experiments"
)

// The tables and the -json result are what the parent commit's binary wrote.
func TestGoldens(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig9.json")
	out, err := clitest.Tool(run).Output("-memops", "300", "-cores", "4", "-json", path)
	if err != nil {
		t.Fatal(err)
	}
	clitest.Same(t, "fig9", nil, []byte(strings.TrimPrefix(out, "result written to "+path+"\n")))
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	clitest.Same(t, "fig9_json", nil, got)
}

func TestBadInput(t *testing.T) {
	clitest.Refused(t, run, "flag -memops: must be at least 1", "-memops", "0")
	clitest.Refused(t, run, "need at least one core", "-cores", "0")
	clitest.Refused(t, run, "flag provided but not defined: -requests", "-requests", "5")
}

// An interrupt after the first memory system prints that row without
// normalised IPC, marks the JSON partial and returns the sentinel.
func TestInterrupt(t *testing.T) {
	defer func() { stop = nil }()
	stop = clitest.StopAfter(1)
	path := filepath.Join(t.TempDir(), "fig9.json")
	out, err := clitest.Tool(run).Output("-memops", "300", "-cores", "4", "-json", path)
	if !errors.Is(err, experiments.ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if !strings.HasPrefix(out, "interrupted; partial results (1 of 3 memory systems, IPC not normalised):\n") ||
		!strings.Contains(out, "\nDDR3        0.030      0.00 ") || strings.Contains(out, "LPDDR3") {
		t.Errorf("partial output:\n%s", out)
	}
	js, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"partial": true`, `"normalized": false`, `"name": "DDR3"`} {
		if !strings.Contains(string(js), want) {
			t.Errorf("partial JSON lacks %s:\n%s", want, js)
		}
	}
}
