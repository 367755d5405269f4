package main

import (
	"errors"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/clitest"
	"repro/internal/experiments"
	"repro/internal/experiments/paper"
	"repro/internal/experiments/paper/papertest"
)

// paper's own rows of the table; the rows of the tools it replaced run under
// their old names in their old directories.
func TestGoldens(t *testing.T)  { papertest.Goldens(t, "paper") }
func TestBadInput(t *testing.T) { papertest.BadInput(t, "paper") }

// The paper command lines README.md and EXPERIMENTS.md teach parse: each runs
// with a stop already set, so it is refused or interrupted before its first
// point is built. Nothing is simulated.
func TestDocCommandLinesParse(t *testing.T) {
	stopped := func() bool { return true }
	found := 0
	for _, doc := range []string{"README.md", "EXPERIMENTS.md"} {
		b, err := os.ReadFile("../../" + doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, args := range clitest.DocCommands(string(b), "paper") {
			found++
			if err := paper.Run(args, io.Discard, stopped); err != nil && !errors.Is(err, experiments.ErrInterrupted) {
				t.Errorf("%s: paper %s: %v", doc, strings.Join(args, " "), err)
			}
		}
	}
	if found == 0 {
		t.Fatal("found no paper command lines; the documents or the pattern moved")
	}
}
