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

// FuzzPaperArgs runs paper's flag parsing over the study table with a stop
// that has already fired, so nothing is built or simulated. The seeds are
// every study with each flag it reads, and the documents' paper lines. Any
// input ends without a panic, in nil after -h, and otherwise in
// ErrInterrupted or a one-line error. Inputs naming -json are skipped: they
// would write files.
func FuzzPaperArgs(f *testing.F) {
	values := map[string]string{"requests": "5", "memops": "5", "spec": "ddr4", "channels": "2", "bin": "10", "cores": "2"}
	for _, table := range []struct {
		selector string
		studies  []*experiments.Study
	}{{"-figure", experiments.Studies}, {"-ablation", experiments.Ablations}} {
		for _, st := range table.studies {
			f.Add(table.selector + " " + st.Name)
			for _, flag := range strings.Fields(st.Flags) {
				if v, ok := values[flag]; ok {
					f.Add(table.selector + " " + st.Name + " -" + flag + " " + v)
				}
			}
		}
	}
	f.Add("-ablation all")
	for _, doc := range []string{"README.md", "EXPERIMENTS.md"} {
		b, err := os.ReadFile("../../" + doc)
		if err != nil {
			f.Fatal(err)
		}
		for _, args := range clitest.DocCommands(string(b), "paper") {
			f.Add(strings.Join(args, " "))
		}
	}
	// The flag package prints usage on stderr for -h and for a bad flag.
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		f.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = devNull
	f.Cleanup(func() { os.Stderr = stderr; devNull.Close() })
	stopped := func() bool { return true }
	f.Fuzz(func(t *testing.T, line string) {
		if strings.Contains(line, "-json") {
			t.Skip("-json writes a file")
		}
		args := strings.Fields(line)
		err := paper.Run(args, io.Discard, stopped)
		switch {
		case len(args) > 0 && (args[0] == "-h" || args[0] == "-help"):
			if err != nil {
				t.Errorf("paper %s: %v, want nil", line, err)
			}
		case err != nil && !errors.Is(err, experiments.ErrInterrupted) && strings.Contains(err.Error(), "\n"):
			t.Errorf("paper %s: a refusal of more than one line: %q", line, err)
		}
	})
}
