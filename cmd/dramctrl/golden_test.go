package main

import (
	"flag"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clitest"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// goldenRuns are the runs whose stdout and -json bytes are pinned: each
// model on one channel and on four behind a crossbar.
var goldenRuns = []struct {
	name string
	args []string
}{
	{"event_1ch", []string{"-pattern", "random", "-reads", "67", "-requests", "2000", "-seed", "3"}},
	{"event_4ch", []string{"-pattern", "random", "-reads", "67", "-requests", "2000", "-seed", "3", "-channels", "4"}},
	{"cycle_1ch", []string{"-model", "cycle", "-pattern", "random", "-reads", "67", "-requests", "2000", "-seed", "3"}},
	{"cycle_4ch", []string{"-model", "cycle", "-pattern", "random", "-reads", "67", "-requests", "2000", "-seed", "3", "-channels", "4"}},
}

// The report and the statistics are a compatibility surface: the same flags
// print the same bytes from one change to the next. A change that means to
// alter simulated behaviour rewrites the files with -update and says why.
func TestGoldenOutput(t *testing.T) {
	for _, g := range goldenRuns {
		t.Run(g.name, func(t *testing.T) {
			js := filepath.Join(t.TempDir(), "stats.json")
			out := strings.ReplaceAll(mustRun(t, append(g.args, "-json", js)...), js, "stats.json")
			clitest.Lines(t, filepath.Join("testdata", g.name+".stdout"), []byte(out), *update)
			clitest.Lines(t, filepath.Join("testdata", g.name+".json"), read(t, js), *update)
		})
	}
}

// A checkpoint's bytes are a compatibility surface too: the recipe of one
// fixed run, taken at its completion.
func TestGoldenRecipe(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	mustRun(t, "-pattern", "random", "-reads", "67", "-requests", "2000", "-seed", "3", "-checkpoint", ckpt)
	clitest.Lines(t, filepath.Join("testdata", "recipe.ckpt"), read(t, ckpt), *update)
}
