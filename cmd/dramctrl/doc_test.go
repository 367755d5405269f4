package main

import (
	"os"
	"strings"
	"testing"

	"repro/internal/clitest"
	"repro/internal/dram"
)

// TestDocCommandLinesParse keeps the dramctrl command lines README.md,
// EXPERIMENTS.md and this package's Examples teach in step with the tool:
// each goes through dramctrl's flag parsing and device and mapping lookup.
// Nothing is simulated.
func TestDocCommandLinesParse(t *testing.T) {
	found := map[string]int{}
	for _, doc := range []string{"../../README.md", "../../EXPERIMENTS.md", "main.go"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, args := range clitest.DocCommands(string(b), "dramctrl") {
			found[doc]++
			if err := parseDocArgs(args); err != nil {
				t.Errorf("%s: dramctrl %s: %v", doc, strings.Join(args, " "), err)
			}
		}
	}
	if found["../../README.md"] == 0 || found["main.go"] == 0 {
		t.Fatalf("found %v command lines; the documents or the pattern moved", found)
	}
}

// parseDocArgs is what run does with dramctrl's arguments before it builds
// anything.
func parseDocArgs(args []string) error {
	f, err := parseFlags(args)
	if f == nil {
		return err
	}
	if _, err := dram.ByName(*f.spec); err != nil {
		return err
	}
	_, err = f.pol.ParseMapping()
	return err
}
