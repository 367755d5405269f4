package main

import (
	"errors"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/experiments/paper"
)

var (
	docFenced = regexp.MustCompile("(?s)```.*?```")
	docInline = regexp.MustCompile("`(go run [^`]*)`")
)

// docCommands returns the go run command lines of a Markdown document: every
// line of a fenced block, with backslash continuations joined, cut at a #
// comment and split at &&, and every inline code span that is a go run.
func docCommands(text string) []string {
	var lines []string
	for _, block := range docFenced.FindAllString(text, -1) {
		lines = append(lines, strings.Split(strings.ReplaceAll(block, "\\\n", " "), "\n")...)
	}
	for _, m := range docInline.FindAllStringSubmatch(docFenced.ReplaceAllString(text, ""), -1) {
		lines = append(lines, m[1])
	}
	var cmds []string
	for _, line := range lines {
		line, _, _ = strings.Cut(line, "#")
		for _, c := range strings.Split(line, "&&") {
			if c = strings.TrimSpace(c); strings.HasPrefix(c, "go run ") {
				cmds = append(cmds, c)
			}
		}
	}
	return cmds
}

// TestDocCommandLinesParse keeps the command lines README.md and
// EXPERIMENTS.md teach in step with the tools: each `go run ./cmd/dramctrl`
// line goes through dramctrl's flag parsing and device and mapping lookup,
// and each `go run ./cmd/paper` line through paper.Run with a stop already
// set, so it is refused or interrupted before its first point is built.
// Nothing is simulated.
func TestDocCommandLinesParse(t *testing.T) {
	stopped := func() bool { return true }
	ran := map[string]int{}
	for _, doc := range []string{"README.md", "EXPERIMENTS.md"} {
		b, err := os.ReadFile("../../" + doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range docCommands(string(b)) {
			args := strings.Fields(c)[2:]
			var err error
			switch args[0] {
			case "./cmd/dramctrl":
				err = parseDocArgs(args[1:])
			case "./cmd/paper":
				if err = paper.Run(args[1:], io.Discard, stopped); errors.Is(err, experiments.ErrInterrupted) {
					err = nil
				}
			default:
				continue
			}
			ran[args[0]]++
			if err != nil {
				t.Errorf("%s: %q: %v", doc, c, err)
			}
		}
	}
	if ran["./cmd/dramctrl"] == 0 || ran["./cmd/paper"] == 0 {
		t.Fatalf("found %v command lines; the documents or the pattern moved", ran)
	}
}

// parseDocArgs is what run does with dramctrl's arguments before it builds
// anything.
func parseDocArgs(args []string) error {
	f, err := parseFlags(args)
	if f == nil {
		return err
	}
	if _, err := f.spec.Resolve(); err != nil {
		return err
	}
	_, err = f.pol.ParseMapping()
	return err
}
