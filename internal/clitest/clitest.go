// Package clitest is what the cmd/ tools' tests share: every tool is a
// run(args, out) error, so a test runs it in-process and looks at stdout, the
// error and the files it wrote. The goldens (results/ and cmd/paper/testdata/)
// change only when simulated behaviour is meant to.
package clitest

import (
	"bytes"
	"io"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// Tool is a command's run function.
type Tool func(args []string, out io.Writer) error

// Output runs the tool and returns its stdout and error.
func (run Tool) Output(args ...string) (string, error) {
	var out bytes.Buffer
	err := run(args, &out)
	return out.String(), err
}

// Golden runs the tool, which must succeed, and compares its stdout with the
// golden file. mask (nil for none) rewrites what legitimately varies — host
// times — on both sides.
func Golden(t *testing.T, run Tool, golden string, mask func(string) string, args ...string) {
	t.Helper()
	got, err := run.Output(args...)
	if err != nil {
		t.Fatalf("%s: %v", strings.Join(args, " "), err)
	}
	Same(t, golden, mask, []byte(got))
}

// Same compares got with the golden file, both through mask.
func Same(t *testing.T, golden string, mask func(string) string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	g, w := string(got), string(want)
	if mask != nil {
		g, w = mask(g), mask(w)
	}
	if g != w {
		t.Errorf("%s differs:\n--- got\n%s\n--- want\n%s", golden, g, w)
	}
}

// Lines compares got with the golden file and fails t at the first line
// where they differ, quoting both. With update set it rewrites the file
// instead (a test's -update flag).
func Lines(t *testing.T, golden string, got []byte, update bool) {
	t.Helper()
	if update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			t.Fatalf("%s differs at line %d:\n got %q\nwant %q", golden, i+1, g[i], w[i])
		}
	}
	t.Fatalf("%s differs in length: %d lines, want %d", golden, len(g), len(w))
}

// Refused runs the tool on bad input: it must return within a second — the
// failure mode being guarded is a run that never ends — with an error
// containing want.
func Refused(t *testing.T, run Tool, want string, args ...string) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := run.Output(args...)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%v: err = %v, want a refusal naming %q", args, err, want)
		}
	case <-time.After(time.Second):
		t.Errorf("%v: still running after a second, want a refusal naming %q", args, want)
	}
}

// StopAfter returns a stop hook that lets n points start and fires from then
// on: an interrupt at a known place, with no signal and no sleep.
func StopAfter(n int) func() bool {
	return func() bool {
		n--
		return n < 0
	}
}

var (
	docFenced = regexp.MustCompile("(?s)```.*?```")
	docInline = regexp.MustCompile("`(go run [^`]*)`")
)

// DocCommands returns the arguments of every command line in text that runs
// tool, as `go run ./cmd/TOOL ...` or `TOOL ...`. The lines are those of
// Markdown's fenced blocks, backslash continuations joined, its inline code
// spans that are a go run, and a Go doc comment's indented lines; each is cut
// at a # comment and split at &&.
func DocCommands(text, tool string) [][]string {
	var lines []string
	for _, block := range docFenced.FindAllString(text, -1) {
		lines = append(lines, strings.Split(strings.ReplaceAll(block, "\\\n", " "), "\n")...)
	}
	for _, m := range docInline.FindAllStringSubmatch(docFenced.ReplaceAllString(text, ""), -1) {
		lines = append(lines, m[1])
	}
	for _, line := range strings.Split(text, "\n") {
		if code, ok := strings.CutPrefix(line, "//\t"); ok {
			lines = append(lines, code)
		}
	}
	var cmds [][]string
	for _, line := range lines {
		line, _, _ = strings.Cut(line, "#")
		for _, c := range strings.Split(line, "&&") {
			switch f := strings.Fields(c); {
			case len(f) > 2 && slices.Equal(f[:3], []string{"go", "run", "./cmd/" + tool}):
				cmds = append(cmds, f[3:])
			case len(f) > 0 && f[0] == tool:
				cmds = append(cmds, f[1:])
			}
		}
	}
	return cmds
}
