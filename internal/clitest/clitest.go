// Package clitest is what the cmd/ tools' tests share: every tool is a
// run(args, out) error, so a test runs it in-process and looks at stdout, the
// error and the files it wrote. The goldens under cmd/paper/testdata/ were
// captured from the binaries of the commit before the tools were refactored
// onto experiments.Runner; they change only when simulated behaviour is meant
// to.
package clitest

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
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

// Golden runs the tool, which must succeed, and compares its stdout with
// <dir>/<name>.golden. mask (nil for none) rewrites what legitimately varies —
// host times — on both sides.
func Golden(t *testing.T, run Tool, dir, name string, mask func(string) string, args ...string) {
	t.Helper()
	got, err := run.Output(args...)
	if err != nil {
		t.Fatalf("%s: %v", strings.Join(args, " "), err)
	}
	Same(t, dir, name, mask, []byte(got))
}

// Same compares got with <dir>/<name>.golden, both through mask.
func Same(t *testing.T, dir, name string, mask func(string) string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join(dir, name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	g, w := string(got), string(want)
	if mask != nil {
		g, w = mask(g), mask(w)
	}
	if g != w {
		t.Errorf("%s differs from its golden:\n--- got\n%s\n--- want\n%s", name, g, w)
	}
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
