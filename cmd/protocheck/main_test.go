package main

// In-process port of the protocol-oracle half of the old standards smoke
// script: per standard, a randomized run is violation-free, its recorded
// command stream replays through the checker alone to the same verdict, and
// recording is deterministic.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func protocheck(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("protocheck %s: %v\n%s", strings.Join(args, " "), err, out.String())
	}
	return out.String()
}

func TestStandardsRecordReplayDeterministic(t *testing.T) {
	const clean = "protocol clean: no timing violations\n"
	for _, std := range []string{"ddr3", "ddr4", "ddr5", "lpddr5"} {
		t.Run(std, func(t *testing.T) {
			dir := t.TempDir()
			first, second := filepath.Join(dir, "a.txt"), filepath.Join(dir, "b.txt")
			traffic := []string{"-standard", std, "-pattern", "random", "-reads", "67", "-requests", "20000", "-seed", "7"}

			recorded := protocheck(t, append(traffic, "-cmd-trace", first)...)
			if !strings.HasSuffix(recorded, clean) {
				t.Fatalf("recording run not clean:\n%s", recorded)
			}
			replayed := protocheck(t, "-standard", std, "-cmd-trace-in", first)
			if !strings.HasSuffix(replayed, clean) || !strings.HasPrefix(replayed, "replaying ") {
				t.Fatalf("replay through the checker alone not clean:\n%s", replayed)
			}
			// Same stream, same device: the "checked N DRAM commands" verdicts agree.
			if a, b := lastLines(recorded, 2), lastLines(replayed, 2); a != b {
				t.Errorf("replay verdict %q, recording's %q", b, a)
			}

			protocheck(t, append(traffic, "-cmd-trace", second)...)
			a, err := os.ReadFile(first)
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(second)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Error("two recordings of the same run differ")
			}
			// Same-bank refresh is the headline quirk of DDR5's discipline.
			if std == "ddr5" && !bytes.Contains(a, []byte("REFSB")) {
				t.Error("DDR5 command stream has no REFSB entry")
			}
		})
	}
}

// lastLines returns the final n lines of s.
func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSuffix(s, "\n"), "\n")
	return strings.Join(lines[max(0, len(lines)-n):], "\n")
}

// A violating stream is an error, not an exit below main: a DDR5 recording
// checked against DDR3 timing breaks tCCD and friends.
func TestViolationsAreAnError(t *testing.T) {
	cmds := filepath.Join(t.TempDir(), "cmds.txt")
	protocheck(t, "-standard", "ddr5", "-requests", "2000", "-cmd-trace", cmds)
	var out bytes.Buffer
	err := run([]string{"-standard", "ddr3", "-cmd-trace-in", cmds, "-show", "2"}, &out)
	if !errors.Is(err, errViolations) || !strings.Contains(out.String(), " violations:\n") || !strings.Contains(out.String(), "... and ") {
		t.Errorf("err = %v, want errViolations with the findings printed:\n%s", err, out.String())
	}
}
