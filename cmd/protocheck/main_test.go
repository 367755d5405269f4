package main

// In-process port of the protocol-oracle half of the old standards and power
// smoke scripts: per standard, and for bursty traffic under power-down and
// self-refresh, a run is violation-free, its recorded command stream replays
// through the checker alone to the same verdict, and recording is
// deterministic.

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
	random := []string{"-pattern", "random", "-reads", "67", "-requests", "20000", "-seed", "7"}
	// Bursty traffic with both idle thresholds armed: every burst is followed
	// by a multi-microsecond gap, so ranks cycle through power-down and deepen
	// into self-refresh constantly, and the oracle checks the PDE/PDX/SRE/SRX
	// transitions and their tCKE/tXP/tXS spacing.
	lowPower := []string{"-pattern", "bursty", "-reads", "67", "-requests", "20000", "-seed", "7",
		"-burst-off-ns", "5000", "-powerdown", "300", "-selfrefresh", "2000"}
	for _, row := range []struct {
		name    string
		device  []string // what the recording and the replay are checked against
		traffic []string
		want    string // a command the recording must contain ("" = none in particular)
	}{
		{"ddr3", []string{"-standard", "ddr3"}, random, ""},
		{"ddr4", []string{"-standard", "ddr4"}, random, ""},
		// Same-bank refresh is the headline quirk of DDR5's discipline.
		{"ddr5", []string{"-standard", "ddr5"}, random, "REFSB"},
		{"lpddr5", []string{"-standard", "lpddr5"}, random, ""},
		{"lowpower", []string{"-spec", "DDR3-1600-x64"}, lowPower, "SRE"},
		// Two ranks wake staggered, and every access closes its row.
		{"lowpower-2rank-closed", []string{"-spec", "DDR3-1600-x64-2R", "-page", "closed"}, lowPower, "SRE"},
	} {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			first, second := filepath.Join(dir, "a.txt"), filepath.Join(dir, "b.txt")
			record := append(row.device[:len(row.device):len(row.device)], row.traffic...)

			recorded := protocheck(t, append(record, "-cmd-trace", first)...)
			if !strings.HasSuffix(recorded, clean) {
				t.Fatalf("recording run not clean:\n%s", recorded)
			}
			replayed := protocheck(t, append(row.device[:len(row.device):len(row.device)], "-cmd-trace-in", first)...)
			if !strings.HasSuffix(replayed, clean) || !strings.HasPrefix(replayed, "replaying ") {
				t.Fatalf("replay through the checker alone not clean:\n%s", replayed)
			}
			// Same stream, same device: the "checked N DRAM commands" verdicts agree.
			if a, b := lastLines(recorded, 2), lastLines(replayed, 2); a != b {
				t.Errorf("replay verdict %q, recording's %q", b, a)
			}

			protocheck(t, append(record, "-cmd-trace", second)...)
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
			if !bytes.Contains(a, []byte(row.want)) {
				t.Errorf("command stream has no %s entry", row.want)
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
