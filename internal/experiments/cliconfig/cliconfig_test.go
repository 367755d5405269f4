package cliconfig

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dram"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/trafficgen"
)

func newFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

// A count flag keeps its default, takes a positive value, and refuses 0 — an
// unbounded run — naming the flag; -h stops the tool without an error.
func TestAddCountAndParse(t *testing.T) {
	fs := newFlagSet()
	n := AddCount(fs, "requests", 4000, "requests per point")
	if ok, err := Parse(fs, nil); !ok || err != nil || *n != 4000 {
		t.Errorf("no flags: ok %v, err %v, count %d; want the default 4000", ok, err, *n)
	}
	if ok, err := Parse(fs, []string{"-requests", "12"}); !ok || err != nil || *n != 12 {
		t.Errorf("-requests 12: ok %v, err %v, count %d", ok, err, *n)
	}
	for _, bad := range []string{"0", "-3", "many"} {
		ok, err := Parse(newFlagSetWithCount(), []string{"-requests", bad})
		if ok || err == nil || !strings.Contains(err.Error(), "flag -requests") {
			t.Errorf("-requests %s: ok %v, err %v; want a refusal naming the flag", bad, ok, err)
		}
	}
	if ok, err := Parse(newFlagSetWithCount(), []string{"-h"}); ok || err != nil {
		t.Errorf("-h: ok %v, err %v; want a clean stop", ok, err)
	}
	var usage bytes.Buffer
	fs.SetOutput(&usage)
	fs.PrintDefaults()
	if !strings.Contains(usage.String(), "requests per point (at least 1; default 4000)") {
		t.Errorf("usage lost the default:\n%s", usage.String())
	}
}

func newFlagSetWithCount() *flag.FlagSet {
	fs := newFlagSet()
	AddCount(fs, "requests", 4000, "requests per point")
	return fs
}

// The flags that count nanoseconds reach the simulator as ticks scaled by
// sim.Nanosecond: a bare sim.Tick(ns) type-checks and runs 1000x too fast.
func TestNanosecondFlagsBecomeTicks(t *testing.T) {
	for _, row := range []struct {
		args []string
		got  func(*Traffic, *Checkpoint) (sim.Tick, error)
		want sim.Tick
	}{
		{[]string{"-itt", "48"}, func(tr *Traffic, _ *Checkpoint) (sim.Tick, error) {
			return tr.GenConfig().InterTransaction, nil
		}, 48 * sim.Nanosecond},
		{[]string{"-pattern", "bursty", "-burst-off-ns", "2000"}, func(tr *Traffic, _ *Checkpoint) (sim.Tick, error) {
			p, err := tr.BuildPattern(dram.DDR3_1600_x64(), dram.RoRaBaCoCh, 1)
			if err != nil {
				return 0, err
			}
			return p.(*trafficgen.Bursty).OffTime, nil
		}, 2000 * sim.Nanosecond},
		{[]string{"-checkpoint-every", "2000"}, func(_ *Traffic, c *Checkpoint) (sim.Tick, error) {
			return c.Config(nil).Every, nil
		}, 2000 * sim.Nanosecond},
	} {
		fs := newFlagSet()
		tr, c := AddTraffic(fs, 1), AddCheckpoint(fs)
		if err := fs.Parse(row.args); err != nil {
			t.Fatal(err)
		}
		if got, err := row.got(tr, c); err != nil || got != row.want {
			t.Errorf("%s: %v (err %v), want %v", strings.Join(row.args, " "), got, err, row.want)
		}
	}
}

// Partial lets a finished and an interrupted study print — the latter under
// the header line — and nothing else.
func TestPartial(t *testing.T) {
	var out bytes.Buffer
	if !Partial(&out, nil, "%d points", 3) || out.Len() != 0 {
		t.Errorf("a finished study: want true and no header, got %q", out.String())
	}
	wrapped := fmt.Errorf("sweep: %w", experiments.ErrInterrupted)
	if !Partial(&out, wrapped, "%d of %d points", 3, 32) || out.String() != "interrupted; partial results (3 of 32 points):\n" {
		t.Errorf("an interrupted study: header %q", out.String())
	}
	out.Reset()
	if Partial(&out, errors.New("boom"), "%d points", 0) || out.Len() != 0 {
		t.Errorf("a failed study: want false and no header, got %q", out.String())
	}
}

// The -json writer replaces the file whole, says so, and does nothing
// without a path.
func TestWriteResultJSON(t *testing.T) {
	var out bytes.Buffer
	if err := WriteResultJSON(&out, "", 1); err != nil || out.Len() != 0 {
		t.Errorf("no path: err %v, output %q", err, out.String())
	}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := os.WriteFile(path, []byte("stale, and longer than the result"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteResultJSON(&out, path, map[string]int{"rows": 2}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "{\n  \"rows\": 2\n}\n" {
		t.Errorf("file = %q (err %v)", got, err)
	}
	if out.String() != "result written to "+path+"\n" {
		t.Errorf("output %q", out.String())
	}
	if entries, _ := os.ReadDir(filepath.Dir(path)); len(entries) != 1 {
		t.Errorf("temp file left behind: %v", entries)
	}
}
