package analysis_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestHotEscapeAgreement cross-checks hotalloc against the compiler's own
// escape analysis: `go build -gcflags=-m` diagnostics landing inside a hot
// function's span must fall on a line the analyzer also tolerates — an
// exempt region (probe guard, panic argument) or an explicit //lint:allow
// hotalloc. Anything else means the static model and gc disagree, which is
// exactly the kind of drift the AllocsPerRun gates only catch after the
// fact. The reverse direction is pinned too: the functions those dynamic
// gates enter through must actually carry //hot:path, so all three layers
// (analyzer, compiler, runtime gate) describe the same set of code.
func TestHotEscapeAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the whole module with -gcflags=-m")
	}
	root := moduleRoot(t)

	// -l disables inlining so every allocation is attributed to the line of
	// the construct itself, not the call site it inlined into. Hotalloc is a
	// per-function model — the pool grow path `return &dramPacket{}` is
	// suppressed where it is written, and with inlining on, gc would re-report
	// that same allocation at every hot call site that inlines Get.
	cmd := exec.Command("go", "build", "-gcflags=-m -l", "./...")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	diags := analysis.ParseEscapeOutput(string(out))
	if len(diags) == 0 {
		t.Fatal("no escape diagnostics parsed; -m output format changed?")
	}

	pkgs, err := analysis.Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	prog := analysis.BuildProgram(pkgs)
	spans := analysis.HotSpans(prog)
	if len(spans) == 0 {
		t.Fatal("no //hot:path functions found")
	}

	// The AllocsPerRun gates and the annotations must describe the same
	// code: each gate's entry point carries //hot:path.
	hotNames := map[string]bool{}
	for _, s := range spans {
		hotNames[s.Name] = true
	}
	for _, want := range []string{
		"core.(*Controller).RecvTimingReq", // TestControllerSteadyStateZeroAlloc
		"sim.(*Kernel).Schedule",           // TestScheduleSteadyStateZeroAlloc
		"mem.(*PacketPool).Get",            // TestPacketPoolSteadyStateZeroAlloc
		"mem.(*PacketQueue).Push",          // TestPacketQueueSteadyStateZeroAlloc
		"cpu.(*Core).run",                  // TestCoreSteadyStateZeroAlloc
		"cpu.(*Core).RecvTimingResp",       // same gate
		"cache.(*Cache).access",            // TestCacheSteadyStateZeroAlloc
		"cache.(*Cache).fillOrAck",         // same gate
		"cache.(*Cache).processResponses",  // same gate
		"xbar.(*outQueue).push",            // TestCrossbarRoundTripZeroAlloc
		"xbar.(*outQueue).drain",           // same gate
	} {
		if !hotNames[want] {
			t.Errorf("%s is AllocsPerRun-gated but not //hot:path-annotated", want)
		}
	}

	// Index spans by compiler-relative file path.
	byFile := map[string][]analysis.HotSpan{}
	for _, s := range spans {
		rel, err := filepath.Rel(root, s.File)
		if err != nil {
			t.Fatal(err)
		}
		byFile[rel] = append(byFile[rel], s)
	}

	fileLines := map[string][]string{}
	allowed := func(rel string, line int) bool {
		lines, ok := fileLines[rel]
		if !ok {
			data, err := os.ReadFile(filepath.Join(root, rel))
			if err != nil {
				t.Fatal(err)
			}
			lines = strings.Split(string(data), "\n")
			fileLines[rel] = lines
		}
		for _, l := range []int{line, line - 1} { // same semantics as //lint:allow
			if l >= 1 && l <= len(lines) && strings.Contains(lines[l-1], "//lint:allow hotalloc") {
				return true
			}
		}
		return false
	}

	for _, d := range diags {
		for _, s := range byFile[d.File] {
			if d.Line < s.Start || d.Line > s.End {
				continue
			}
			if s.Exempt[d.Line] || allowed(d.File, d.Line) {
				continue
			}
			t.Errorf("%s:%d: gc says %q inside hot function %s (root %s), but hotalloc reports nothing and no //lint:allow hotalloc covers it",
				d.File, d.Line, d.Msg, s.Name, s.Root)
		}
	}
}
