package analysis_test

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// hotGates lists every //hot:path root against the AllocsPerRun gate that
// enters it. TestHotEscapeAgreement requires the two sets to be equal, so the
// compiler gate and the runtime gates always describe the same code.
var hotGates = map[string]string{
	"sim.(*Kernel).Schedule":                 "sim.TestScheduleSteadyStateZeroAlloc",
	"sim.(*Kernel).Deschedule":               "sim.TestScheduleSteadyStateZeroAlloc",
	"sim.(*Kernel).Reschedule":               "sim.TestScheduleSteadyStateZeroAlloc",
	"sim.(*Kernel).step":                     "sim.TestScheduleSteadyStateZeroAlloc",
	"sim.(*Kernel).Call":                     "sim.TestCallSteadyStateZeroAlloc",
	"sim.(*Pool).Get":                        "sim.TestPoolSteadyStateZeroAlloc",
	"sim.(*Pool).Put":                        "sim.TestPoolSteadyStateZeroAlloc",
	"mem.(*PacketQueue).Push":                "mem.TestPacketQueueSteadyStateZeroAlloc",
	"mem.(*PacketQueue).Pop":                 "mem.TestPacketQueueSteadyStateZeroAlloc",
	"core.(*Controller).RecvTimingReq":       "core.TestControllerSteadyStateZeroAlloc",
	"core.(*Controller).processNextReqEvent": "core.TestControllerSteadyStateZeroAlloc",
	"core.(*Controller).chooseNext":          "core.TestControllerSteadyStateZeroAlloc",
	"core.(*Controller).doDRAMAccess":        "core.TestControllerSteadyStateZeroAlloc",
	"core.(*burstQueue).push":                "core.TestControllerSteadyStateZeroAlloc",
	"core.(*burstQueue).remove":              "core.TestControllerSteadyStateZeroAlloc",
	"trafficgen.(*Issuer).issue":             "cpu.TestCoreSteadyStateZeroAlloc",
	"trafficgen.(*Issuer).RecvTimingResp":    "cpu.TestCoreSteadyStateZeroAlloc",
	"cache.(*Cache).access":                  "cache.TestCacheSteadyStateZeroAlloc",
	"cache.(*Cache).fillOrAck":               "cache.TestCacheSteadyStateZeroAlloc",
	"cache.(*Cache).processResponses":        "cache.TestCacheSteadyStateZeroAlloc",
	"xbar.(*outQueue).push":                  "xbar.TestCrossbarRoundTripZeroAlloc",
	"xbar.(*outQueue).drain":                 "xbar.TestCrossbarRoundTripZeroAlloc",
}

// TestHotEscapeAgreement is the static allocation check on the hot path: every
// heap diagnostic of `go build -gcflags='-m -l'` inside a hot function's span
// (the //hot:path roots and their module-local callees) must fall in an
// exempt region (probe guard, panic call) or under a `//hot:allow <reason>`
// marker, on the reported line or the one above. A marker with no reason, or
// with no such diagnostic under it, fails too, so the markers cannot outlive
// the allocations they excuse.
func TestHotEscapeAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the whole module with -gcflags=-m")
	}
	root := moduleRoot(t)

	// -l disables inlining so every allocation is attributed to the line of
	// the construct itself, not the call site it inlined into: the pool's slab
	// allocation in `sim.(*Pool).Get` is marked where it is written, and with
	// inlining on, gc would re-report that same allocation at every hot call
	// site that inlines Get.
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
	spans := analysis.HotSpans(analysis.BuildProgram(pkgs))

	// Roots and gates are one set.
	roots := map[string]bool{}
	for _, s := range spans {
		if s.Name != s.Root {
			continue
		}
		roots[s.Name] = true
		if hotGates[s.Name] == "" {
			t.Errorf("%s is //hot:path but no AllocsPerRun gate is listed for it in hotGates", s.Name)
		}
	}
	for name, gate := range hotGates {
		if !roots[name] {
			t.Errorf("%s is listed as entered by %s but does not carry //hot:path", name, gate)
		}
	}

	// Every //hot:allow marker in the module, by root-relative file and line.
	type site struct {
		file string
		line int
	}
	type marker struct {
		reason string
		used   bool
	}
	markers := map[site]*marker{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "//hot:allow")
					if !ok || (rest != "" && rest[0] != ' ') {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					rel, err := filepath.Rel(root, pos.Filename)
					if err != nil {
						t.Fatal(err)
					}
					markers[site{rel, pos.Line}] = &marker{reason: strings.TrimSpace(rest)}
				}
			}
		}
	}

	byFile := map[string][]analysis.HotSpan{}
	for _, s := range spans {
		rel, err := filepath.Rel(root, s.File)
		if err != nil {
			t.Fatal(err)
		}
		byFile[rel] = append(byFile[rel], s)
	}
	for _, d := range diags {
		for _, s := range byFile[d.File] {
			if d.Line < s.Start || d.Line > s.End || s.Exempt[d.Line] {
				continue
			}
			m := markers[site{d.File, d.Line}]
			if m == nil {
				m = markers[site{d.File, d.Line - 1}]
			}
			if m == nil {
				t.Errorf("%s:%d: gc says %q inside hot function %s (root %s); remove the allocation, or mark a deliberate one //hot:allow <reason>",
					d.File, d.Line, d.Msg, s.Name, s.Root)
				continue
			}
			m.used = true
		}
	}
	for at, m := range markers {
		switch {
		case m.reason == "":
			t.Errorf("%s:%d: //hot:allow needs a reason", at.file, at.line)
		case !m.used:
			t.Errorf("%s:%d: //hot:allow is stale: the compiler reports no heap allocation on a hot path under it; delete it", at.file, at.line)
		}
	}
}
