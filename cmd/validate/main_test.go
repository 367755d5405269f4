package main

// In-process port of the validate half of the old standards and trace smoke
// scripts: the per-standard protocol smoke is clean, the traced self-check
// reconciles, and -trace-check accepts the trace it wrote and refuses a
// damaged one.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func validate(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("validate %s: %v\n%s", strings.Join(args, " "), err, out.String())
	}
	return out.String()
}

func TestStandardSmokes(t *testing.T) {
	for _, std := range []string{"ddr3", "ddr4", "ddr5", "lpddr5"} {
		out := validate(t, "-standard", std)
		if !strings.Contains(out, "[PASS] Standard "+std+" ") || strings.Contains(out, "FAIL") {
			t.Errorf("-standard %s:\n%s", std, out)
		}
	}
	if out := validate(t, "-standard", "ddr5"); !strings.Contains(out, "[PASS] Standard ddr5 REFsb") {
		t.Errorf("-standard ddr5 did not check its same-bank refreshes:\n%s", out)
	}
	var out bytes.Buffer
	if err := run([]string{"-standard", "nosuch"}, &out); !errors.Is(err, errFailed) || !strings.Contains(out.String(), "[FAIL] Standard nosuch") {
		t.Errorf("-standard nosuch: err = %v, want a failed check:\n%s", err, out.String())
	}
}

func TestTraceSelfCheckAndTraceCheck(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "run.json")
	out := validate(t, "-faults", "-trace", trace)
	for _, check := range []string{"Trace validity", "Trace spans balanced", "Trace/stats bursts",
		"Trace/stats activates", "Trace/stats refreshes", "Trace/stats power residency", "Fault determinism"} {
		if !strings.Contains(out, "[PASS] "+check) {
			t.Errorf("%q did not pass:\n%s", check, out)
		}
	}
	if out := validate(t, "-trace-check", trace); !strings.Contains(out, "valid Chrome trace JSON") || !strings.Contains(out, "(0 open)") {
		t.Errorf("-trace-check on the trace just written:\n%s", out)
	}

	// Cut mid-line, the file is no longer strict JSON.
	b, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(trace, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	if err := run([]string{"-trace-check", trace}, &sink); err == nil {
		t.Errorf("-trace-check accepted a truncated trace:\n%s", sink.String())
	}
}
