package main

import (
	"bytes"
	"regexp"
	"testing"
)

// The three exit statuses: findings on the tickunits fixture, a clean
// package, and a pattern the go command cannot load or a flag simlint does
// not have.
func TestExitStatus(t *testing.T) {
	for _, row := range []struct {
		name   string
		arg    string
		status int
		out    *regexp.Regexp // nil: no output
	}{
		{"findings", "../../internal/analysis/testdata/src/tickunits", 1, regexp.MustCompile(`(?m)^\S*tickunits\.go:\d+: \[tickunits\] `)},
		{"clean", ".", 0, nil},
		{"unloadable", "./no-such-package", 2, nil},
		{"retired flag", "-json", 2, nil},
	} {
		t.Run(row.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run([]string{row.arg}, &out)
			if got := exitStatus(err); got != row.status {
				t.Fatalf("simlint %s: exit %d (err %v), want %d\n%s", row.arg, got, err, row.status, out.String())
			}
			if row.out == nil && out.Len() != 0 || row.out != nil && !row.out.Match(out.Bytes()) {
				t.Errorf("simlint %s printed:\n%s", row.arg, out.String())
			}
		})
	}
}
