// Package interact is the cross-analyzer fixture: one package that trips
// every registered analyzer at least once, pinning the deterministic global
// finding order — sorted by file, line, analyzer, message — including two
// analyzers firing on one line.
package interact

import (
	"fmt"
	"io"

	"repro/internal/sim"
)

// --- detmap ---

// Report writes rows in map order.
func Report(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v)
	}
}

// --- tickunits + detmap on one line ---

// Both produces a tickunits finding (a tick named like a nanosecond count)
// and a detmap finding (the last key in map order) on the same line.
func Both(m map[sim.Tick]bool) sim.Tick {
	var last sim.Tick
	for windowNs := range m {
		last = windowNs
	}
	return last
}

// Convert is the unsuppressed tickunits finding.
func Convert(idleNs int64) sim.Tick {
	return sim.Tick(idleNs)
}
