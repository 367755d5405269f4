// Package suppress is a fixture for //lint:allow handling: a well-formed
// directive silences its finding, a reasonless directive is itself a
// finding (and silences nothing), and an unknown analyzer name is rejected.
package suppress

import "repro/internal/sim"

// Allowed is suppressed by a well-formed directive with a reason.
func Allowed(idleNs int64) sim.Tick {
	return sim.Tick(idleNs) //lint:allow tickunits fixture exercises the suppression path
}

// AllowedAbove is suppressed by a directive on the preceding line.
func AllowedAbove(idleNs int64) sim.Tick {
	//lint:allow tickunits fixture exercises the preceding-line form
	return sim.Tick(idleNs)
}

// MissingReason is NOT suppressed: the directive lacks a reason, which is
// itself a finding.
func MissingReason(idleNs int64) sim.Tick {
	return sim.Tick(idleNs) //lint:allow tickunits
}

// UnknownAnalyzer is NOT suppressed: the directive names no known analyzer.
func UnknownAnalyzer(idleNs int64) sim.Tick {
	return sim.Tick(idleNs) //lint:allow tickunit typo in the analyzer name
}

// WrongAnalyzer is NOT suppressed: the directive allows a different
// analyzer — and since that directive suppresses nothing, it is also stale.
func WrongAnalyzer(idleNs int64) sim.Tick {
	return sim.Tick(idleNs) //lint:allow detmap wrong analyzer on purpose
}

// Dormant keeps a directive that suppresses nothing. It is stale, and a
// //lint:allow naming "lint" above it is an unknown analyzer, not a way to
// keep it.
func Dormant() sim.Tick {
	//lint:allow lint kept on purpose
	//lint:allow tickunits nothing on the next line converts a count
	return 0
}
