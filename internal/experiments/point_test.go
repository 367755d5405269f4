package experiments

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/clitest"
	"repro/internal/system"
)

// A point with a source that has no count can never finish; the runner says
// so instead of spinning to the point's limit — for generators, for cores
// attached by hand and for the full system alike.
func TestRunnerRefusesUnboundedPoints(t *testing.T) {
	const want = "no request count"
	p, err := Fig3Spec(0).Point(system.EventBased, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Runner{}).Run(p); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("sweep point with 0 requests: err = %v, want %q", err, want)
	}
	if _, err := (Runner{}).RunSweep(Fig3Spec(0)); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("sweep with 0 requests: err = %v, want %q", err, want)
	}
	if _, err := (Runner{}).RunAblations("prefetch", 0); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("prefetch ablation with 0 memory operations: err = %v, want %q", err, want)
	}
	if _, err := (Runner{}).RunFig9(0, 2); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("fig9 with 0 memory operations: err = %v, want %q", err, want)
	}
}

// Stop is polled before every point: a study returns the rows that finished
// with ErrInterrupted, and a row one of whose two runs was stopped is dropped.
func TestRunnerStopReturnsCompletedRows(t *testing.T) {
	s := Fig3Spec(200)
	res, err := Runner{Stop: clitest.StopAfter(3)}.RunSweep(s) // event, cycle, event of the second row
	if !errors.Is(err, ErrInterrupted) || len(res.Rows) != 1 {
		t.Fatalf("sweep stopped mid-row: err = %v with %d rows, want ErrInterrupted with 1", err, len(res.Rows))
	}
	full, err := Runner{}.runSweepPoint(s, s.Strides[0], s.Banks[0])
	if err != nil || res.Rows[0] != full {
		t.Errorf("row before the stop is %+v, uninterrupted %+v (err %v)", res.Rows[0], full, err)
	}

	fig9, err := Runner{Stop: clitest.StopAfter(2)}.RunFig9(60, 2)
	if !errors.Is(err, ErrInterrupted) || len(fig9.Rows) != 2 || fig9.Rows[0].NormIPC != 0 {
		t.Errorf("fig9 stopped before its third system: err = %v, rows %+v; want two rows, not normalised", err, fig9.Rows)
	}
}
