package experiments

import (
	"errors"
	"reflect"
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
	p, err := SweepPoint(3, system.EventBased, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	p.Gen.Count = 0
	if _, err := (Runner{}).Run(p); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("sweep point with 0 requests: err = %v, want %q", err, want)
	}
	for _, name := range []string{"3", "prefetch", "9"} {
		s := study(t, name).Setup()
		s.N, s.Cores = 0, 2
		if _, err := (Runner{}).Study(study(t, name), s); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("study %s with a count of 0: err = %v, want %q", name, err, want)
		}
	}
}

// Stop is polled before every point: a study returns the rows that finished
// with ErrInterrupted, and a row one of whose two runs was stopped is dropped.
func TestRunnerStopReturnsCompletedRows(t *testing.T) {
	st := study(t, "3")
	s := st.Setup()
	s.N = 200
	res, err := Runner{Stop: clitest.StopAfter(3)}.Study(st, s) // event, cycle, event of the second row
	if !errors.Is(err, ErrInterrupted) || len(res.Rows) != 1 || !res.Partial() || res.Progress() != "1 of 32 points" {
		t.Fatalf("sweep stopped mid-row: err = %v with %d rows (%s), want ErrInterrupted with 1", err, len(res.Rows), res.Progress())
	}
	full, err := st.Cases(s, st.Spec)[0].Measure(Runner{})
	if err != nil || !reflect.DeepEqual(res.Rows[0], full) {
		t.Errorf("row before the stop is %+v, uninterrupted %+v (err %v)", res.Rows[0], full, err)
	}

	s = study(t, "9").Setup()
	s.N, s.Cores = 60, 2
	fig9, err := Runner{Stop: clitest.StopAfter(2)}.Study(study(t, "9"), s)
	if !errors.Is(err, ErrInterrupted) || len(fig9.Rows) != 2 || fig9.Rows[0].Float("normIPC") != 0 {
		t.Errorf("fig9 stopped before its third system: err = %v, rows %+v; want two rows, not normalised", err, fig9.Rows)
	}
}
