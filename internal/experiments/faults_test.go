package experiments

import "testing"

// The fault sweep completes despite uncorrectable errors, is seed-stable,
// and its zero-rate point is fault-free.
func TestFaultSweep(t *testing.T) {
	spec := DefaultFaultSweep(300)
	spec.BERs = []float64{0, 5e-2}
	a, err := Runner{}.RunFaultSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 2 {
		t.Fatalf("rows = %d", len(a.Rows))
	}
	zero, hot := a.Rows[0], a.Rows[1]
	if zero.Corrected+zero.Uncorrected+zero.Retried+zero.Retired+zero.Scrubs != 0 {
		t.Fatalf("zero-rate point has faults: %+v", zero)
	}
	if hot.Corrected == 0 || hot.Scrubs == 0 {
		t.Fatalf("hot point saw no correctable errors: %+v", hot)
	}
	if hot.AvgReadNs <= zero.AvgReadNs {
		t.Fatalf("fault handling did not cost latency: %v <= %v", hot.AvgReadNs, zero.AvgReadNs)
	}
	b, err := Runner{}.RunFaultSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			t.Fatalf("sweep not reproducible at row %d: %+v vs %+v", i, a.Rows[i], b.Rows[i])
		}
	}
}
