package experiments

import (
	"reflect"
	"testing"

	"repro/internal/dram"
)

func TestFig9Configs(t *testing.T) {
	cfgs := Fig9Configs()
	if len(cfgs) != 3 {
		t.Fatal("want 3 memory systems")
	}
	// All three reach 12.8 GB/s aggregate (paper Table IV).
	for _, c := range cfgs {
		agg := c.Spec.PeakBandwidth() * float64(c.Channels)
		if agg < 12.7e9 || agg > 12.9e9 {
			t.Errorf("%s: aggregate %v", c.Name, agg)
		}
	}
}

func TestSweepSpecDefaults(t *testing.T) {
	s := Fig3Spec(100)
	org := dram.DDR3_1333_8x8().Org
	if len(s.Strides) == 0 || s.Strides[len(s.Strides)-1] != org.BurstsPerRow() {
		t.Fatalf("strides = %v, want up to %d", s.Strides, org.BurstsPerRow())
	}
	if len(s.Banks) == 0 || s.Banks[len(s.Banks)-1] != org.BanksPerRank {
		t.Fatalf("banks = %v", s.Banks)
	}
	if Fig4Spec(1).ReadPct != 50 || !Fig5Spec(1).ClosedPage {
		t.Fatal("figure specs drifted")
	}
}

// The multi-channel sweep is repeatable and produces a utilisation in (0, 1]
// for both models at every point.
func TestRunSweepMultiChannel(t *testing.T) {
	s := Fig3Spec(200)
	s.Strides = []uint64{4, 16}
	s.Banks = []int{4}
	s.Channels = 2
	res, err := Runner{}.RunSweep(s)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Runner{}.RunSweep(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(res.Rows))
	}
	if !reflect.DeepEqual(res.Rows, again.Rows) {
		t.Fatalf("two runs of the same sweep differ:\n%+v\n%+v", res.Rows, again.Rows)
	}
	for _, row := range res.Rows {
		for _, u := range []float64{row.EventUtil, row.CycleUtil} {
			if u <= 0 || u > 1 {
				t.Fatalf("stride %d: utilisation %.3f outside (0, 1] (ev=%.3f cy=%.3f)",
					row.StrideBursts, u, row.EventUtil, row.CycleUtil)
			}
		}
	}
}

func TestCoarseModes(t *testing.T) {
	h := HistogramSummary{
		Samples:  100,
		BucketLo: []float64{10, 12, 110, 112},
		Buckets:  []uint64{40, 10, 10, 40},
	}
	modes := h.CoarseModes(25, 0.05)
	if len(modes) != 2 || modes[0] != 0 || modes[1] != 100 {
		t.Fatalf("modes = %v", modes)
	}
	if !h.Bimodal(50) {
		t.Fatal("clearly bimodal distribution not detected")
	}
	var empty HistogramSummary
	if empty.CoarseModes(25, 0.05) != nil || empty.Bimodal(50) {
		t.Fatal("empty summary misbehaved")
	}
}
