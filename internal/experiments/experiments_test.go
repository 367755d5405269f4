package experiments

import (
	"cmp"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/dram"
	"repro/internal/stats"
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

// A sweep's cases are its grid, banks outer: strides from one burst to a
// DDR3-1333 row, clamped to the device's row (HMC's 256-byte rows stop at 8
// bursts), over 1 to 8 banks. The three figures differ in their traffic.
func TestSweepSpecDefaults(t *testing.T) {
	org := dram.DDR3_1333_8x8().Org
	hmc := dram.HMCVault()
	for _, c := range []struct {
		spec    *dram.Spec
		strides []uint64
	}{{nil, []uint64{1, 2, 4, 8, 16, 32, 64, 128}}, {&hmc, []uint64{1, 2, 4, 8}}} {
		s := study(t, "3").Setup()
		s.Spec = c.spec
		var want []string
		for b := 1; b <= org.BanksPerRank; b *= 2 {
			want = append(want, grid(c.strides, []int{b})...)
		}
		var got []string
		for _, cs := range study(t, "3").Cases(s, *cmp.Or(c.spec, &sweepDevice)) {
			got = append(got, cs.Name)
		}
		if !slices.Equal(got, want) {
			t.Errorf("spec %v: cases %v, want %v", c.spec != nil, got, want)
		}
	}
	if org.BurstsPerRow() != 128 {
		t.Errorf("DDR3-1333 has %d bursts per row, the axes assume 128", org.BurstsPerRow())
	}
	for fig, want := range map[string]string{"3": "reads: 100%", "4": "reads: 50%", "5": "page: closed, reads: 0%"} {
		st := study(t, fig)
		if title := st.Title(&Table{Study: st, Setup: st.Setup(), Spec: st.Spec}); !strings.Contains(title, want) {
			t.Errorf("figure %s: title %q lacks %q", fig, title, want)
		}
	}
}

// The DRAM-aware studies fit their bank axis and 8-bank cases to a device
// with fewer banks instead of refusing it mid-study: Figs. 3-5 and the
// speedup study run at a tiny count on every such preset, and a sweep's bank
// axis stops at the device's banks.
func TestStudiesFitDevicesWithFewerBanks(t *testing.T) {
	small := 0
	for _, spec := range dram.Presets() {
		if spec.Org.BanksPerRank >= 8 {
			continue
		}
		small++
		for _, name := range []string{"3", "4", "5", "speedup"} {
			st := study(t, name)
			s := st.Setup()
			s.N, s.Spec = 20, &spec
			res, err := Runner{}.Study(st, s)
			if err != nil {
				t.Errorf("%s on %s: %v", name, spec.Name, err)
				continue
			}
			for _, row := range res.Rows {
				if b, ok := row.Get("banks").(int); ok && b > spec.Org.BanksPerRank {
					t.Errorf("%s on %s: a case of %d banks", name, spec.Name, b)
				}
			}
		}
	}
	if small == 0 {
		t.Fatal("no preset has fewer than 8 banks")
	}
}

// The multi-channel sweep is repeatable and produces a utilisation in (0, 1]
// for both models at every point.
func TestRunSweepMultiChannel(t *testing.T) {
	st := only(study(t, "3"), grid([]uint64{4, 16}, []int{4})...)
	s := st.Setup()
	s.N, s.Channels = 200, 2
	res, err := Runner{}.Study(st, s)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Runner{}.Study(st, s)
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
		for _, u := range []float64{row.Float("eventUtil"), row.Float("cycleUtil")} {
			if u <= 0 || u > 1 {
				t.Fatalf("%v: utilisation %.3f outside (0, 1]", row, u)
			}
		}
	}
}

func TestCoarseModes(t *testing.T) {
	reg := stats.NewRegistry("t")
	h := reg.NewHistogram("lat", "", 0, 1000, 500)
	for v, n := range map[float64]int{10: 40, 12: 10, 110: 10, 112: 40} {
		for range n {
			h.Sample(v)
		}
	}
	modes := coarseModes(h, 25, 0.05)
	if len(modes) != 2 || modes[0] != 0 || modes[1] != 100 {
		t.Fatalf("modes = %v", modes)
	}
	if !bimodal(h, 50) {
		t.Fatal("clearly bimodal distribution not detected")
	}
	empty := reg.NewHistogram("empty", "", 0, 1000, 500)
	if coarseModes(empty, 25, 0.05) != nil || bimodal(empty, 50) {
		t.Fatal("empty histogram misbehaved")
	}
}
