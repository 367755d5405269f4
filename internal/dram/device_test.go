package dram

import (
	"reflect"
	"testing"
)

// TestPresetsStableAndValid pins the registry's stable order (listings and
// cache keys go by name) and requires every preset to validate.
func TestPresetsStableAndValid(t *testing.T) {
	wantOrder := []string{
		"DDR3-1600-x64", "DDR3-1600-x64-2R", "LPDDR3-1600-x32",
		"WideIO-200-x128", "DDR3-1333-8x8", "DDR4-2400-x64",
		"DDR4-3200-x64", "DDR5-4800-x64", "LPDDR5-6400-x32",
		"GDDR5-4000-x32", "LPDDR2-1066-x32", "HMC-vault",
	}
	var got []string
	for _, s := range Presets() {
		got = append(got, s.Name)
		if err := s.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", s.Name, err)
		}
	}
	if !reflect.DeepEqual(got, wantOrder) {
		t.Errorf("preset order changed:\n got %v\nwant %v", got, wantOrder)
	}
}

func TestByNameCaseInsensitive(t *testing.T) {
	s, err := ByName("ddr5-4800-X64")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "DDR5-4800-x64" {
		t.Fatalf("got %s", s.Name)
	}
	if _, err := ByName("DDR9-nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

// TestByStandardCoversStandards requires every advertised family keyword to
// resolve, and the resolved preset's Standard() to round-trip (the -standard
// flag relies on this agreement).
func TestByStandardCoversStandards(t *testing.T) {
	stds := Standards()
	if len(stds) < 4 {
		t.Fatalf("suspiciously few standards: %v", stds)
	}
	for i := 1; i < len(stds); i++ {
		if stds[i-1] >= stds[i] {
			t.Fatalf("Standards() not sorted: %v", stds)
		}
	}
	for _, std := range stds {
		s, err := ByStandard(std)
		if err != nil {
			t.Fatalf("ByStandard(%q): %v", std, err)
		}
		if s.Standard() == "custom" && std != "hmc" && std != "wideio" {
			t.Errorf("standard %q resolved to a family-less preset %s", std, s.Name)
		}
	}
	if _, err := ByStandard("ddr6"); err == nil {
		t.Fatal("unknown standard accepted")
	}
	if s, err := ByStandard("DDR5"); err != nil || s.Name != "DDR5-4800-x64" {
		t.Fatalf("ByStandard is not case-insensitive: %v %v", s.Name, err)
	}
}

// TestStandardFallback: hand-built specs with no Family report "custom", so
// reports never print an empty standard.
func TestStandardFallback(t *testing.T) {
	var s Spec
	if got := s.Standard(); got != "custom" {
		t.Fatalf("zero spec Standard() = %q, want custom", got)
	}
}

// TestTopologyGrouping pins the bank-group geometry and the fixed
// bank-mod-groups convention both the controller and the checker assume.
func TestTopologyGrouping(t *testing.T) {
	flat := DDR3_1600_x64().Topology()
	if flat.Grouped() || flat.Groups != 1 || flat.BanksPerGroup != 8 {
		t.Fatalf("DDR3 topology %+v, want flat 1x8", flat)
	}
	if g := flat.GroupOf(5); g != 0 {
		t.Fatalf("flat GroupOf(5) = %d, want 0", g)
	}
	d5 := DDR5_4800_x64().Topology()
	if !d5.Grouped() || d5.Groups != 8 || d5.BanksPerGroup != 4 {
		t.Fatalf("DDR5 topology %+v, want 8 groups of 4", d5)
	}
	// Banks 0 and 8 share group 0; banks 0 and 1 do not.
	if d5.GroupOf(0) != d5.GroupOf(8) || d5.GroupOf(0) == d5.GroupOf(1) {
		t.Fatalf("group convention broken: GroupOf(0)=%d GroupOf(1)=%d GroupOf(8)=%d",
			d5.GroupOf(0), d5.GroupOf(1), d5.GroupOf(8))
	}
}

// TestRefreshModePerKind checks each discipline's derived blackout: tRFC for
// all-bank, the 3/5 tRFC approximation for per-bank, tRFCsb for same-bank.
func TestRefreshModePerKind(t *testing.T) {
	d3 := DDR3_1600_x64()
	if rm := d3.RefreshMode(); rm.Kind != RefAllBank || rm.Blackout != d3.Timing.TRFC ||
		rm.Interval != d3.Timing.TREFI || rm.MaxPostponed != 8 {
		t.Fatalf("DDR3 refresh mode %+v", rm)
	}
	pb := d3
	pb.Refresh = RefPerBank
	if rm := pb.RefreshMode(); rm.Blackout != d3.Timing.TRFC*TRFCpbNum/TRFCpbDen {
		t.Fatalf("per-bank blackout %s, want %s", rm.Blackout, d3.Timing.TRFC*TRFCpbNum/TRFCpbDen)
	}
	d5 := DDR5_4800_x64()
	if rm := d5.RefreshMode(); rm.Kind != RefSameBank || rm.Blackout != d5.Timing.TRFCSB {
		t.Fatalf("DDR5 refresh mode %+v, want same-bank with tRFCsb", rm)
	}
	// The device is the only owner of the discipline, so its names label the
	// refresh ablation and its Validate is the only gate on the value.
	if RefAllBank.String() != "all-bank" || RefPerBank.String() != "per-bank" || RefSameBank.String() != "same-bank" {
		t.Fatal("refresh kind names wrong")
	}
	pb.Refresh = RefreshKind(7)
	if pb.Validate() == nil {
		t.Fatal("unknown refresh kind accepted")
	}
}

// TestDeviceTimingSelectors pins the sameGroup selector semantics.
func TestDeviceTimingSelectors(t *testing.T) {
	d5 := DDR5_4800_x64()
	if d5.ActToAct(true) != d5.Timing.TRRDL || d5.ActToAct(false) != d5.Timing.TRRD {
		t.Fatal("DDR5 ActToAct selector broken")
	}
	if d5.ColToCol(true) != d5.Timing.TCCDL || d5.ColToCol(false) != d5.Timing.TCCDS {
		t.Fatal("DDR5 ColToCol selector broken")
	}
	d3 := DDR3_1600_x64()
	if d3.ActToAct(true) != d3.Timing.TRRD {
		t.Fatal("flat device must fall back to tRRD for same-group ACTs")
	}
	if d3.ColToCol(true) != 0 || d3.ColToCol(false) != 0 {
		t.Fatal("flat device column spacing must be data-bus only (zero)")
	}
	lp5 := LPDDR5_6400_x32()
	if lp5.PrechargeAll() != lp5.Timing.TRPAB {
		t.Fatal("LPDDR5 PrechargeAll must return tRPab")
	}
	if d3.PrechargeAll() != d3.Timing.TRP {
		t.Fatal("DDR3 PrechargeAll must fall back to tRP")
	}
}
