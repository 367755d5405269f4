package power

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dram"
	"repro/internal/sim"
)

func idleActivity(elapsed sim.Tick) Activity {
	return Activity{Elapsed: elapsed, PrechargeAllTime: elapsed}
}

func TestZeroElapsed(t *testing.T) {
	b := Compute(dram.DDR3_1600_x64(), Activity{})
	if b.TotalMW() != 0 {
		t.Fatalf("zero snapshot gave %v", b)
	}
}

// An idle DRAM draws only precharge-standby background power:
// VDD * IDD2N * devices.
func TestIdleBackground(t *testing.T) {
	spec := dram.DDR3_1600_x64()
	b := Compute(spec, idleActivity(sim.Millisecond))
	want := spec.Power.VDD * spec.Power.IDD2N * float64(spec.Org.DevicesPerRank)
	if math.Abs(b.BackgroundMW-want) > 1e-9 {
		t.Fatalf("background = %v, want %v", b.BackgroundMW, want)
	}
	if b.ActPreMW != 0 || b.ReadMW != 0 || b.WriteMW != 0 || b.RefreshMW != 0 {
		t.Fatalf("idle DRAM has dynamic power: %v", b)
	}
}

// A fully active (never precharged) idle DRAM draws IDD3N background.
func TestActiveBackground(t *testing.T) {
	spec := dram.DDR3_1600_x64()
	b := Compute(spec, Activity{Elapsed: sim.Millisecond})
	want := spec.Power.VDD * spec.Power.IDD3N * float64(spec.Org.DevicesPerRank)
	if math.Abs(b.BackgroundMW-want) > 1e-9 {
		t.Fatalf("background = %v, want %v", b.BackgroundMW, want)
	}
}

// Read power scales linearly with bus utilisation.
func TestReadPowerScalesWithUtilisation(t *testing.T) {
	spec := dram.DDR3_1600_x64()
	elapsed := sim.Millisecond
	burstsAt := func(util float64) uint64 {
		return uint64(util * float64(elapsed) / float64(spec.Timing.TBURST))
	}
	half := Compute(spec, Activity{Elapsed: elapsed, ReadBursts: burstsAt(0.5)})
	full := Compute(spec, Activity{Elapsed: elapsed, ReadBursts: burstsAt(1.0)})
	if half.ReadMW <= 0 {
		t.Fatal("read power not positive")
	}
	if math.Abs(full.ReadMW-2*half.ReadMW) > full.ReadMW*0.01 {
		t.Fatalf("read power not linear: half=%v full=%v", half.ReadMW, full.ReadMW)
	}
}

// More activations cost more power; the activate share saturates at 1.
func TestActivatePower(t *testing.T) {
	spec := dram.DDR3_1600_x64()
	elapsed := sim.Millisecond
	a := Compute(spec, Activity{Elapsed: elapsed, Activations: 1000})
	b := Compute(spec, Activity{Elapsed: elapsed, Activations: 2000})
	if !(0 < a.ActPreMW && a.ActPreMW < b.ActPreMW) {
		t.Fatalf("act/pre power not increasing: %v %v", a.ActPreMW, b.ActPreMW)
	}
	// Saturation guard: absurd activation counts cannot exceed IDD0 draw.
	c := Compute(spec, Activity{Elapsed: elapsed, Activations: 1 << 40})
	maxW := spec.Power.VDD * (spec.Power.IDD0 - spec.Power.IDD3N) * float64(spec.Org.DevicesPerRank)
	if c.ActPreMW > maxW+1e-9 {
		t.Fatalf("act/pre power %v exceeds physical cap %v", c.ActPreMW, maxW)
	}
}

// Refresh power follows the refresh duty cycle tRFC/tREFI.
func TestRefreshPower(t *testing.T) {
	spec := dram.DDR3_1600_x64()
	elapsed := 100 * spec.Timing.TREFI
	refs := uint64(elapsed / spec.Timing.TREFI)
	b := Compute(spec, Activity{Elapsed: elapsed, Refreshes: refs, PrechargeAllTime: elapsed})
	duty := spec.Timing.TRFC.Seconds() / spec.Timing.TREFI.Seconds()
	want := spec.Power.VDD * (spec.Power.IDD5 - spec.Power.IDD3N) * duty * float64(spec.Org.DevicesPerRank)
	if math.Abs(b.RefreshMW-want) > want*0.01 {
		t.Fatalf("refresh = %v, want %v", b.RefreshMW, want)
	}
}

func TestBreakdownStringAndTotal(t *testing.T) {
	b := Breakdown{BackgroundMW: 1, ActPreMW: 2, ReadMW: 3, WriteMW: 4, RefreshMW: 5}
	if b.TotalMW() != 15 {
		t.Fatalf("total = %v", b.TotalMW())
	}
	if b.String() == "" {
		t.Fatal("empty String")
	}
}

// WideIO at equal bandwidth should burn less interface power than DDR3 (its
// low-capacitance TSV interface is the paper's motivation for stacked DRAM).
func TestWideIOMoreEfficientThanDDR3(t *testing.T) {
	ddr3 := dram.DDR3_1600_x64()
	wio := dram.WideIO_200_x128()
	elapsed := sim.Millisecond
	// Same byte volume through both.
	bytes := uint64(3.2e9 * elapsed.Seconds()) // 3.2 GB/s worth
	mk := func(spec dram.Spec) Activity {
		bursts := bytes / spec.Org.BurstBytes()
		return Activity{
			Elapsed:     elapsed,
			ReadBursts:  bursts,
			Activations: bursts / spec.Org.BurstsPerRow(),
		}
	}
	// Equal bytes over equal time: total power orders like energy per bit.
	if p1, p2 := Compute(ddr3, mk(ddr3)).TotalMW(), Compute(wio, mk(wio)).TotalMW(); p2 >= p1 {
		t.Fatalf("WideIO power %v mW >= DDR3 %v mW at equal bandwidth", p2, p1)
	}
}

// Property: power is non-negative and monotone in each activity component.
func TestPowerMonotoneProperty(t *testing.T) {
	spec := dram.DDR3_1600_x64()
	prop := func(acts, rds, wrs, refs uint16) bool {
		elapsed := sim.Millisecond
		base := Activity{Elapsed: elapsed, Activations: uint64(acts), ReadBursts: uint64(rds),
			WriteBursts: uint64(wrs), Refreshes: uint64(refs)}
		b := Compute(spec, base)
		if b.BackgroundMW < 0 || b.ActPreMW < 0 || b.ReadMW < 0 || b.WriteMW < 0 || b.RefreshMW < 0 {
			return false
		}
		more := base
		more.ReadBursts += 100
		if Compute(spec, more).ReadMW < b.ReadMW {
			return false
		}
		more = base
		more.Activations += 100
		if Compute(spec, more).ActPreMW < b.ActPreMW {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
