package experiments

import (
	"repro/internal/dram"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/trafficgen"
)

// PowerSavingsRow is one bursty traffic shape run under three power
// configurations: no low-power states, power-down only, and power-down with
// self-refresh (the comparison of Jagtap et al.'s DRAM low-power study:
// savings grow with the idle-gap length as deeper states amortize their
// entry/exit cost).
type PowerSavingsRow struct {
	Case      string
	ActiveMW  float64 // low-power states disabled
	PDMW      float64 // power-down only
	PDSRMW    float64 // power-down + self-refresh
	PDSavePct float64 // vs ActiveMW
	SRSavePct float64 // vs ActiveMW
	// PDResidency and SRResidency are the fraction of rank time spent in
	// power-down / self-refresh during the PD+SR run.
	PDResidency float64
	SRResidency float64
}

// PowerSavingsResult is the full bursty-traffic savings table.
type PowerSavingsResult struct {
	Rows []PowerSavingsRow
}

// RunPowerSavings sweeps bursty traffic shapes — fixed-length request bursts
// separated by growing idle gaps — and reports the DRAM power under each
// low-power configuration. The power-down idle threshold is short (it pays
// off within tens of nanoseconds of idleness); the self-refresh threshold
// scales with the gap so the deep state only engages when the gap can absorb
// its tXS/tXSDLL exit cost.
func (r Runner) RunPowerSavings(requests uint64) (*PowerSavingsResult, error) {
	spec := dram.DDR3_1600_x64()
	cases := []struct {
		name     string
		burstLen int
		offNs    int64
	}{
		{"burst16/off1us", 16, 1_000},
		{"burst16/off5us", 16, 5_000},
		{"burst64/off20us", 64, 20_000},
		{"burst16/off100us", 16, 100_000},
	}
	res := &PowerSavingsResult{}
	for _, pc := range cases {
		pdIdle := 200 * sim.Nanosecond
		srIdle := sim.Tick(pc.offNs) * sim.Nanosecond / 4
		if srIdle <= pdIdle {
			srIdle = pdIdle + 50*sim.Nanosecond
		}
		// activity runs the case with the given idle thresholds (0 = state off).
		activity := func(powerDownIdle, selfRefreshIdle sim.Tick) (power.Activity, error) {
			p := matched(pc.name, spec, dram.RoRaBaCoCh, false, 1, requests, &trafficgen.Bursty{
				Start: 0, End: 1 << 28, Align: spec.Org.BurstBytes(),
				ReadPercent: 67, Seed: 7,
				BurstLen: pc.burstLen,
				OffTime:  sim.Tick(pc.offNs) * sim.Nanosecond,
			})
			p.Limit = 10 * sim.Second
			p.Event.PowerDownIdle, p.Event.SelfRefreshIdle = powerDownIdle, selfRefreshIdle
			rig, err := r.Run(p)
			if err != nil {
				return power.Activity{}, err
			}
			return rig.Ctrls[0].PowerStats(), nil
		}
		active, err := activity(0, 0)
		if err != nil {
			return res, err
		}
		pdAct, err := activity(pdIdle, 0)
		if err != nil {
			return res, err
		}
		bothAct, err := activity(pdIdle, srIdle)
		if err != nil {
			return res, err
		}
		activeMW := power.Compute(spec, active).TotalMW()
		pdMW := power.Compute(spec, pdAct).TotalMW()
		bothMW := power.Compute(spec, bothAct).TotalMW()
		row := PowerSavingsRow{
			Case: pc.name, ActiveMW: activeMW, PDMW: pdMW, PDSRMW: bothMW,
			PDSavePct: (activeMW - pdMW) / activeMW * 100,
			SRSavePct: (activeMW - bothMW) / activeMW * 100,
		}
		if bothAct.Elapsed > 0 {
			row.PDResidency = float64(bothAct.PowerDownTime) / float64(bothAct.Elapsed)
			row.SRResidency = float64(bothAct.SelfRefreshTime) / float64(bothAct.Elapsed)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
