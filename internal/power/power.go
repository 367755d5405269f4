// Package power implements a Micron-style DRAM power model (paper §II-G):
// the controllers collect activity statistics — activates, read/write
// bursts, refreshes, and the time all banks were precharged — and this
// package turns them into a power breakdown offline, following the structure
// of Micron's TN-41-01 "Calculating Memory System Power for DDR3"
// methodology (background, activate/precharge, read/write burst, refresh).
package power

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/sim"
)

// Activity is the controller-side activity snapshot the model consumes.
// Both the event-based controller (internal/core) and the cycle-based
// baseline (internal/cyclesim) produce it, which is what makes the §III-C3
// power comparison meaningful: same equations, different controllers.
type Activity struct {
	// Elapsed is the simulated time covered by the snapshot.
	Elapsed sim.Tick
	// Activations is the number of ACT commands issued.
	Activations uint64
	// ReadBursts and WriteBursts are the data bursts moved in each
	// direction.
	ReadBursts  uint64
	WriteBursts uint64
	// Refreshes is the number of REF commands issued.
	Refreshes uint64
	// PrechargeAllTime is the cumulative time during which every bank was
	// precharged.
	PrechargeAllTime sim.Tick
	// PowerDownTime is the mean per-rank time spent in power-down, both
	// flavors (extension; 0 when the feature is disabled). The precharge
	// share is billed at IDD2P, the active share at IDD3P.
	PowerDownTime sim.Tick
	// ActPowerDownTime is the active-power-down share of PowerDownTime
	// (rows left open, CKE low): billed at IDD3P instead of IDD2P.
	ActPowerDownTime sim.Tick
	// SelfRefreshTime is the mean per-rank time spent in self-refresh
	// (extension). Billed at IDD6; no external refresh energy accrues.
	SelfRefreshTime sim.Tick
	// PrePDTime, ActPDTime and SRTime are the exact per-rank residencies
	// behind the means above (index = rank). The scalar fields keep the
	// power equations rank-agnostic; these feed residency reporting and
	// trace reconciliation, where averaging would hide per-rank error.
	PrePDTime []sim.Tick
	ActPDTime []sim.Tick
	SRTime    []sim.Tick
}

// Breakdown is the computed power split, all in milliwatts for the whole
// rank (devices-per-rank scaled).
type Breakdown struct {
	BackgroundMW float64
	ActPreMW     float64
	ReadMW       float64
	WriteMW      float64
	RefreshMW    float64
}

// TotalMW sums the components.
func (b Breakdown) TotalMW() float64 {
	return b.BackgroundMW + b.ActPreMW + b.ReadMW + b.WriteMW + b.RefreshMW
}

// String renders the breakdown compactly.
func (b Breakdown) String() string {
	return fmt.Sprintf("total %.1f mW (bg %.1f, act/pre %.1f, rd %.1f, wr %.1f, ref %.1f)",
		b.TotalMW(), b.BackgroundMW, b.ActPreMW, b.ReadMW, b.WriteMW, b.RefreshMW)
}

// Compute applies the Micron methodology to an activity snapshot for the
// given memory spec. A zero-elapsed snapshot yields a zero breakdown.
func Compute(spec dram.Spec, a Activity) Breakdown {
	if a.Elapsed <= 0 {
		return Breakdown{}
	}
	p := spec.Power
	t := spec.Timing
	elapsed := a.Elapsed.Seconds()
	devices := float64(spec.Org.DevicesPerRank)
	if devices == 0 {
		devices = 1
	}

	// Background power: IDD6 in self-refresh, IDD2P in precharge power-down
	// and IDD3P in active power-down, IDD2N while all banks are precharged,
	// IDD3N otherwise. The low-power intervals are treated as subsets of
	// the precharged-or-idle time.
	fracSR := float64(a.SelfRefreshTime) / float64(a.Elapsed)
	if fracSR > 1 {
		fracSR = 1
	}
	fracPD := float64(a.PowerDownTime) / float64(a.Elapsed)
	if fracPD > 1-fracSR {
		fracPD = 1 - fracSR
	}
	fracPDact := float64(a.ActPowerDownTime) / float64(a.Elapsed)
	if fracPDact > fracPD {
		fracPDact = fracPD
	}
	fracPDpre := fracPD - fracPDact
	fracPre := float64(a.PrechargeAllTime) / float64(a.Elapsed)
	if fracPre > 1 {
		fracPre = 1
	}
	if fracPre > 1-fracPD-fracSR {
		fracPre = 1 - fracPD - fracSR
	}
	bg := p.VDD * (p.IDD6*fracSR + p.IDD2P*fracPDpre + p.IDD3P*fracPDact +
		p.IDD2N*fracPre + p.IDD3N*(1-fracSR-fracPD-fracPre))

	// Activate/precharge power: each ACT/PRE pair draws IDD0 minus the
	// background current it would have drawn anyway, for tRC = tRAS + tRP.
	trc := (t.TRAS + t.TRP).Seconds()
	actShare := float64(a.Activations) * trc / elapsed
	if actShare > 1 {
		actShare = 1
	}
	actPre := p.VDD * (p.IDD0 - p.IDD3N) * actShare
	if actPre < 0 {
		actPre = 0
	}

	// Read/write burst power: incremental current over active standby,
	// weighted by bus utilisation in each direction.
	burst := t.TBURST.Seconds()
	rdShare := float64(a.ReadBursts) * burst / elapsed
	wrShare := float64(a.WriteBursts) * burst / elapsed
	rd := p.VDD * (p.IDD4R - p.IDD3N) * rdShare
	wr := p.VDD * (p.IDD4W - p.IDD3N) * wrShare
	if rd < 0 {
		rd = 0
	}
	if wr < 0 {
		wr = 0
	}

	// Refresh power: IDD5 over IDD3N for the blackout of one refresh command
	// under the device's discipline (tRFC all-bank, tRFCpb per-bank, tRFCsb
	// same-bank).
	refShare := float64(a.Refreshes) * spec.RefreshMode().Blackout.Seconds() / elapsed
	if refShare > 1 {
		refShare = 1
	}
	ref := p.VDD * (p.IDD5 - p.IDD3N) * refShare
	if ref < 0 {
		ref = 0
	}

	return Breakdown{
		BackgroundMW: bg * devices,
		ActPreMW:     actPre * devices,
		ReadMW:       rd * devices,
		WriteMW:      wr * devices,
		RefreshMW:    ref * devices,
	}
}
