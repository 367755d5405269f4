package cyclesim

// Per-cycle bank state machines and energy integration, the way DRAMSim2
// structures its simulation: every memory clock, each bank's state machine
// is maintained (countdown timers for transient states) and the Micron
// current draw for the cycle is integrated into running energy counters.
// This is the per-cycle bookkeeping the paper's event-based model eliminates
// — and it doubles as a cycle-accurate energy profile, which DRAMSim2
// exposes the same way.

// bankStatus is the externally visible state of one bank's FSM.
type bankStatus int

// Bank FSM states.
const (
	bankIdle bankStatus = iota
	bankActivating
	bankActive
	bankPrecharging
	bankRefreshing
)

// EnergyBreakdown is the integrated energy split in picojoules.
type EnergyBreakdown struct {
	BackgroundPJ float64
	ActPrePJ     float64
	ReadPJ       float64
	WritePJ      float64
	RefreshPJ    float64
}

// TotalPJ sums the components.
func (e EnergyBreakdown) TotalPJ() float64 {
	return e.BackgroundPJ + e.ActPrePJ + e.ReadPJ + e.WritePJ + e.RefreshPJ
}

// maintain advances every bank FSM by one cycle and integrates the cycle's
// background energy: the genuine per-cycle loop. tick calls it once per
// evaluated cycle; the stretch before the clock first starts (no request and
// no refresh yet) is not ticked and so not integrated.
func (c *Controller) maintain() {
	p := c.spec.Power
	tckSec := c.tck.Seconds()
	devices := float64(c.spec.Org.DevicesPerRank)
	if devices == 0 {
		devices = 1
	}
	// Energy per cycle per device at a given current (mA * V * s = mJ;
	// scaled to pJ).
	perCycle := func(currentMA float64) float64 {
		return currentMA * p.VDD * tckSec * 1e12 * devices / 1000
	}

	for _, rk := range c.ranks {
		anyActive := false
		refreshing := false
		for i := range rk.banks {
			b := &rk.banks[i]
			// Advance the transient-state countdown.
			if b.countdown > 0 {
				b.countdown--
				if b.countdown == 0 {
					switch b.status {
					case bankActivating:
						b.status = bankActive
					case bankPrecharging, bankRefreshing:
						b.status = bankIdle
					}
				}
			}
			switch b.status {
			case bankActivating, bankActive:
				anyActive = true
			case bankRefreshing:
				refreshing = true
			}
		}
		switch {
		case refreshing:
			c.energy.RefreshPJ += perCycle(p.IDD5 - p.IDD2N)
			c.energy.BackgroundPJ += perCycle(p.IDD2N)
		case anyActive:
			c.energy.BackgroundPJ += perCycle(p.IDD3N)
		default:
			c.energy.BackgroundPJ += perCycle(p.IDD2N)
		}
	}
}

// noteActivate integrates the incremental activate/precharge energy for one
// ACT/PRE pair (Micron: (IDD0 - IDD3N) over tRC).
func (c *Controller) noteActivate() {
	p := c.spec.Power
	t := c.spec.Timing
	devices := float64(c.spec.Org.DevicesPerRank)
	if devices == 0 {
		devices = 1
	}
	trcSec := (t.TRAS + t.TRP).Seconds()
	c.energy.ActPrePJ += (p.IDD0 - p.IDD3N) * p.VDD * trcSec * 1e12 * devices / 1000
}

// noteBurst integrates the incremental burst energy for one data transfer.
func (c *Controller) noteBurst(isRead bool) {
	p := c.spec.Power
	t := c.spec.Timing
	devices := float64(c.spec.Org.DevicesPerRank)
	if devices == 0 {
		devices = 1
	}
	sec := t.TBURST.Seconds()
	if isRead {
		c.energy.ReadPJ += (p.IDD4R - p.IDD3N) * p.VDD * sec * 1e12 * devices / 1000
	} else {
		c.energy.WritePJ += (p.IDD4W - p.IDD3N) * p.VDD * sec * 1e12 * devices / 1000
	}
}

// Energy returns the integrated per-cycle energy profile.
func (c *Controller) Energy() EnergyBreakdown { return c.energy }
