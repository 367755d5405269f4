package cyclesim

import (
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
)

// ObsSample implements obs.SampleSource: an instantaneous snapshot of the
// controller for the periodic time-series sampler. The unified transaction
// queue reports reads and writes separately so probes see the same shape as
// the event-based model.
func (c *Controller) ObsSample() obs.Sample {
	reads, writes := 0, 0
	for _, t := range c.queue {
		if t.isRead {
			reads++
		} else {
			writes++
		}
	}
	banks := make([]bool, 0, len(c.ranks)*c.spec.Org.BanksPerRank)
	for _, rk := range c.ranks {
		for i := range rk.banks {
			banks = append(banks, rk.banks[i].openRow != rowClosed)
		}
	}
	return obs.Sample{
		ReadQueueLen:   reads,
		WriteQueueLen:  writes,
		BusUtilisation: c.BusUtilisation(),
		RowHitRate:     c.RowHitRate(),
		BanksOpen:      banks,
		BytesMoved:     c.st.bytesRead.Value() + c.st.bytesWritten.Value(),
	}
}

// PowerStats returns the Micron-model activity snapshot, mirroring the
// event-based controller's method so the §III-C3 power comparison runs the
// same equations over both models.
func (c *Controller) PowerStats() power.Activity {
	cycle := c.cycleNow()
	preAll := c.preAllCycles
	if c.openBankCount == 0 && cycle > c.allPreSinceCycle {
		preAll += cycle - c.allPreSinceCycle
	}
	return power.Activity{
		Elapsed:          c.k.Now(),
		Activations:      uint64(c.st.activations.Value()),
		ReadBursts:       uint64(c.st.readBursts.Value()),
		WriteBursts:      uint64(c.st.writeBursts.Value()),
		Refreshes:        uint64(c.st.refreshes.Value()),
		PrechargeAllTime: sim.Tick(preAll) * c.tck,
	}
}

// BusUtilisation returns the fraction of elapsed time the data bus carried
// data.
func (c *Controller) BusUtilisation() float64 {
	now := c.k.Now()
	if now <= 0 {
		return 0
	}
	bursts := c.st.readBursts.Value() + c.st.writeBursts.Value()
	busy := bursts * float64(c.spec.Timing.TBURST)
	return busy / float64(now)
}

// Bandwidth returns the achieved data bandwidth in bytes/second.
func (c *Controller) Bandwidth() float64 {
	now := c.k.Now()
	if now <= 0 {
		return 0
	}
	return (c.st.bytesRead.Value() + c.st.bytesWritten.Value()) / now.Seconds()
}

// RowHitRate returns the fraction of bursts that hit an open row.
func (c *Controller) RowHitRate() float64 {
	hits := c.st.readRowHits.Value() + c.st.writeRowHits.Value()
	total := c.st.readBursts.Value() + c.st.writeBursts.Value()
	if total == 0 {
		return 0
	}
	return hits / total
}

// AvgReadLatencyNs returns the mean read access latency in ns.
func (c *Controller) AvgReadLatencyNs() float64 { return c.st.memAccLat.Mean() }

// CyclesTicked returns the number of memory cycles the model evaluated — the
// work metric that separates cycle-based from event-based simulation.
func (c *Controller) CyclesTicked() uint64 { return uint64(c.st.cyclesTicked.Value()) }
