package core

import (
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
)

// PowerStats returns the activity snapshot Micron's power model consumes
// (paper §II-G), covering the window since construction or the last stats
// reset; the current all-precharged interval is closed at now, as is any
// rank's open low-power interval (without waking the rank).
func (c *Controller) PowerStats() power.Activity {
	now := c.k.Now()
	preAll := c.prechargeAllTime
	if c.openBankCount == 0 && now > c.allPrechargedSince {
		preAll += now - c.allPrechargedSince
	}
	n := len(c.ranks)
	prePD := make([]sim.Tick, n)
	actPD := make([]sim.Tick, n)
	sr := make([]sim.Tick, n)
	var prePDSum, actPDSum, srSum sim.Tick
	for ri, rk := range c.ranks {
		prePD[ri], actPD[ri], sr[ri] = rk.prePDTime, rk.actPDTime, rk.srTime
		if now > rk.ckeSince {
			switch rk.cke {
			case ckePrePD:
				prePD[ri] += now - rk.ckeSince
			case ckeActPD:
				actPD[ri] += now - rk.ckeSince
			case ckeSelfRefresh:
				sr[ri] += now - rk.ckeSince
			}
		}
		prePDSum += prePD[ri]
		actPDSum += actPD[ri]
		srSum += sr[ri]
	}
	burst := float64(c.org.BurstBytes())
	return power.Activity{
		Elapsed:          now - c.startTick,
		Activations:      uint64(c.st.activations.Value()),
		ReadBursts:       uint64(c.st.bytesRead.Value() / burst),
		WriteBursts:      uint64(c.st.bytesWritten.Value() / burst),
		Refreshes:        uint64(c.st.refreshes.Value()),
		PrechargeAllTime: preAll,
		PowerDownTime:    (prePDSum + actPDSum) / sim.Tick(n),
		ActPowerDownTime: actPDSum / sim.Tick(n),
		SelfRefreshTime:  srSum / sim.Tick(n),
		PrePDTime:        prePD,
		ActPDTime:        actPD,
		SRTime:           sr,
	}
}

// BusUtilisation returns the fraction of elapsed time the data bus carried
// data, the figure-of-merit of the bandwidth sweeps (Figs. 3-5).
func (c *Controller) BusUtilisation() float64 {
	now := c.k.Now()
	if now <= c.startTick {
		return 0
	}
	bursts := (c.st.bytesRead.Value() + c.st.bytesWritten.Value()) / float64(c.org.BurstBytes())
	busy := bursts * float64(c.tim.TBURST)
	return busy / float64(now-c.startTick)
}

// Bandwidth returns the achieved data bandwidth in bytes/second.
func (c *Controller) Bandwidth() float64 {
	now := c.k.Now()
	if now <= c.startTick {
		return 0
	}
	return (c.st.bytesRead.Value() + c.st.bytesWritten.Value()) / (now - c.startTick).Seconds()
}

// RowHitRate returns the fraction of DRAM bursts that hit an open row.
func (c *Controller) RowHitRate() float64 {
	hits := c.st.readRowHits.Value() + c.st.writeRowHits.Value()
	accesses := (c.st.bytesRead.Value() + c.st.bytesWritten.Value()) / float64(c.org.BurstBytes())
	if accesses == 0 {
		return 0
	}
	return hits / accesses
}

// AvgReadLatencyNs returns the mean read memory-access latency in ns
// (including the static frontend/backend latencies).
func (c *Controller) AvgReadLatencyNs() float64 { return c.st.memAccLat.Mean() }

// ObsSample implements obs.SampleSource: an instantaneous snapshot of the
// controller for the periodic time-series sampler.
func (c *Controller) ObsSample() obs.Sample {
	banks := make([]bool, 0, len(c.ranks)*c.org.BanksPerRank)
	pd := make([]bool, 0, len(c.ranks))
	sr := make([]bool, 0, len(c.ranks))
	for _, rk := range c.ranks {
		for i := range rk.openRow {
			banks = append(banks, rk.openRow[i] != rowClosed)
		}
		pd = append(pd, rk.cke.inPowerDown())
		sr = append(sr, rk.cke == ckeSelfRefresh)
	}
	return obs.Sample{
		ReadQueueLen:    c.readQueue.n,
		WriteQueueLen:   c.writeQueue.n,
		BusUtilisation:  c.BusUtilisation(),
		RowHitRate:      c.RowHitRate(),
		BanksOpen:       banks,
		Draining:        c.state == busWrite,
		RankPowerDown:   pd,
		RankSelfRefresh: sr,
		BytesMoved:      c.st.bytesRead.Value() + c.st.bytesWritten.Value(),
	}
}
