package cyclesim

import (
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
)

// ct converts a cycle number to kernel ticks for observability timestamps.
func (c *Controller) ct(cycle int64) sim.Tick { return sim.Tick(cycle) * c.tck }

// tick is the per-cycle evaluation: deliver due responses, issue at most one
// DRAM command on the shared command bus, and re-arm for the next cycle.
// This is the cycle-by-cycle technique the paper's event-based model
// replaces; keeping it genuinely per-cycle is what makes the §III-D
// simulation-speed comparison meaningful.
func (c *Controller) tick() {
	cycle := int64(c.k.Now() / c.tck)
	if cycle == c.lastCycle {
		// Already evaluated this cycle (a request arrived on the same
		// edge); just make sure the clock keeps running.
		c.rearm(cycle)
		return
	}
	c.lastCycle = cycle
	c.st.cyclesTicked.Inc()

	c.maintain()
	c.drainResponses(cycle)
	if !c.refreshWork(cycle) {
		c.scheduleCommand(cycle)
	}
	c.rearm(cycle)
}

// drainResponses sends every response whose ready cycle has passed.
func (c *Controller) drainResponses(cycle int64) {
	for !c.retryResp && len(c.resp) > 0 && c.resp[0].ready <= cycle {
		e := c.resp[0]
		if e.pkt.Cmd.IsRequest() {
			e.pkt.MakeResponse()
		}
		if !c.port.SendTimingResp(e.pkt) {
			c.retryResp = true
			return
		}
		if c.hub != nil {
			c.hub.Emit(obs.ResponseSent{Src: c.name, At: c.k.Now(), Pkt: e.pkt})
		}
		c.resp = c.resp[1:]
	}
}

// refreshWork handles due refreshes; it returns true if refresh used the
// command slot this cycle.
func (c *Controller) refreshWork(cycle int64) bool {
	for ri, rk := range c.ranks {
		if cycle < rk.refreshDue {
			continue
		}
		// Precharge open banks first, one command per cycle.
		for i := range rk.banks {
			b := &rk.banks[i]
			if b.openRow != rowClosed {
				if cycle >= b.nextPre {
					c.prechargeBank(b, ri, i, cycle)
					return true
				}
				return false // wait for the precharge window
			}
		}
		// All closed: wait until precharges complete, then refresh.
		for i := range rk.banks {
			if cycle < rk.banks[i].nextAct {
				return false
			}
		}
		for i := range rk.banks {
			rk.banks[i].nextAct = cycle + c.cycles.tRFC
			rk.banks[i].status = bankRefreshing
			rk.banks[i].countdown = c.cycles.tRFC
		}
		rk.refreshDue += c.cycles.tREFI
		c.st.refreshes.Inc()
		if c.hub != nil {
			at := c.ct(cycle)
			done := c.ct(cycle + c.cycles.tRFC)
			c.hub.Emit(obs.DRAMCommand{Src: c.name, Cmd: power.Command{Kind: power.CmdREF, Rank: ri, At: at}})
			c.hub.Emit(obs.RefreshStart{Src: c.name, At: at, Rank: ri, Bank: -1, Until: done})
		}
		return true
	}
	return false
}

// scheduleCommand issues at most one command: a ready row-hit column access
// (FR-FCFS), otherwise the oldest transaction that can make progress via
// column, activate or precharge.
func (c *Controller) scheduleCommand(cycle int64) {
	if len(c.queue) == 0 {
		return
	}
	limit := len(c.queue)
	if c.cfg.Scheduling == FCFS {
		limit = 1
	}
	// Pass 1: ready row hits (first-ready).
	for i := 0; i < limit; i++ {
		t := c.queue[i]
		rk := c.ranks[t.coord.Rank]
		b := &rk.banks[t.coord.Bank]
		if b.openRow == int64(t.coord.Row) && c.canIssueColumn(rk, b, t, cycle) {
			c.issueColumn(rk, b, t, i, cycle)
			return
		}
	}
	// Pass 2: oldest transaction that can progress.
	for i := 0; i < limit; i++ {
		t := c.queue[i]
		rk := c.ranks[t.coord.Rank]
		b := &rk.banks[t.coord.Bank]
		switch {
		case b.openRow == rowClosed:
			if c.canActivate(rk, b, cycle) {
				c.activateBank(rk, b, t.coord.Rank, t.coord.Bank, int64(t.coord.Row), cycle)
				return
			}
		case b.openRow != int64(t.coord.Row):
			if cycle >= b.nextPre {
				c.prechargeBank(b, t.coord.Rank, t.coord.Bank, cycle)
				return
			}
		}
	}
}

func (c *Controller) canIssueColumn(rk *crank, b *cbank, t *txn, cycle int64) bool {
	if cycle < b.nextCol {
		return false
	}
	if cycle+c.cycles.tCL < c.busFree {
		return false
	}
	if t.isRead {
		return cycle >= rk.nextRd
	}
	return cycle >= rk.nextWr
}

func (c *Controller) canActivate(rk *crank, b *cbank, cycle int64) bool {
	if cycle < b.nextAct || cycle < rk.lastAct+c.cycles.tRRD {
		return false
	}
	limit := c.spec.Org.ActivationLimit
	if limit > 0 && len(rk.actWindow) >= limit {
		oldest := rk.actWindow[len(rk.actWindow)-limit]
		if cycle < oldest+c.cycles.tXAW {
			return false
		}
	}
	return true
}

func (c *Controller) activateBank(rk *crank, b *cbank, rankIdx, bankIdx int, row, cycle int64) {
	if c.hub != nil {
		c.hub.Emit(obs.DRAMCommand{Src: c.name, Cmd: power.Command{Kind: power.CmdACT, Rank: rankIdx, Bank: bankIdx, At: c.ct(cycle)}})
	}
	b.openRow = row
	b.openedFresh = true
	b.status = bankActivating
	b.countdown = c.cycles.tRCD
	c.noteActivate()
	b.nextCol = cycle + c.cycles.tRCD
	if pre := cycle + c.cycles.tRAS; pre > b.nextPre {
		b.nextPre = pre
	}
	rk.lastAct = cycle
	if limit := c.spec.Org.ActivationLimit; limit > 0 {
		rk.actWindow = append(rk.actWindow, cycle)
		if len(rk.actWindow) > limit {
			rk.actWindow = rk.actWindow[len(rk.actWindow)-limit:]
		}
	}
	c.st.activations.Inc()
	if c.openBankCount == 0 {
		if d := cycle - c.allPreSinceCycle; d > 0 {
			c.preAllCycles += d
		}
	}
	c.openBankCount++
}

func (c *Controller) prechargeBank(b *cbank, rankIdx, bankIdx int, cycle int64) {
	if b.openRow == rowClosed {
		return
	}
	if c.hub != nil {
		c.hub.Emit(obs.DRAMCommand{Src: c.name, Cmd: power.Command{Kind: power.CmdPRE, Rank: rankIdx, Bank: bankIdx, At: c.ct(cycle)}})
	}
	b.openRow = rowClosed
	b.status = bankPrecharging
	b.countdown = c.cycles.tRP
	if act := cycle + c.cycles.tRP; act > b.nextAct {
		b.nextAct = act
	}
	c.st.precharges.Inc()
	c.openBankCount--
	if c.openBankCount == 0 {
		c.allPreSinceCycle = cycle + c.cycles.tRP
	}
}

// issueColumn performs the data transfer for queue index i and removes the
// transaction from the queue.
func (c *Controller) issueColumn(rk *crank, b *cbank, t *txn, i int, cycle int64) {
	dataEnd := cycle + c.cycles.tCL + c.cycles.tBURST
	c.busFree = dataEnd
	if c.hub != nil {
		kind := power.CmdWR
		if t.isRead {
			kind = power.CmdRD
		}
		c.hub.Emit(obs.DRAMCommand{Src: c.name, Cmd: power.Command{Kind: kind, Rank: t.coord.Rank, Bank: t.coord.Bank, At: c.ct(cycle)}})
		c.hub.Emit(obs.BurstScheduled{
			Src: c.name, At: c.ct(cycle), Pkt: t.parent.pkt, Read: t.isRead,
			Rank: t.coord.Rank, Bank: t.coord.Bank, Row: t.coord.Row,
			DataEnd: c.ct(dataEnd),
		})
	}

	if b.openedFresh {
		b.openedFresh = false
	} else if t.isRead {
		c.st.readRowHits.Inc()
	} else {
		c.st.writeRowHits.Inc()
	}

	c.noteBurst(t.isRead)
	burstBytes := float64(c.spec.Org.BurstBytes())
	if t.isRead {
		c.st.readBursts.Inc()
		c.st.bytesRead.Add(burstBytes)
		if pre := cycle + c.cycles.tRTP; pre > b.nextPre {
			b.nextPre = pre
		}
		if wr := dataEnd + c.cycles.tRTW; wr > rk.nextWr {
			rk.nextWr = wr
		}
	} else {
		c.st.writeBursts.Inc()
		c.st.bytesWritten.Add(burstBytes)
		if pre := dataEnd + c.cycles.tWR; pre > b.nextPre {
			b.nextPre = pre
		}
		if rd := dataEnd + c.cycles.tWTR; rd > rk.nextRd {
			rk.nextRd = rd
		}
	}

	if c.cfg.Page == ClosedPage {
		// Auto-precharge as soon as the bank's constraints allow.
		pre := b.nextPre
		if c.hub != nil {
			c.hub.Emit(obs.DRAMCommand{Src: c.name, Cmd: power.Command{Kind: power.CmdPRE, Rank: t.coord.Rank, Bank: t.coord.Bank, At: c.ct(pre)}})
		}
		b.openRow = rowClosed
		b.openedFresh = false
		b.status = bankPrecharging
		b.countdown = pre + c.cycles.tRP - cycle
		if act := pre + c.cycles.tRP; act > b.nextAct {
			b.nextAct = act
		}
		c.st.precharges.Inc()
		c.openBankCount--
		if c.openBankCount == 0 {
			c.allPreSinceCycle = pre + c.cycles.tRP
		}
	}

	c.queue = append(c.queue[:i], c.queue[i+1:]...)
	if c.retryReq {
		c.retryReq = false
		c.port.SendReqRetry()
	}

	t.parent.remaining--
	if t.isRead && t.parent.remaining == 0 {
		pkt := t.parent.pkt
		lat := (sim.Tick(dataEnd)*c.tck - pkt.IssueTick).Nanoseconds()
		c.st.memAccLat.Sample(lat)
		c.resp = insertResp(c.resp, respWait{pkt: pkt, ready: dataEnd})
	}
}

// rearm schedules the next cycle: once started the clock ticks every cycle,
// busy or idle, as DRAMSim2's does — the baseline the paper's speedup is
// measured against.
func (c *Controller) rearm(cycle int64) {
	if !c.tickEvent.Scheduled() {
		c.k.Schedule(c.tickEvent, sim.Tick(cycle+1)*c.tck)
	}
}
