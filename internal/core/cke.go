package core

import (
	"repro/internal/power"
	"repro/internal/sim"
)

// Per-rank CKE state machine (extension): the paper lists low-power states as
// future work ("Currently, we do not model the low-power states and
// associated timing constraints", §II-G); this follows Jagtap et al.'s gem5
// integration instead of a channel-wide idle timer. Each rank tracks its own
// CKE: after PowerDownIdle with no queued burst for the rank it lowers CKE —
// precharge power-down (IDD2P) when every bank is closed, active power-down
// (IDD3P) when rows are open — and after SelfRefreshIdle it deepens into
// self-refresh (IDD6), which supersedes power-down and precharges any open
// rows first. Every transition is a first-class command (PDE/PDX/SRE/SRX)
// emitted through the observability hub, so traces show per-rank power-state
// spans and power.CheckTiming can referee tCKE/tXP/tXS independently.

// ckeState is a rank's power state.
type ckeState int

const (
	ckeActive ckeState = iota
	ckePrePD
	ckeActPD
	ckeSelfRefresh
)

// inPowerDown reports either power-down flavor.
func (s ckeState) inPowerDown() bool { return s == ckePrePD || s == ckeActPD }

// rankIdle reports whether no live work targets rank ri. Bursts already
// serviced (responses pending) need no further rank commands, so they do not
// hold the rank awake — that is what makes per-rank power-down useful under
// multi-rank traffic, where one rank sleeps while another serves. Writes
// parked below the drain watermark have no deadline either: they do not pin
// the rank, because service (doDRAMAccess) wakes the rank when the drain
// eventually runs. During an active drain they are live work.
func (c *Controller) rankIdle(ri int) bool {
	if c.readQueue.work[ri] != 0 {
		return false
	}
	for _, dp := range c.pendingReplays {
		if dp.coord.Rank == ri {
			return false
		}
	}
	if c.draining || c.state == busWrite || c.writeQueue.n > c.writeLowMark {
		return c.writeQueue.work[ri] == 0
	}
	return true
}

// lowPowerBlockedUntil returns the tick before which rank ri must keep CKE
// high: booked commands may still be in flight (the event model stamps
// future command times), a refresh blackout may be running, and a fresh
// wake-up must settle for tXP/tXS before CKE may toggle again.
func (c *Controller) lowPowerBlockedUntil(ri int) sim.Tick {
	rk := c.ranks[ri]
	until := max(rk.ckeOKAt, rk.busyUntil)
	for i := 0; i < rk.numBanks(); i++ {
		until = max(until, rk.refreshUntil[i])
	}
	return until
}

// scheduleLowPowerChecks re-arms the idle timers of every idle rank; called
// whenever the controller finishes a piece of work and ranks may have gone
// quiet.
func (c *Controller) scheduleLowPowerChecks() {
	if c.cfg.PowerDownIdle <= 0 && c.cfg.SelfRefreshIdle <= 0 {
		return
	}
	now := c.k.Now()
	for ri, rk := range c.ranks {
		if !c.rankIdle(ri) {
			continue
		}
		// Thresholds anchor at the rank's last demand work, not at this call:
		// a refresh mid-gap wakes the rank but must not restart the idle
		// clock, and a rank already idle past a threshold re-enters at once.
		if c.cfg.PowerDownIdle > 0 && rk.cke == ckeActive {
			c.k.Reschedule(c.pdEvents[ri], max(now, rk.idleSince+c.cfg.PowerDownIdle))
		}
		if c.cfg.SelfRefreshIdle > 0 && rk.cke != ckeSelfRefresh {
			c.k.Reschedule(c.srEvents[ri], max(now, rk.idleSince+c.cfg.SelfRefreshIdle))
		}
	}
}

// openBanksIn counts the rank's open rows, choosing the power-down flavor.
func openBanksIn(rk *rank) int {
	n := 0
	for _, row := range rk.openRow {
		if row != rowClosed {
			n++
		}
	}
	return n
}

// processRankPowerDown fires after PowerDownIdle of rank idleness.
func (c *Controller) processRankPowerDown(ri int) {
	rk := c.ranks[ri]
	if rk.cke != ckeActive || !c.rankIdle(ri) {
		return
	}
	now := c.k.Now()
	if blocked := c.lowPowerBlockedUntil(ri); blocked > now {
		c.k.Reschedule(c.pdEvents[ri], blocked)
		return
	}
	flavor, state := power.PDPrecharge, ckePrePD
	if openBanksIn(rk) > 0 {
		flavor, state = power.PDActive, ckeActPD
	}
	rk.cke = state
	rk.ckeSince = now
	c.st.powerDowns.Inc()
	c.emitCommand(power.CmdPDE, ri, flavor, now)
}

// processRankSelfRefresh fires after SelfRefreshIdle of rank idleness. It
// supersedes a power-down in progress: CKE is raised (respecting the minimum
// low time), tXP paid, open rows precharged, and only then does the rank
// enter self-refresh — so the command stream stays legal for the checker.
func (c *Controller) processRankSelfRefresh(ri int) {
	rk := c.ranks[ri]
	if rk.cke == ckeSelfRefresh || !c.rankIdle(ri) {
		return
	}
	now := c.k.Now()
	if !rk.cke.inPowerDown() {
		if blocked := c.lowPowerBlockedUntil(ri); blocked > now {
			c.k.Reschedule(c.srEvents[ri], blocked)
			return
		}
	}
	earliest := now
	if rk.cke.inPowerDown() {
		exitAt := max(now, rk.ckeSince+c.tim.TCKE)
		c.leavePowerDown(ri, exitAt)
		earliest = exitAt + c.tim.TXP
	}
	// JEDEC: every bank must be precharged at self-refresh entry.
	sreAt := earliest
	for bi := 0; bi < rk.numBanks(); bi++ {
		if rk.openRow[bi] != rowClosed {
			preAt := max(earliest, rk.preAllowedAt[bi])
			c.prechargeBank(ri, rk, bi, preAt)
			sreAt = max(sreAt, preAt+c.tim.TRP)
		}
	}
	rk.cke = ckeSelfRefresh
	rk.ckeSince = sreAt
	c.st.selfRefreshes.Inc()
	c.emitCommand(power.CmdSRE, ri, 0, sreAt)
}

// leavePowerDown closes the power-down interval at exitAt: residency is
// booked per flavor, PDX emitted, and every bank pays tXP before its next
// command.
func (c *Controller) leavePowerDown(ri int, exitAt sim.Tick) {
	rk := c.ranks[ri]
	if d := exitAt - rk.ckeSince; d > 0 {
		if rk.cke == ckeActPD {
			rk.actPDTime += d
		} else {
			rk.prePDTime += d
		}
	}
	c.emitCommand(power.CmdPDX, ri, 0, exitAt)
	rk.raiseCKE(exitAt + c.tim.TXP)
}

// leaveSelfRefresh closes the self-refresh interval at exitAt: SRX emitted,
// banks pay tXS (reads tXSDLL — the DLL must re-lock), and the external
// refresh cadence restarts a full interval out, since the DRAM refreshed
// itself until now.
func (c *Controller) leaveSelfRefresh(ri int, exitAt sim.Tick) {
	rk := c.ranks[ri]
	if d := exitAt - rk.ckeSince; d > 0 {
		rk.srTime += d
	}
	c.emitCommand(power.CmdSRX, ri, 0, exitAt)
	rk.raiseCKE(exitAt + c.tim.TXS)
	rk.rdAllowedAt = max(rk.rdAllowedAt, exitAt+max(c.tim.TXS, c.tim.TXSDLL))
	c.refreshDue[ri] = exitAt + c.tim.TREFI
	c.k.Reschedule(c.refreshEvents[ri], c.refreshDue[ri])
}

// raiseCKE returns the rank to the active state with its exit latency paid:
// no bank takes a command, and CKE may not toggle again, before settled.
func (r *rank) raiseCKE(settled sim.Tick) {
	r.cke = ckeActive
	r.ckeOKAt = settled
	for i := range r.openRow {
		r.actAllowedAt[i] = max(r.actAllowedAt[i], settled)
		r.colAllowedAt[i] = max(r.colAllowedAt[i], settled)
		r.preAllowedAt[i] = max(r.preAllowedAt[i], settled)
	}
}

// wakeRank raises CKE on rank ri if it is in a low-power state, respecting
// the minimum CKE-low times. Simultaneous wake-ups are staggered by one
// clock per rank (Jagtap et al.), bounding the current spike when several
// ranks leave power-down at once. Called wherever a burst for the rank
// enters a queue (cancelling pending idle timers early) and again at the
// service choke point doDRAMAccess, so every stamped command finds its rank
// awake. The scheduler has no power gate: a write parked while its rank slept
// is chosen with CKE low and pays tXP only here (DESIGN §2.3).
func (c *Controller) wakeRank(ri int) {
	rk := c.ranks[ri]
	if c.cfg.PowerDownIdle > 0 && c.pdEvents[ri].Scheduled() {
		c.k.Deschedule(c.pdEvents[ri])
	}
	if c.cfg.SelfRefreshIdle > 0 && c.srEvents[ri].Scheduled() {
		c.k.Deschedule(c.srEvents[ri])
	}
	if rk.cke == ckeActive {
		return
	}
	var exitAt sim.Tick
	now := c.k.Now()
	if rk.cke == ckeSelfRefresh {
		exitAt = max(now, rk.ckeSince+c.tim.TCKESR)
	} else {
		exitAt = max(now, rk.ckeSince+c.tim.TCKE)
	}
	if exitAt <= c.lastWakeAt {
		exitAt = c.lastWakeAt + c.tim.TCK
	}
	c.lastWakeAt = exitAt
	if rk.cke == ckeSelfRefresh {
		c.leaveSelfRefresh(ri, exitAt)
	} else {
		c.leavePowerDown(ri, exitAt)
	}
}

// WakeAllRanks raises CKE on every rank in a low-power state, closing the
// open residency intervals (staggered like any other wake). End-of-run
// reporting uses it so trace power-state spans and the controller's
// residency counters agree exactly.
func (c *Controller) WakeAllRanks() {
	for ri := range c.ranks {
		c.wakeRank(ri)
	}
}

// RankLowPower reports rank ri's current CKE occupancy — powered down
// (either flavor) or in self-refresh — for live metrics and for tests that
// need to stop a run at a known-interesting instant.
func (c *Controller) RankLowPower(ri int) (poweredDown, selfRefresh bool) {
	rk := c.ranks[ri]
	return rk.cke.inPowerDown(), rk.cke == ckeSelfRefresh
}
