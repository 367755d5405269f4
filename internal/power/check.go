package power

import (
	"fmt"
	"sort"

	"repro/internal/dram"
	"repro/internal/sim"
)

// Protocol checking: given a controller's command trace, verify that every
// modelled DRAM timing constraint was respected. This is the independent
// referee for the controller models — the event-based controller computes
// command times analytically, and this checker re-derives the legality of
// each command from the raw trace, the way a DRAM device (or DRAMSim2's
// sanity asserts) would.

// Violation is one detected protocol breach.
type Violation struct {
	Rule string
	Cmd  Command
	// Deficit is how early the command was relative to the constraint.
	Deficit sim.Tick
}

// String renders the violation.
func (v Violation) String() string {
	return fmt.Sprintf("%s violated by %s at %s (%s early) bank %d/%d",
		v.Rule, v.Cmd.Kind, v.Cmd.At, v.Deficit, v.Cmd.Rank, v.Cmd.Bank)
}

// checkerBank is the checker's independent reconstruction of bank state.
type checkerBank struct {
	open       bool
	actAt      sim.Tick
	lastRdCmd  sim.Tick
	lastWrData sim.Tick
	preAt      sim.Tick
	hasPre     bool
	hasRd      bool
	hasWr      bool
	// refUntil is the end of the bank's same-bank refresh blackout (tRFCsb),
	// the one refresh variant whose blackout the trace identifies
	// unambiguously (see the CmdREF comment below for why tRFC is not
	// re-checked).
	refUntil sim.Tick
}

// CheckTiming replays a command trace against the device's constraints and
// returns every violation found (empty = protocol clean). The data bus is
// also checked for overlapping transfers. Bank-grouped devices additionally
// get the tRRD_L, tCCD_L/tCCD_S and tRFCsb referees; devices distinguishing
// all-bank precharge get the tRPab referee.
func CheckTiming(dev dram.Spec, cmds []Command) []Violation {
	t := dev.Timing
	org := dev.Org
	topo := dev.Topology()
	grouped := topo.Grouped()
	trrdL := dev.ActToAct(true)
	tccdL := dev.ColToCol(true)
	tccdS := dev.ColToCol(false)
	tRPab := dev.PrechargeAll()
	refSpec := dev.RefreshMode()
	// Refresh-interval budget: the device's refresh cadence at rank level
	// (tREFI for all-bank, proportionally shorter for the finer-granularity
	// disciplines) times the permitted postponement (JEDEC: up to
	// MaxPostponed refreshes may be deferred, so consecutive refresh points
	// sit at most MaxPostponed+1 cadences apart).
	refCadence := refSpec.Interval
	switch refSpec.Kind {
	case dram.RefPerBank:
		refCadence /= sim.Tick(org.BanksPerRank)
	case dram.RefSameBank:
		refCadence /= sim.Tick(topo.BanksPerGroup)
	}
	refBudget := sim.Tick(refSpec.MaxPostponed+1) * refCadence

	sorted := make([]Command, len(cmds))
	copy(sorted, cmds)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })

	type rankState struct {
		banks      []checkerBank
		lastActAt  sim.Tick
		hasAct     bool
		actWindow  []sim.Tick
		lastWrData sim.Tick
		hasWrData  bool
		lastRdData sim.Tick
		hasRdData  bool
		// Bank-group reconstruction (allowed-at form; zero = unconstrained).
		// Nil slices on flat devices, which pay no group constraints.
		actGroupOKAt []sim.Tick // last same-group ACT + tRRD_L
		colGroupOKAt []sim.Tick // last same-group RD/WR + tCCD_L
		colAnyOKAt   sim.Tick   // last RD/WR anywhere in the rank + tCCD_S
		// Precharge-all reconstruction (LPDDR tRPab): two or more PREs of one
		// rank sharing a tick are a precharge-all batch, and the next REF must
		// keep tRPab from it. (A refresh episode whose precharges end up at
		// different ticks still pays tRPab in the controller; the trace alone
		// cannot tell those PREs from demand precharges, so only the
		// unambiguous same-tick batch is refereed.)
		lastPreAt    sim.Tick
		samePreCount int
		// Independent CKE reconstruction (power-down / self-refresh).
		ckeLow    bool
		ckeMode   CommandKind // CmdPDE or CmdSRE while ckeLow
		ckeLowAt  sim.Tick
		lastPDX   sim.Tick
		hasPDX    bool
		lastSRX   sim.Tick
		hasSRX    bool
		lastRefed sim.Tick // last REF or SRX: the rank was refreshed then
		hasRefed  bool
	}
	ranks := make([]*rankState, org.RanksPerChannel)
	for i := range ranks {
		rk := &rankState{banks: make([]checkerBank, org.BanksPerRank)}
		if grouped {
			rk.actGroupOKAt = make([]sim.Tick, topo.Groups)
			rk.colGroupOKAt = make([]sim.Tick, topo.Groups)
		}
		ranks[i] = rk
	}

	var violations []Violation
	fail := func(rule string, c Command, deficit sim.Tick) {
		violations = append(violations, Violation{Rule: rule, Cmd: c, Deficit: deficit})
	}
	var busFreeAt sim.Tick
	var busBusy bool

	for _, c := range sorted {
		if c.Rank < 0 || c.Rank >= len(ranks) {
			fail("coordinate-range", c, 0)
			continue
		}
		rk := ranks[c.Rank]

		if c.Kind.IsPowerState() {
			// Rank-scoped CKE transitions; Bank carries only the PDE flavor.
			switch c.Kind {
			case CmdPDE, CmdSRE:
				if rk.ckeLow {
					fail("CKE-already-low", c, 0)
					continue
				}
				// An entry is itself a command on the bus: it must respect
				// the exit latency of the previous low-power interval.
				if rk.hasPDX && t.TXP > 0 && c.At < rk.lastPDX+t.TXP {
					fail("tXP", c, rk.lastPDX+t.TXP-c.At)
				}
				if rk.hasSRX && t.TXS > 0 && c.At < rk.lastSRX+t.TXS {
					fail("tXS", c, rk.lastSRX+t.TXS-c.At)
				}
				open := 0
				for i := range rk.banks {
					if rk.banks[i].open {
						open++
					}
				}
				if c.Kind == CmdSRE {
					// JEDEC: all banks must be precharged at self-refresh
					// entry.
					if open > 0 {
						fail("SRE-on-open-bank", c, 0)
					}
				} else {
					// The announced flavor must match reconstructed bank
					// state: precharge power-down with a row open (or the
					// reverse) means the controller billed the wrong IDD.
					flavor := PDPrecharge
					if open > 0 {
						flavor = PDActive
					}
					if c.Bank != flavor {
						fail("PDE-flavor", c, 0)
					}
				}
				rk.ckeLow, rk.ckeMode, rk.ckeLowAt = true, c.Kind, c.At
			case CmdPDX:
				if !rk.ckeLow || rk.ckeMode != CmdPDE {
					fail("PDX-without-PDE", c, 0)
				} else {
					if t.TCKE > 0 && c.At < rk.ckeLowAt+t.TCKE {
						fail("tCKE", c, rk.ckeLowAt+t.TCKE-c.At)
					}
					rk.ckeLow = false
				}
				rk.lastPDX, rk.hasPDX = c.At, true
			case CmdSRX:
				if !rk.ckeLow || rk.ckeMode != CmdSRE {
					fail("SRX-without-SRE", c, 0)
				} else {
					if t.TCKESR > 0 && c.At < rk.ckeLowAt+t.TCKESR {
						fail("tCKESR", c, rk.ckeLowAt+t.TCKESR-c.At)
					}
					rk.ckeLow = false
				}
				rk.lastSRX, rk.hasSRX = c.At, true
				// The DRAM refreshed itself while in self-refresh; the
				// external refresh clock restarts here.
				rk.lastRefed, rk.hasRefed = c.At, true
			}
			continue
		}

		if c.Bank < 0 || c.Bank >= org.BanksPerRank {
			fail("coordinate-range", c, 0)
			continue
		}
		// CKE gates: nothing may issue to a rank while its CKE is low, and
		// the first commands after a wake pay the exit latencies (tXP after
		// PDX; tXS after SRX, tXSDLL for reads, which need the DLL back).
		if rk.ckeLow {
			fail("command-while-CKE-low", c, 0)
		}
		if rk.hasPDX && t.TXP > 0 && c.At < rk.lastPDX+t.TXP {
			fail("tXP", c, rk.lastPDX+t.TXP-c.At)
		}
		if rk.hasSRX {
			need, rule := t.TXS, "tXS"
			if c.Kind == CmdRD && t.TXSDLL > need {
				need, rule = t.TXSDLL, "tXSDLL"
			}
			if need > 0 && c.At < rk.lastSRX+need {
				fail(rule, c, rk.lastSRX+need-c.At)
			}
		}
		b := &rk.banks[c.Bank]
		switch c.Kind {
		case CmdACT:
			if b.open {
				fail("ACT-on-open-bank", c, 0)
			}
			if b.hasPre && c.At < b.preAt+t.TRP {
				fail("tRP", c, b.preAt+t.TRP-c.At)
			}
			if c.At < b.refUntil {
				fail("tRFCsb", c, b.refUntil-c.At)
			}
			if rk.hasAct && c.At < rk.lastActAt+t.TRRD {
				fail("tRRD", c, rk.lastActAt+t.TRRD-c.At)
			}
			if grouped {
				g := topo.GroupOf(c.Bank)
				if trrdL > t.TRRD && c.At < rk.actGroupOKAt[g] {
					fail("tRRD_L", c, rk.actGroupOKAt[g]-c.At)
				}
				if next := c.At + trrdL; next > rk.actGroupOKAt[g] {
					rk.actGroupOKAt[g] = next
				}
			}
			if limit := org.ActivationLimit; limit > 0 {
				if t.TXAW > 0 && len(rk.actWindow) >= limit {
					oldest := rk.actWindow[len(rk.actWindow)-limit]
					if c.At < oldest+t.TXAW {
						fail("tXAW", c, oldest+t.TXAW-c.At)
					}
				}
				// Keep exactly the window the limit needs: a fixed cap would
				// silently disable tXAW on devices allowing more than that
				// many activates per window.
				rk.actWindow = append(rk.actWindow, c.At)
				if len(rk.actWindow) > limit {
					rk.actWindow = rk.actWindow[len(rk.actWindow)-limit:]
				}
			}
			b.open = true
			b.actAt = c.At
			rk.lastActAt = c.At
			rk.hasAct = true
		case CmdPRE:
			if !b.open {
				// Precharging a closed bank is legal (NOP-like) but the
				// models never do it; flag it as suspicious.
				fail("PRE-on-closed-bank", c, 0)
				continue
			}
			if c.At < b.actAt+t.TRAS {
				fail("tRAS", c, b.actAt+t.TRAS-c.At)
			}
			if b.hasRd && c.At < b.lastRdCmd+t.TRTP {
				fail("tRTP", c, b.lastRdCmd+t.TRTP-c.At)
			}
			if b.hasWr && c.At < b.lastWrData+t.TWR {
				fail("tWR", c, b.lastWrData+t.TWR-c.At)
			}
			b.open = false
			b.hasPre = true
			b.preAt = c.At
			if c.At == rk.lastPreAt && rk.samePreCount > 0 {
				rk.samePreCount++
			} else {
				rk.lastPreAt, rk.samePreCount = c.At, 1
			}
		case CmdRD, CmdWR:
			if !b.open {
				fail("column-on-closed-bank", c, 0)
				continue
			}
			if c.At < b.actAt+t.TRCD {
				fail("tRCD", c, b.actAt+t.TRCD-c.At)
			}
			if grouped {
				g := topo.GroupOf(c.Bank)
				if tccdL > 0 && c.At < rk.colGroupOKAt[g] {
					fail("tCCD_L", c, rk.colGroupOKAt[g]-c.At)
				}
				if tccdS > 0 && c.At < rk.colAnyOKAt {
					fail("tCCD_S", c, rk.colAnyOKAt-c.At)
				}
				if next := c.At + tccdL; next > rk.colGroupOKAt[g] {
					rk.colGroupOKAt[g] = next
				}
				if next := c.At + tccdS; next > rk.colAnyOKAt {
					rk.colAnyOKAt = next
				}
			}
			dataStart := c.At + t.TCL
			dataEnd := dataStart + t.TBURST
			if busBusy && dataStart < busFreeAt {
				fail("data-bus-overlap", c, busFreeAt-dataStart)
			}
			if dataEnd > busFreeAt {
				busFreeAt = dataEnd
			}
			busBusy = true
			if c.Kind == CmdRD {
				if rk.hasWrData && c.At < rk.lastWrData+t.TWTR {
					fail("tWTR", c, rk.lastWrData+t.TWTR-c.At)
				}
				b.hasRd = true
				b.lastRdCmd = c.At
				rk.hasRdData = true
				if dataEnd > rk.lastRdData {
					rk.lastRdData = dataEnd
				}
			} else {
				if rk.hasRdData && c.At < rk.lastRdData+t.TRTW {
					fail("tRTW", c, rk.lastRdData+t.TRTW-c.At)
				}
				b.hasWr = true
				if dataEnd > b.lastWrData {
					b.lastWrData = dataEnd
				}
				rk.hasWrData = true
				if dataEnd > rk.lastWrData {
					rk.lastWrData = dataEnd
				}
			}
		case CmdREF:
			// The refreshed bank must be precharged by refresh start. (For
			// the paper's all-bank refresh the controller precharges every
			// bank first, so their PRE commands precede the REF in the
			// trace; per-bank refresh addresses a single bank. Post-refresh
			// tRFC spacing is enforced by the controller's actAllowedAt and
			// not re-checked here, since the trace does not say which
			// refresh variant — and hence which tRFC — applies.)
			if rk.banks[c.Bank].open {
				fail("REF-on-open-bank", c, 0)
				rk.banks[c.Bank].open = false
			}
			// An all-bank refresh right after a same-tick precharge-all batch
			// must keep the longer tRPab on devices that distinguish it. A
			// per-bank refresh closes only its own bank, with a per-bank
			// precharge; same-tick PREs of other banks are then demand
			// traffic, not its precharge-all, so the rule needs a device
			// that declares the all-bank discipline.
			if refSpec.Kind == dram.RefAllBank && tRPab > t.TRP && rk.samePreCount >= 2 && c.At < rk.lastPreAt+tRPab {
				fail("tRPab", c, rk.lastPreAt+tRPab-c.At)
			}
			// Refresh-interval accounting across self-refresh: JEDEC allows
			// postponing at most MaxPostponed refreshes, so consecutive
			// refresh points (REF/REFSB commands, or SRX — the device
			// refreshed itself until then) must be no more than
			// (MaxPostponed+1) cadences apart, where the cadence is the
			// device discipline's rank-level refresh period. Deficit here is
			// how *late* the refresh came.
			if rk.hasRefed && refBudget > 0 && c.At > rk.lastRefed+refBudget {
				fail("refresh-interval", c, c.At-(rk.lastRefed+refBudget))
			}
			rk.lastRefed, rk.hasRefed = c.At, true
		case CmdREFSB:
			// Same-bank refresh: Bank carries the in-group index s, and the
			// refreshed set — flat banks [s*G, (s+1)*G) under the bank-mod-G
			// group convention — must be precharged by refresh start and then
			// stays blacked out for tRFCsb.
			if !grouped {
				fail("REFSB-without-bank-groups", c, 0)
				continue
			}
			if c.Bank >= topo.BanksPerGroup {
				fail("coordinate-range", c, 0)
				continue
			}
			for bi := c.Bank * topo.Groups; bi < (c.Bank+1)*topo.Groups; bi++ {
				sb := &rk.banks[bi]
				if sb.open {
					fail("REFSB-on-open-bank", c, 0)
					sb.open = false
				}
				if until := c.At + refSpec.Blackout; until > sb.refUntil {
					sb.refUntil = until
				}
			}
			if rk.hasRefed && refBudget > 0 && c.At > rk.lastRefed+refBudget {
				fail("refresh-interval", c, c.At-(rk.lastRefed+refBudget))
			}
			rk.lastRefed, rk.hasRefed = c.At, true
		}
	}
	return violations
}
