package power

import (
	"fmt"
	"sort"

	"repro/internal/dram"
	"repro/internal/sim"
)

// Command-trace power analysis, in the style of DRAMPower: instead of
// aggregate counters, the controller emits its actual command stream
// (ACT/PRE/RD/WR/REF with timestamps) and the analyzer reconstructs bank
// state over time to integrate energy. The paper points at exactly this
// extension: "can be further extended to plug in other models like
// DRAMPower" (§III-E).

// CommandKind identifies a DRAM command.
type CommandKind int

// DRAM commands.
const (
	CmdACT CommandKind = iota
	CmdPRE
	CmdRD
	CmdWR
	CmdREF
	// Power-state transitions (extension): CKE-low entries and exits of the
	// per-rank power-down / self-refresh state machine. These are
	// rank-scoped; Bank is unused except on CmdPDE, where it carries the
	// power-down flavor (PDPrecharge or PDActive).
	CmdPDE
	CmdPDX
	CmdSRE
	CmdSRX
	// CmdREFSB is DDR5 same-bank refresh (extension): one REFsb command
	// refreshes the bank with in-group index s in every bank group of the
	// rank at once, blacking them out for tRFCsb while the other in-group
	// indices keep serving. Bank carries s, not a flat bank number.
	CmdREFSB
)

// Power-down flavors, carried in CmdPDE's Bank field.
const (
	PDPrecharge = 0 // all banks precharged: deepest power-down (IDD2P)
	PDActive    = 1 // rows left open: active power-down (IDD3P)
)

// IsPowerState reports whether k is a rank-scoped power-state transition.
func (k CommandKind) IsPowerState() bool {
	return k == CmdPDE || k == CmdPDX || k == CmdSRE || k == CmdSRX
}

// String names the command.
func (k CommandKind) String() string {
	switch k {
	case CmdACT:
		return "ACT"
	case CmdPRE:
		return "PRE"
	case CmdRD:
		return "RD"
	case CmdWR:
		return "WR"
	case CmdREF:
		return "REF"
	case CmdPDE:
		return "PDE"
	case CmdPDX:
		return "PDX"
	case CmdSRE:
		return "SRE"
	case CmdSRX:
		return "SRX"
	case CmdREFSB:
		return "REFSB"
	}
	return fmt.Sprintf("CommandKind(%d)", int(k))
}

// Command is one timestamped DRAM command.
type Command struct {
	Kind CommandKind
	Rank int
	Bank int
	At   sim.Tick
}

// CommandTrace accumulates commands from a controller's listener hook.
type CommandTrace struct {
	cmds []Command
}

// Record appends a command (usable directly as a core.Config listener).
func (t *CommandTrace) Record(c Command) { t.cmds = append(t.cmds, c) }

// Len returns the number of recorded commands.
func (t *CommandTrace) Len() int { return len(t.cmds) }

// Commands returns a copy of the trace in recording order.
func (t *CommandTrace) Commands() []Command {
	out := make([]Command, len(t.cmds))
	copy(out, t.cmds)
	return out
}

// Reset clears the trace.
func (t *CommandTrace) Reset() { t.cmds = t.cmds[:0] }

// bankKey identifies one bank of one rank in the open-bank reconstruction.
type bankKey struct{ rank, bank int }

// sortedOpenBanks returns the open-bank keys in (rank, bank) order, so the
// close sweeps below process banks deterministically.
func sortedOpenBanks(openSince map[bankKey]sim.Tick) []bankKey {
	keys := make([]bankKey, 0, len(openSince))
	for k := range openSince {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].rank != keys[j].rank {
			return keys[i].rank < keys[j].rank
		}
		return keys[i].bank < keys[j].bank
	})
	return keys
}

// AnalyzeCommands reconstructs per-bank state from a command trace and
// integrates the Micron currents over it, returning the power breakdown for
// the window [0, elapsed). Commands may arrive slightly out of timestamp
// order (the event-based controller stamps future command times); they are
// sorted first.
func AnalyzeCommands(spec dram.Spec, cmds []Command, elapsed sim.Tick) Breakdown {
	if elapsed <= 0 {
		return Breakdown{}
	}
	p := spec.Power
	t := spec.Timing
	devices := float64(spec.Org.DevicesPerRank)
	if devices == 0 {
		devices = 1
	}

	sorted := make([]Command, len(cmds))
	copy(sorted, cmds)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })

	// Reconstruct, per rank, the time during which at least one bank is
	// active: ACT opens a bank, PRE closes it tRP later (the bank is still
	// drawing active current while precharging). CKE-low intervals (PDE/PDX,
	// SRE/SRX) are tracked separately and pause the active clock, so the
	// IDD3N, IDD3P, IDD2P and IDD6 windows stay disjoint.
	openSince := map[bankKey]sim.Tick{}
	openCount := map[int]int{}
	activeSince := map[int]sim.Tick{}
	ckeLowAt := map[int]sim.Tick{}
	ckeKind := map[int]CommandKind{}
	pdFlavor := map[int]int{}
	var activeTime, prePDTime, actPDTime, srTime sim.Tick
	acts, rds, wrs, refs, refsb := 0, 0, 0, 0, 0

	closeBank := func(k bankKey, at sim.Tick) {
		if _, open := openSince[k]; !open {
			return
		}
		delete(openSince, k)
		openCount[k.rank]--
		if openCount[k.rank] == 0 {
			d := at - activeSince[k.rank]
			if d > 0 {
				activeTime += d
			}
		}
	}

	for _, c := range sorted {
		switch c.Kind {
		case CmdACT:
			acts++
			k := bankKey{c.Rank, c.Bank}
			if _, open := openSince[k]; !open {
				openSince[k] = c.At
				if openCount[c.Rank] == 0 {
					activeSince[c.Rank] = c.At
				}
				openCount[c.Rank]++
			}
		case CmdPRE:
			closeBank(bankKey{c.Rank, c.Bank}, c.At+t.TRP)
		case CmdRD:
			rds++
		case CmdWR:
			wrs++
		case CmdREF:
			refs++
			// A refresh implies all banks of the rank are closed. Close in
			// sorted key order: the report this feeds must be byte-identical
			// across runs, and map order is not.
			for _, k := range sortedOpenBanks(openSince) {
				if k.rank == c.Rank {
					closeBank(k, c.At)
				}
			}
		case CmdREFSB:
			refsb++
			// Same-bank refresh closes only the banks with in-group index
			// c.Bank — flat banks [s*G, (s+1)*G) under the bank%G group
			// convention; the other in-group indices keep serving.
			groups := spec.Topology().Groups
			lo, hi := c.Bank*groups, (c.Bank+1)*groups
			for _, k := range sortedOpenBanks(openSince) {
				if k.rank == c.Rank && k.bank >= lo && k.bank < hi {
					closeBank(k, c.At)
				}
			}
		case CmdPDE, CmdSRE:
			ckeLowAt[c.Rank] = c.At
			ckeKind[c.Rank] = c.Kind
			pdFlavor[c.Rank] = c.Bank
			if openCount[c.Rank] > 0 {
				// Active power-down: the open rows stop drawing IDD3N. Parking
				// the resume point at the window end makes a close sweep that
				// lands mid-power-down contribute nothing.
				if d := c.At - activeSince[c.Rank]; d > 0 {
					activeTime += d
				}
				activeSince[c.Rank] = elapsed
			}
		case CmdPDX, CmdSRX:
			if at, low := ckeLowAt[c.Rank]; low {
				d := c.At - at
				if d < 0 {
					d = 0
				}
				switch {
				case ckeKind[c.Rank] == CmdSRE:
					srTime += d
				case pdFlavor[c.Rank] == PDActive:
					actPDTime += d
				default:
					prePDTime += d
				}
				delete(ckeLowAt, c.Rank)
			}
			if openCount[c.Rank] > 0 {
				activeSince[c.Rank] = c.At
			}
		}
	}
	// Close any still-open banks at the window end, again in sorted order;
	// CKE-low ranks close in rank order for the same determinism reason.
	for _, k := range sortedOpenBanks(openSince) {
		closeBank(k, elapsed)
	}
	for r := 0; r < spec.Org.RanksPerChannel; r++ {
		at, low := ckeLowAt[r]
		if !low {
			continue
		}
		d := elapsed - at
		if d < 0 {
			d = 0
		}
		switch {
		case ckeKind[r] == CmdSRE:
			srTime += d
		case pdFlavor[r] == PDActive:
			actPDTime += d
		default:
			prePDTime += d
		}
	}

	elapsedSec := elapsed.Seconds()
	// Background current per state: IDD6 in self-refresh, IDD2P/IDD3P in
	// precharge/active power-down, IDD3N with a bank active, IDD2N otherwise.
	// The windows are disjoint by construction; the clamps only guard
	// against degenerate traces.
	frac := func(t sim.Tick) float64 {
		f := float64(t) / float64(elapsed)
		if f > 1 {
			f = 1
		}
		return f
	}
	fSR, fPDpre, fPDact, fAct := frac(srTime), frac(prePDTime), frac(actPDTime), frac(activeTime)
	rest := 1 - fSR - fPDpre - fPDact - fAct
	if rest < 0 {
		rest = 0
	}
	bg := p.VDD * (p.IDD6*fSR + p.IDD2P*fPDpre + p.IDD3P*fPDact +
		p.IDD3N*fAct + p.IDD2N*rest)

	// Same saturation as Compute: with many banks pipelining their row
	// cycles (closed-page stride traffic), acts*tRC can exceed the elapsed
	// window; the incremental-over-background charge caps at full-time.
	trc := (t.TRAS + t.TRP).Seconds()
	actShare := float64(acts) * trc / elapsedSec
	if actShare > 1 {
		actShare = 1
	}
	// A REF bills the blackout of the device's discipline (tRFC all-bank,
	// tRFCpb per-bank), a REFSB its tRFCsb; both feed the one IDD5 refresh
	// term, exactly as Compute bills them.
	refShare := (float64(refs)*spec.RefreshMode().Blackout.Seconds() + float64(refsb)*t.TRFCSB.Seconds()) / elapsedSec
	if refShare > 1 {
		refShare = 1
	}
	actPre := p.VDD * (p.IDD0 - p.IDD3N) * actShare
	rd := p.VDD * (p.IDD4R - p.IDD3N) * float64(rds) * t.TBURST.Seconds() / elapsedSec
	wr := p.VDD * (p.IDD4W - p.IDD3N) * float64(wrs) * t.TBURST.Seconds() / elapsedSec
	ref := p.VDD * (p.IDD5 - p.IDD3N) * refShare
	for _, v := range []*float64{&actPre, &rd, &wr, &ref} {
		if *v < 0 {
			*v = 0
		}
	}

	return Breakdown{
		BackgroundMW: bg * devices,
		ActPreMW:     actPre * devices,
		ReadMW:       rd * devices,
		WriteMW:      wr * devices,
		RefreshMW:    ref * devices,
	}
}
