package core

import (
	"repro/internal/dram"
	"repro/internal/sim"
)

// rowClosed marks a bank with no open row.
const rowClosed = -1

// rank groups the banks sharing activation-window and turnaround
// constraints. With the single-rank organisations of the paper this is also
// effectively the channel.
//
// Bank state lives in structure-of-arrays layout: FR-FCFS compares every
// queued burst against its bank on every scheduling decision, and that scan
// reads only three of the seven per-bank fields (openRow, refreshUntil,
// colAllowedAt). As parallel slices those three are dense arrays the scan
// walks front to back — three cache lines for an 8-bank rank — instead of
// striding across 64-byte bank structs and dragging the precharge/statistics
// fields through the cache with them. The remaining fields keep the same
// per-bank indexing; only their storage moved.
type rank struct {
	// openRow is each bank's currently open row, or rowClosed.
	openRow []int64
	// actAllowedAt is the earliest tick for a bank's next activate (advanced
	// by precharge completion and refresh).
	actAllowedAt []sim.Tick
	// preAllowedAt is the earliest tick for a bank's next precharge (advanced
	// by tRAS after activate, tRTP after reads, tWR after write data).
	preAllowedAt []sim.Tick
	// colAllowedAt is the earliest tick for a column access (tRCD after the
	// activate that opened the row).
	colAllowedAt []sim.Tick
	// refreshUntil is the end of each bank's current refresh blackout. A row
	// can be logically "open" during the blackout (an access issued while
	// refreshing books its activate for afterwards), and the scheduler must
	// not treat such a row as a ready hit.
	refreshUntil []sim.Tick
	// bytesAccessed accumulates data moved for the open row, feeding the
	// bytes-per-activate statistic.
	bytesAccessed []uint64

	// lastActAt is the most recent activate, enforcing tRRD (tRRD_S on
	// bank-grouped devices, where it spaces any pair of activates).
	lastActAt sim.Tick
	// actGroupAt is the most recent activate per bank group, enforcing
	// tRRD_L; nil on flat devices, which pay no group constraints at all.
	actGroupAt []sim.Tick
	// colGroupAt is the earliest tick for the next column command per bank
	// group (last column command plus tCCD_L); nil on flat devices. Note the
	// convention differs from actGroupAt: column state stores allowed-at
	// like colAllowedAt, activate state stores last-command like lastActAt.
	colGroupAt []sim.Tick
	// colAnyAt is the earliest tick for the next column command anywhere in
	// the rank (last column command plus tCCD_S); unused on flat devices,
	// where the data bus already spaces column commands by tBURST.
	colAnyAt sim.Tick
	// actWindow holds the ticks of the last ActivationLimit activates,
	// enforcing tXAW.
	actWindow []sim.Tick
	// rdAllowedAt is the earliest tick for a read column command, advanced
	// by tWTR after write data and by tXSDLL after a self-refresh exit.
	rdAllowedAt sim.Tick
	// wrAllowedAt is the earliest tick for a write column command, advanced
	// by tRTW after read data.
	wrAllowedAt sim.Tick
	// nextRefreshBank is the set the next refresh command covers: a bank
	// (per-bank), an in-group index (same-bank), always 0 under all-bank.
	nextRefreshBank int

	// Per-rank CKE state machine (extension, see cke.go).
	//
	// cke is the rank's current power state; ckeSince the tick the state was
	// entered (the PDE/SRE command time, which can sit slightly in the
	// future when entry had to wait for precharges). ckeOKAt is the earliest
	// tick CKE may toggle again after a wake — a PDE/SRE is itself a
	// command, so it pays tXP/tXS like any other.
	cke      ckeState
	ckeSince sim.Tick
	ckeOKAt  sim.Tick
	// busyUntil is the latest booked command or data time on the rank. The
	// event model stamps commands into the future, so "queue empty" alone
	// does not mean the bus is quiet — CKE must stay high until then.
	busyUntil sim.Tick
	// idleSince is the end of the rank's last demand work (refresh excluded):
	// the anchor for the power-down/self-refresh idle thresholds, so a
	// refresh waking the rank mid-gap does not restart the idle clock — a
	// self-refresh threshold longer than tREFI could otherwise never fire.
	idleSince sim.Tick
	// prePDTime, actPDTime and srTime accumulate closed residency intervals
	// per state, feeding the IDD2P/IDD3P/IDD6 split of the power model.
	prePDTime sim.Tick
	actPDTime sim.Tick
	srTime    sim.Tick
}

// neverTick is far enough in the past that adding any timing constraint to
// it still predates the simulation start; it marks "has not happened yet".
const neverTick = -sim.Second

func newRank(org dram.Organization, topo dram.Topology) *rank {
	n := org.BanksPerRank
	r := &rank{
		openRow:       make([]int64, n),
		actAllowedAt:  make([]sim.Tick, n),
		preAllowedAt:  make([]sim.Tick, n),
		colAllowedAt:  make([]sim.Tick, n),
		refreshUntil:  make([]sim.Tick, n),
		bytesAccessed: make([]uint64, n),
		lastActAt:     neverTick,
	}
	for i := range r.openRow {
		r.openRow[i] = rowClosed
	}
	if topo.Grouped() {
		r.actGroupAt = make([]sim.Tick, topo.Groups)
		r.colGroupAt = make([]sim.Tick, topo.Groups)
		for g := range r.actGroupAt {
			r.actGroupAt[g] = neverTick
		}
	}
	return r
}

// numBanks returns the number of banks in the rank.
func (r *rank) numBanks() int { return len(r.openRow) }

// earliestActByWindow returns the earliest tick a new activate may issue
// given the tXAW rolling-window constraint.
func (r *rank) earliestActByWindow(limit int, txaw sim.Tick) sim.Tick {
	if limit <= 0 || txaw <= 0 || len(r.actWindow) < limit {
		return 0
	}
	// The oldest of the last `limit` activates gates the next one.
	return r.actWindow[len(r.actWindow)-limit] + txaw
}

// recordAct notes an activate for tRRD/tXAW accounting.
func (r *rank) recordAct(at sim.Tick, limit int) {
	r.lastActAt = at
	if limit <= 0 {
		return
	}
	r.actWindow = append(r.actWindow, at)
	if len(r.actWindow) > limit {
		// Shift down instead of re-slicing: actWindow[n-limit:] would strand
		// the front capacity and make the append above reallocate forever.
		n := copy(r.actWindow, r.actWindow[len(r.actWindow)-limit:])
		r.actWindow = r.actWindow[:n]
	}
}
