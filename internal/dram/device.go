package dram

import "repro/internal/sim"

// Topology is the bank arrangement of one channel as the scheduler needs it:
// which banks share bank-group timing constraints.
type Topology struct {
	// Ranks is the number of ranks sharing the channel busses.
	Ranks int
	// Groups is the number of bank groups per rank; 1 for flat devices.
	Groups int
	// BanksPerGroup is BanksPerRank / Groups.
	BanksPerGroup int
}

// GroupOf maps a bank index within a rank to its bank group. The fixed
// convention is group = bank mod Groups, so consecutive bank indices rotate
// across groups — the mapping the default address decoders already imply for
// consecutive rows.
func (t Topology) GroupOf(bank int) int {
	if t.Groups <= 1 {
		return 0
	}
	return bank % t.Groups
}

// Grouped reports whether bank-group constraints exist at all.
func (t Topology) Grouped() bool { return t.Groups > 1 }

// RefreshKind is a device's native refresh discipline.
type RefreshKind int

// Refresh kinds.
const (
	// RefAllBank refreshes every bank of a rank with one REF (DDR3/DDR4
	// default): the whole rank blacks out for the blackout time.
	RefAllBank RefreshKind = iota
	// RefPerBank refreshes one bank at a time (LPDDR REFpb): only that bank
	// blacks out, for a shortened blackout.
	RefPerBank
	// RefSameBank refreshes the same in-group bank index across every bank
	// group with one REFsb (DDR5): those banks black out for tRFCsb while
	// the rest of the rank keeps serving.
	RefSameBank
)

// String names the kind.
func (k RefreshKind) String() string {
	switch k {
	case RefAllBank:
		return "all-bank"
	case RefPerBank:
		return "per-bank"
	case RefSameBank:
		return "same-bank"
	}
	return "unknown"
}

// MarshalText makes the kind read by name in a checkpoint's configuration
// image, and so in the mismatch message that refuses a resume.
func (k RefreshKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// RefreshSpec is the refresh discipline a device requires, as consumed by the
// controller's refresh episode, the power models' refresh term and the
// protocol checker's refresh-interval referee.
type RefreshSpec struct {
	// Kind is the native discipline.
	Kind RefreshKind
	// Interval is the average interval between refresh commands of the
	// all-bank cadence (tREFI); finer-granularity kinds derive their own
	// cadence from it (per-bank: Interval/banks, same-bank:
	// Interval/BanksPerGroup).
	Interval sim.Tick
	// Blackout is the busy time of one refresh command: tRFC for all-bank,
	// tRFCpb for per-bank, tRFCsb for same-bank.
	Blackout sim.Tick
	// MaxPostponed is how many refresh commands may be postponed under load
	// before the debt must be paid (JEDEC allows 8).
	MaxPostponed int
}

// tRFCpb approximates the per-bank refresh blackout as a fixed fraction of
// tRFC (3/5, the LPDDR3 datasheet ratio). RefreshMode folds it into the
// per-bank Blackout that the controller, the power models and the protocol
// checker all read, so they can never disagree.
const (
	TRFCpbNum = 3
	TRFCpbDen = 5
)

// Standard names the interface family ("DDR3", "DDR4", "DDR5", "LPDDR5",
// ...); hand-built specs that never set one read as "custom".
func (s Spec) Standard() string {
	if s.Family == "" {
		return "custom"
	}
	return s.Family
}

// Topology returns the rank/bank-group arrangement. A zero BankGroups means
// a flat (ungrouped) device.
func (s Spec) Topology() Topology {
	g := s.Org.BankGroups
	if g <= 1 {
		return Topology{Ranks: s.Org.RanksPerChannel, Groups: 1, BanksPerGroup: s.Org.BanksPerRank}
	}
	return Topology{Ranks: s.Org.RanksPerChannel, Groups: g, BanksPerGroup: s.Org.BanksPerRank / g}
}

// RefreshMode returns the native refresh discipline.
func (s Spec) RefreshMode() RefreshSpec {
	rs := RefreshSpec{
		Kind:         s.Refresh,
		Interval:     s.Timing.TREFI,
		Blackout:     s.Timing.TRFC,
		MaxPostponed: 8,
	}
	switch s.Refresh {
	case RefPerBank:
		rs.Blackout = s.Timing.TRFC * TRFCpbNum / TRFCpbDen
	case RefSameBank:
		if s.Timing.TRFCSB > 0 {
			rs.Blackout = s.Timing.TRFCSB
		}
	}
	return rs
}

// ActToAct returns the minimum activate-to-activate spacing between two
// banks: tRRD_L within a group when the device defines it, tRRD otherwise.
func (s Spec) ActToAct(sameGroup bool) sim.Tick {
	if sameGroup && s.Timing.TRRDL > 0 {
		return s.Timing.TRRDL
	}
	return s.Timing.TRRD
}

// ColToCol returns the minimum column-to-column command spacing beyond the
// data-bus occupancy: tCCD_L within a group, tCCD_S across groups; zero (flat
// devices) means the data bus (tBURST) is the only constraint.
func (s Spec) ColToCol(sameGroup bool) sim.Tick {
	if sameGroup {
		return s.Timing.TCCDL
	}
	return s.Timing.TCCDS
}

// PrechargeAll returns the all-bank precharge time: tRPab where defined
// (LPDDR), the per-bank tRP otherwise.
func (s Spec) PrechargeAll() sim.Tick {
	if s.Timing.TRPAB > 0 {
		return s.Timing.TRPAB
	}
	return s.Timing.TRP
}
