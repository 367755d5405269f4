package dram

import (
	"fmt"

	"repro/internal/sim"
)

// Timing holds the modelled DRAM timing constraints. All values are in
// ticks (picoseconds). Rank-to-rank switching, which the paper deliberately
// leaves out, is absent here too; bank-group effects (tRRD_L, tCCD_L/S) are
// modelled for the standards that have them and left zero everywhere else,
// in which case every constraint collapses to its flat pre-DDR4 form.
type Timing struct {
	// TCK is the memory clock period (used by the cycle-based baseline and
	// for quantising stats; the event-based model itself does not tick).
	TCK sim.Tick
	// TRCD is the row-to-column (activate-to-access) delay.
	TRCD sim.Tick
	// TCL is the column access latency; per the paper it stands in for the
	// write timing tWR as well.
	TCL sim.Tick
	// TRP is the row precharge time.
	TRP sim.Tick
	// TRAS is the minimum time a row must stay open after activation.
	TRAS sim.Tick
	// TBURST is the duration of one data burst on the bus; it implicitly
	// models tCCD and the SDR/DDR distinction.
	TBURST sim.Tick
	// TRFC is the duration of a refresh command.
	TRFC sim.Tick
	// TREFI is the average interval between refreshes.
	TREFI sim.Tick
	// TWTR is the write-to-read turnaround within a rank.
	TWTR sim.Tick
	// TRTW is the read-to-write bus turnaround.
	TRTW sim.Tick
	// TRRD is the minimum activate-to-activate delay across banks.
	TRRD sim.Tick
	// TXAW is the rolling window in which at most ActivationLimit activates
	// may be issued (generalised tFAW/tTAW).
	TXAW sim.Tick
	// TRTP is the read-to-precharge delay.
	TRTP sim.Tick
	// TWR is the write recovery time before a precharge may follow a write.
	TWR sim.Tick
	// TXP is the power-down exit latency (extension beyond the paper, which
	// lists low-power states as future work; 0 if never used).
	TXP sim.Tick
	// TXS is the self-refresh exit latency (extension; typically around
	// tRFC plus a margin; 0 if never used).
	TXS sim.Tick
	// TCKE is the minimum time CKE must stay in one state after a
	// power-down entry or exit (extension; 0 if never used).
	TCKE sim.Tick
	// TCKESR is the minimum CKE-low time of a self-refresh interval
	// (extension; JEDEC sets it to tCKE plus one clock).
	TCKESR sim.Tick
	// TXSDLL is the self-refresh exit latency for commands that need the
	// DLL re-locked — reads — while tXS covers the rest (extension; for
	// interfaces without a DLL it equals tXS).
	TXSDLL sim.Tick
	// TRRDL is the activate-to-activate delay between banks of the same
	// bank group (tRRD_L, DDR4 onward); 0 means no distinction and TRRD
	// governs every pair. TRRD then plays the tRRD_S role.
	TRRDL sim.Tick
	// TCCDL is the column-to-column command spacing within one bank group
	// (tCCD_L); 0 means the data bus (TBURST) is the only column spacing.
	TCCDL sim.Tick
	// TCCDS is the column-to-column spacing across bank groups (tCCD_S);
	// usually equal to TBURST, 0 means unconstrained beyond the bus.
	TCCDS sim.Tick
	// TRPAB is the all-bank precharge time (LPDDR tRPab, longer than the
	// per-bank TRP); 0 means precharge-all costs TRP like any precharge.
	TRPAB sim.Tick
	// TRFCSB is the same-bank refresh blackout (DDR5 tRFCsb); 0 unless the
	// device supports REFsb.
	TRFCSB sim.Tick
}

// Organization describes the physical structure of one memory channel as the
// controller sees it.
type Organization struct {
	// BusWidthBits is the channel data bus width (per the paper's Table IV
	// this is the full interface width, e.g. 64 for DDR3, 128 for WideIO).
	BusWidthBits int
	// BurstLength is the number of beats per burst.
	BurstLength int
	// DevicesPerRank is the number of devices ganged on the channel.
	DevicesPerRank int
	// RanksPerChannel is the number of ranks sharing the channel busses.
	RanksPerChannel int
	// BanksPerRank is the number of banks per rank.
	BanksPerRank int
	// BankGroups is the number of bank groups per rank (DDR4 onward);
	// 0 or 1 means a flat bank space with no group timing distinctions.
	// Banks map to groups by bank mod BankGroups (see Topology.GroupOf).
	BankGroups int
	// RowBufferBytes is the row (page) size per bank across the rank.
	RowBufferBytes uint64
	// RowsPerBank is the number of rows in each bank.
	RowsPerBank uint64
	// ActivationLimit is the maximum activates inside a TXAW window; zero
	// disables the window check.
	ActivationLimit int
}

// BurstBytes returns the number of bytes moved by one burst.
func (o Organization) BurstBytes() uint64 {
	return uint64(o.BusWidthBits/8) * uint64(o.BurstLength)
}

// BurstsPerRow returns the number of bursts that fit in one row buffer.
func (o Organization) BurstsPerRow() uint64 { return o.RowBufferBytes / o.BurstBytes() }

// Banks returns the total banks in the channel (across ranks).
func (o Organization) Banks() int { return o.RanksPerChannel * o.BanksPerRank }

// Validate checks structural sanity; every field the controller divides or
// masks by must be a positive power of two where indexing requires it.
func (o Organization) Validate() error {
	switch {
	case o.BusWidthBits <= 0 || o.BusWidthBits%8 != 0:
		return fmt.Errorf("dram: bad bus width %d", o.BusWidthBits)
	case o.BurstLength <= 0:
		return fmt.Errorf("dram: bad burst length %d", o.BurstLength)
	case o.RanksPerChannel <= 0:
		return fmt.Errorf("dram: bad ranks %d", o.RanksPerChannel)
	case o.BanksPerRank <= 0:
		return fmt.Errorf("dram: bad banks %d", o.BanksPerRank)
	case o.RowBufferBytes == 0 || o.RowsPerBank == 0:
		return fmt.Errorf("dram: bad row geometry %d x %d", o.RowBufferBytes, o.RowsPerBank)
	case !isPow2(uint64(o.BanksPerRank)) || !isPow2(uint64(o.RanksPerChannel)):
		return fmt.Errorf("dram: banks (%d) and ranks (%d) must be powers of two", o.BanksPerRank, o.RanksPerChannel)
	case !isPow2(o.RowBufferBytes) || !isPow2(o.BurstBytes()):
		return fmt.Errorf("dram: row buffer (%d) and burst (%d) must be powers of two", o.RowBufferBytes, o.BurstBytes())
	case o.RowBufferBytes%o.BurstBytes() != 0:
		return fmt.Errorf("dram: row buffer %d not a multiple of burst %d", o.RowBufferBytes, o.BurstBytes())
	case o.ActivationLimit < 0:
		return fmt.Errorf("dram: negative activation limit")
	case o.BankGroups < 0:
		return fmt.Errorf("dram: negative bank groups")
	}
	if g := o.BankGroups; g > 1 {
		if !isPow2(uint64(g)) || g > o.BanksPerRank || o.BanksPerRank%g != 0 {
			return fmt.Errorf("dram: bank groups (%d) must be a power of two dividing banks (%d)", g, o.BanksPerRank)
		}
	}
	return nil
}

// Validate checks that every modelled timing is positive where required.
func (t Timing) Validate() error {
	type item struct {
		name string
		v    sim.Tick
	}
	for _, it := range []item{
		{"tCK", t.TCK}, {"tRCD", t.TRCD}, {"tCL", t.TCL}, {"tRP", t.TRP},
		{"tRAS", t.TRAS}, {"tBURST", t.TBURST}, {"tRFC", t.TRFC}, {"tREFI", t.TREFI},
	} {
		if it.v <= 0 {
			return fmt.Errorf("dram: %s must be positive, got %s", it.name, it.v)
		}
	}
	for _, it := range []item{
		{"tWTR", t.TWTR}, {"tRTW", t.TRTW}, {"tRRD", t.TRRD}, {"tXAW", t.TXAW},
		{"tRTP", t.TRTP}, {"tWR", t.TWR}, {"tXP", t.TXP}, {"tXS", t.TXS},
		{"tCKE", t.TCKE}, {"tCKESR", t.TCKESR}, {"tXSDLL", t.TXSDLL},
		{"tRRD_L", t.TRRDL}, {"tCCD_L", t.TCCDL}, {"tCCD_S", t.TCCDS},
		{"tRPab", t.TRPAB}, {"tRFCsb", t.TRFCSB},
	} {
		if it.v < 0 {
			return fmt.Errorf("dram: %s must be non-negative, got %s", it.name, it.v)
		}
	}
	if t.TRAS < t.TRCD {
		return fmt.Errorf("dram: tRAS (%s) < tRCD (%s)", t.TRAS, t.TRCD)
	}
	if t.TRRDL > 0 && t.TRRDL < t.TRRD {
		return fmt.Errorf("dram: tRRD_L (%s) < tRRD_S (%s)", t.TRRDL, t.TRRD)
	}
	if t.TCCDL > 0 && t.TCCDL < t.TCCDS {
		return fmt.Errorf("dram: tCCD_L (%s) < tCCD_S (%s)", t.TCCDL, t.TCCDS)
	}
	if t.TRPAB > 0 && t.TRPAB < t.TRP {
		return fmt.Errorf("dram: tRPab (%s) < tRPpb (%s)", t.TRPAB, t.TRP)
	}
	return nil
}

func isPow2(v uint64) bool { return v != 0 && v&(v-1) == 0 }

// Spec bundles an organisation with its timings and a name, forming a
// complete description of one memory interface generation: the device model
// every controller and the protocol checker consume (see device.go for the
// derived views).
type Spec struct {
	Name string
	// Family names the interface standard ("DDR3", "DDR5", ...); it backs
	// Standard. Empty reads as "custom".
	Family string
	Org    Organization
	Timing Timing
	Power  PowerParams
	// Refresh is the device's native refresh discipline (DDR5 parts refresh
	// same-bank natively); the zero value is the classic all-bank REF.
	Refresh RefreshKind
}

// Validate checks both halves of the spec and the refresh discipline's
// prerequisites.
func (s Spec) Validate() error {
	if err := s.Org.Validate(); err != nil {
		return fmt.Errorf("%s: %w", s.Name, err)
	}
	if err := s.Timing.Validate(); err != nil {
		return fmt.Errorf("%s: %w", s.Name, err)
	}
	switch s.Refresh {
	case RefAllBank, RefPerBank:
	case RefSameBank:
		if s.Org.BankGroups <= 1 {
			return fmt.Errorf("%s: same-bank refresh needs bank groups", s.Name)
		}
		if s.Timing.TRFCSB <= 0 {
			return fmt.Errorf("%s: same-bank refresh needs tRFCsb", s.Name)
		}
	default:
		return fmt.Errorf("%s: unknown refresh kind %d", s.Name, s.Refresh)
	}
	return nil
}

// PeakBandwidth returns the theoretical peak data bandwidth in bytes/second:
// one burst of data every TBURST.
func (s Spec) PeakBandwidth() float64 {
	return float64(s.Org.BurstBytes()) / s.Timing.TBURST.Seconds()
}

// PowerParams carries the Micron-style current/voltage parameters consumed
// by the power model (internal/power). Values are for one device; the power
// model scales by devices per rank and ranks.
type PowerParams struct {
	VDD float64 // supply voltage (V)
	// Currents in mA, named after Micron's IDD taxonomy.
	IDD0  float64 // one bank activate-precharge current
	IDD2N float64 // precharge standby current
	IDD2P float64 // precharge power-down current (extension)
	IDD3N float64 // active standby current
	IDD3P float64 // active power-down current (extension)
	IDD4R float64 // burst read current
	IDD4W float64 // burst write current
	IDD5  float64 // refresh current
	IDD6  float64 // self-refresh current (extension)
}
