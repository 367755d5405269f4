package dram

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
)

// Mapping selects how a physical address decodes into channel, rank, bank,
// row and column (paper Table I). Names read most-significant first, so
// RoRaBaCoCh places the channel bits lowest (cache-line interleaving) and
// the row bits highest.
type Mapping int

// Address mapping schemes.
const (
	// RoRaBaCoCh: row, rank, bank, column, channel. Channel interleaving at
	// burst granularity; sequential addresses walk the columns of one row,
	// maximising page hits (used with open-page policies in the paper).
	RoRaBaCoCh Mapping = iota
	// RoRaBaChCo: row, rank, bank, channel, column. Channel interleaving at
	// row-buffer granularity.
	RoRaBaChCo
	// RoCoRaBaCh: row, column, rank, bank, channel. Sequential addresses
	// walk banks first, maximising bank parallelism (used with closed-page
	// policies in the paper).
	RoCoRaBaCh
)

// String names the mapping.
func (m Mapping) String() string {
	switch m {
	case RoRaBaCoCh:
		return "RoRaBaCoCh"
	case RoRaBaChCo:
		return "RoRaBaChCo"
	case RoCoRaBaCh:
		return "RoCoRaBaCh"
	}
	return fmt.Sprintf("Mapping(%d)", int(m))
}

// MarshalText makes the mapping read by name in a checkpoint's configuration
// image, and so in the mismatch message that refuses a resume.
func (m Mapping) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// ParseMapping converts a scheme name into a Mapping.
func ParseMapping(s string) (Mapping, error) {
	switch s {
	case "RoRaBaCoCh":
		return RoRaBaCoCh, nil
	case "RoRaBaChCo":
		return RoRaBaChCo, nil
	case "RoCoRaBaCh":
		return RoCoRaBaCh, nil
	}
	return 0, fmt.Errorf("dram: unknown address mapping %q", s)
}

// Coord is a decoded DRAM coordinate.
type Coord struct {
	Rank int
	Bank int
	Row  uint64
	// Col is the burst-granular column index within the row.
	Col uint64
}

// Decoder maps physical addresses to DRAM coordinates for one controller.
// Channels is the number of interleaved channels in the system (the
// controller strips the channel bits; channel *selection* happens in the
// crossbar, as in the paper's Figure 1 arrangement). Build one with
// NewDecoder: it lays the address fields out once, and the zero value
// decodes nothing.
type Decoder struct {
	Org      Organization
	Mapping  Mapping
	Channels int
	// XORBankRow, when set, XORs the bank index with the low row bits — the
	// classic bank-hashing trick (gem5's xor-based interleaving) that
	// spreads pathological same-bank strides across all banks.
	XORBankRow bool

	// The address layout, fixed by NewDecoder. Burst size, columns per row,
	// banks, ranks and channels are all powers of two (Organization.Validate,
	// NewDecoder), so every field is a shift and a mask: burstShift drops the
	// byte offset within a burst, the other shifts place a field within the
	// burst index, and a mask is the field's size minus one. The row takes
	// the bits above rowShift.
	burstShift                                          uint8
	chanShift, colShift, bankShift, rankShift, rowShift uint8
	chanMask, colMask, bankMask, rankMask               uint64
}

// NewDecoder validates and builds a decoder.
func NewDecoder(org Organization, mapping Mapping, channels int) (Decoder, error) {
	if err := org.Validate(); err != nil {
		return Decoder{}, err
	}
	if channels <= 0 || !isPow2(uint64(channels)) {
		return Decoder{}, fmt.Errorf("dram: channels must be a positive power of two, got %d", channels)
	}
	d := Decoder{
		Org: org, Mapping: mapping, Channels: channels,
		burstShift: log2(org.BurstBytes()),
		chanMask:   uint64(channels) - 1,
		colMask:    org.BurstsPerRow() - 1,
		bankMask:   uint64(org.BanksPerRank) - 1,
		rankMask:   uint64(org.RanksPerChannel) - 1,
	}
	// Fields from the burst offset upwards, in the mapping's order (its name
	// reads most-significant first).
	type field struct {
		shift *uint8
		mask  uint64
	}
	ch, co := field{&d.chanShift, d.chanMask}, field{&d.colShift, d.colMask}
	ba, ra := field{&d.bankShift, d.bankMask}, field{&d.rankShift, d.rankMask}
	var order [4]field
	switch mapping {
	case RoRaBaCoCh:
		order = [4]field{ch, co, ba, ra}
	case RoRaBaChCo:
		order = [4]field{co, ch, ba, ra}
	case RoCoRaBaCh:
		order = [4]field{ch, ba, ra, co}
	default:
		return Decoder{}, fmt.Errorf("dram: unknown address mapping %d", int(mapping))
	}
	pos := uint8(0)
	for _, f := range order {
		*f.shift = pos
		pos += log2(f.mask + 1)
	}
	d.rowShift = pos
	return d, nil
}

// log2 returns the exponent of a power of two.
func log2(n uint64) uint8 { return uint8(bits.TrailingZeros64(n)) }

// InterleaveBytes returns the channel-interleaving granularity implied by
// the mapping: burst size for the *Ch-low schemes, row-buffer size for
// RoRaBaChCo.
func (d *Decoder) InterleaveBytes() uint64 {
	if d.Mapping == RoRaBaChCo {
		return d.Org.RowBufferBytes
	}
	return d.Org.BurstBytes()
}

// Channel returns which channel an address belongs to.
func (d *Decoder) Channel(a mem.Addr) int {
	return int(uint64(a) >> d.burstShift >> d.chanShift & d.chanMask)
}

// Decode splits an address into its DRAM coordinate. The address is the full
// system address; channel bits are stripped according to the mapping, and
// rows beyond the device's capacity wrap.
func (d *Decoder) Decode(a mem.Addr) Coord {
	addr := uint64(a) >> d.burstShift
	c := Coord{
		Rank: int(addr >> d.rankShift & d.rankMask),
		Bank: int(addr >> d.bankShift & d.bankMask),
		Row:  addr >> d.rowShift,
		Col:  addr >> d.colShift & d.colMask,
	}
	if c.Row >= d.Org.RowsPerBank {
		c.Row %= d.Org.RowsPerBank
	}
	if d.XORBankRow {
		c.Bank ^= int(c.Row & d.bankMask)
	}
	return c
}

// Encode is the inverse of Decode — it reconstructs the physical address of
// an in-range coordinate on the given channel. The DRAM-aware traffic
// generator uses it to target specific rows and banks (§III-A).
func (d *Decoder) Encode(c Coord, channel int) mem.Addr {
	if d.XORBankRow {
		// Invert the decode-side hash so Decode(Encode(c)) == c.
		c.Bank ^= int(c.Row & d.bankMask)
	}
	addr := c.Row<<d.rowShift | uint64(c.Rank)<<d.rankShift | uint64(c.Bank)<<d.bankShift |
		c.Col<<d.colShift | uint64(channel)<<d.chanShift
	return mem.Addr(addr << d.burstShift)
}
