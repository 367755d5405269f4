package trafficgen

import (
	"fmt"
	"math/rand"

	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Linear produces a sequential, wrapping address stream in [Start, End),
// advancing by Step bytes per request (paper's linear generator).
type Linear struct {
	Start, End mem.Addr
	Step       uint64
	// ReadPercent is the share of reads (0-100).
	ReadPercent int
	// Seed makes the read/write interleaving reproducible.
	Seed int64

	next mem.Addr
	mix  *readWriteMix
}

// Next implements Pattern.
func (l *Linear) Next() (mem.Addr, bool) {
	if l.mix == nil {
		l.mix = &readWriteMix{rng: rand.New(rand.NewSource(l.Seed)), percent: l.ReadPercent}
		l.next = l.Start
	}
	addr := l.next
	l.next += mem.Addr(l.Step)
	if l.next >= l.End {
		l.next = l.Start
	}
	return addr, l.mix.isRead()
}

// Random produces uniformly random aligned addresses in [Start, End) (the
// paper's random generator).
type Random struct {
	Start, End mem.Addr
	Align      uint64
	// ReadPercent is the share of reads (0-100).
	ReadPercent int
	Seed        int64

	rng *rand.Rand
	mix *readWriteMix
}

// Next implements Pattern.
func (r *Random) Next() (mem.Addr, bool) {
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(r.Seed))
		r.mix = &readWriteMix{rng: rand.New(rand.NewSource(r.Seed + 1)), percent: r.ReadPercent}
	}
	span := uint64(r.End-r.Start) / r.Align
	addr := r.Start + mem.Addr(uint64(r.rng.Int63n(int64(span)))*r.Align)
	return addr, r.mix.isRead()
}

// DRAMAware is the generator created for this work (§III-A): it knows the
// DRAM's internal organisation (page size, banks, address mapping) and emits
// sequential runs of StrideBursts bursts inside one row before rotating to
// the next of Banks banks, so the row-hit rate and bank utilisation are
// controlled exactly. Sweeping StrideBursts from 1 to the page size exposes
// tRCD/tCL/tRP; sweeping Banks exposes tRRD/tFAW.
type DRAMAware struct {
	// Decoder must match the controller's organisation and mapping.
	Decoder dram.Decoder
	// StrideBursts is the sequential run length within one row, in bursts.
	StrideBursts uint64
	// Banks is how many banks the stream touches (1..BanksPerRank).
	Banks int
	// ReadPercent is the share of reads (0-100).
	ReadPercent int
	Seed        int64
	// Channel selects which channel's addresses to emit (multi-channel
	// systems run one DRAMAware per channel).
	Channel int

	mix  *readWriteMix
	bank int
	row  uint64
	step uint64 // position within the current stride
}

// Validate checks the pattern's shape against the organisation.
func (d *DRAMAware) Validate() error {
	org := d.Decoder.Org
	if d.StrideBursts == 0 || d.StrideBursts > org.BurstsPerRow() {
		return fmt.Errorf("trafficgen: stride %d bursts out of [1,%d]", d.StrideBursts, org.BurstsPerRow())
	}
	if d.Banks <= 0 || d.Banks > org.BanksPerRank {
		return fmt.Errorf("trafficgen: banks %d out of [1,%d]", d.Banks, org.BanksPerRank)
	}
	return nil
}

// Next implements Pattern.
func (d *DRAMAware) Next() (mem.Addr, bool) {
	if d.mix == nil {
		d.mix = &readWriteMix{rng: rand.New(rand.NewSource(d.Seed)), percent: d.ReadPercent}
	}
	org := d.Decoder.Org
	addr := d.Decoder.Encode(dram.Coord{
		Rank: 0,
		Bank: d.bank,
		Row:  d.row,
		Col:  d.step,
	}, d.Channel)

	// Advance: finish the stride in this row, rotate banks, then move to a
	// fresh row. Every stride therefore opens a new row, which is what ties
	// the stride length directly to the row-hit rate: stride S gives S-1
	// hits per activation under an open-page policy, and S-1 forced
	// conflicts (reopening a row just closed) under a closed-page policy.
	d.step++
	if d.step >= d.StrideBursts {
		d.step = 0
		d.bank++
		if d.bank >= d.Banks {
			d.bank = 0
			d.row++
			if d.row >= org.RowsPerBank {
				d.row = 0
			}
		}
	}
	return addr, d.mix.isRead()
}

// Bursty produces on/off traffic: bursts of BurstLen back-to-back random
// requests separated by idle gaps centred on OffTime (the workload shape of
// Jagtap et al.'s power-state studies — long enough gaps make power-down and
// self-refresh pay, and the burst edges exercise the entry/exit machinery).
// Addresses behave like Random; the gap after each burst is drawn from a
// dedicated shape RNG as OffTime/2 + uniform[0, OffTime), so the mean gap is
// OffTime and every draw is replayable from (seed, draw count).
type Bursty struct {
	Start, End mem.Addr
	Align      uint64
	// ReadPercent is the share of reads (0-100).
	ReadPercent int
	// BurstLen is the number of requests per on-period.
	BurstLen int
	// OffTime is the mean idle gap between bursts (0 degenerates to Random).
	OffTime sim.Tick
	Seed    int64

	rng     *rand.Rand // addresses
	shape   *rand.Rand // gap jitter
	mix     *readWriteMix
	inBurst int // requests issued in the current on-period
}

// Validate checks the pattern's shape.
func (b *Bursty) Validate() error {
	switch {
	case b.Align == 0 || b.End <= b.Start:
		return fmt.Errorf("trafficgen: bursty pattern needs a positive aligned range")
	case b.BurstLen <= 0:
		return fmt.Errorf("trafficgen: bursty burst length must be positive")
	case b.OffTime < 0:
		return fmt.Errorf("trafficgen: negative bursty off-time")
	}
	return nil
}

func (b *Bursty) init() {
	if b.rng == nil {
		b.rng = rand.New(rand.NewSource(b.Seed))
		b.shape = rand.New(rand.NewSource(b.Seed + 2))
		b.mix = &readWriteMix{rng: rand.New(rand.NewSource(b.Seed + 1)), percent: b.ReadPercent}
	}
}

// Next implements Pattern.
func (b *Bursty) Next() (mem.Addr, bool) {
	b.init()
	span := uint64(b.End-b.Start) / b.Align
	addr := b.Start + mem.Addr(uint64(b.rng.Int63n(int64(span)))*b.Align)
	b.inBurst++
	return addr, b.mix.isRead()
}

// Gap implements GapPattern: zero within a burst, the off-period after its
// last request.
func (b *Bursty) Gap() sim.Tick {
	b.init()
	if b.inBurst < b.BurstLen {
		return 0
	}
	b.inBurst = 0
	if b.OffTime <= 0 {
		return 0
	}
	return b.OffTime/2 + sim.Tick(b.shape.Int63n(int64(b.OffTime)))
}

// Strided produces a fixed-stride stream (useful for cache and bank-conflict
// studies beyond the paper's sweeps).
type Strided struct {
	Start       mem.Addr
	StrideBytes uint64
	WrapBytes   uint64
	ReadPercent int
	Seed        int64

	offset uint64
	mix    *readWriteMix
}

// Next implements Pattern.
func (s *Strided) Next() (mem.Addr, bool) {
	if s.mix == nil {
		s.mix = &readWriteMix{rng: rand.New(rand.NewSource(s.Seed)), percent: s.ReadPercent}
	}
	addr := s.Start + mem.Addr(s.offset)
	s.offset += s.StrideBytes
	if s.WrapBytes > 0 && s.offset >= s.WrapBytes {
		s.offset = 0
	}
	return addr, s.mix.isRead()
}
