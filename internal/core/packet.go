package core

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
)

// transaction tracks a system-level read that was chopped into multiple DRAM
// bursts (paper §II-A: "a cache line may be chopped into a number of DRAM
// bursts ... properly merged and dealt with by our controller"). The
// response is sent once every burst has been serviced.
type transaction struct {
	pkt       *mem.Packet
	remaining int
	// entries is how many read-buffer slots the transaction holds (its
	// non-forwarded burst count), released when the response is sent.
	entries int
	// lastReady is the latest burst completion seen; the response leaves at
	// this tick (+ static latencies).
	lastReady sim.Tick
	// poisoned marks a transaction whose burst(s) suffered an uncorrectable
	// ECC error; the flag is copied onto the response packet so the
	// requester learns about the bad data instead of the simulator crashing.
	poisoned bool
}

// dramPacket is one burst-granular unit of work inside the controller.
type dramPacket struct {
	isRead bool
	coord  dram.Coord
	// burstAddr is the burst-aligned address of the access.
	burstAddr mem.Addr
	// addr/size delimit the valid bytes within the burst (writes smaller
	// than a burst cover only part of it until merged).
	addr mem.Addr
	size uint64
	// parent links read bursts back to their system packet.
	parent *transaction
	// entryTime is when the burst entered its queue, for queueing-latency
	// statistics.
	entryTime sim.Tick
	// readyTime is when the burst's data transfer completes (set by
	// doDRAMAccess).
	readyTime sim.Tick
	// attempts counts how many times this read burst has been issued; a
	// transient fault replays it (with backoff) until the retry limit
	// retires the row.
	attempts int
	// scrub marks a demand-scrub writeback generated by the ECC logic after
	// a corrected error (not a system write; excluded from request stats).
	scrub bool

	// Queue membership (see burstQueue): bankNext/bankPrev thread the burst
	// through the bursts queued for the same (rank, bank) in arrival order,
	// and seq is its arrival number within the queue. All nil/zero while the
	// burst sits in no queue.
	bankNext, bankPrev *dramPacket
	seq                uint64
}

// bankFIFO is the arrival-ordered list of one queue's bursts to one bank.
type bankFIFO struct {
	head, tail *dramPacket
	// hits counts the listed bursts that target the bank's open row (0 on a
	// closed bank); the queue's hit mask has the bank's bit set while it is
	// non-zero.
	hits int
	// tags holds sixteen 4-bit counts of the listed bursts by row&15. A count
	// that reaches 15 stays there until the list empties, so a zero field
	// proves that no listed burst targets a row with those low bits: an
	// activate recounts hits only when the new row's field is non-zero.
	tags uint64
}

// tagShift is the offset of row's field in bankFIFO.tags.
func tagShift(row uint64) uint { return uint(row&15) * 4 }

// maxBanksPerRank is the width of a burst queue's per-rank bank masks.
const maxBanksPerRank = 64

// burstQueue is one of the controller's two burst queues: one list per
// (rank, bank), each in arrival order. The lists are intrusive (links live in
// dramPacket), so queueing never allocates, and the index is sized once at
// construction. Every queued burst is on exactly one bank list and carries a
// seq unique within the queue; the scheduler arbitrates over the banks with
// work and uses seq wherever the old linear scan's "first in queue order"
// decided between bursts of different banks, and the queue's own arrival
// order is the bank heads' seq order (oldest, bursts). push, remove and
// rowChanged are the only writers of the index and of every count and mask
// derived from it.
type burstQueue struct {
	// isRead is the direction of every burst the queue holds.
	isRead bool
	n      int
	// banks[rank*banksPerRank+bank] lists the bursts queued for that bank.
	banks        []bankFIFO
	banksPerRank int
	// group0 has the bits of bank group 0's banks set: every Groups-th bank
	// (Topology.GroupOf is bank mod Groups; a flat device is one group), so
	// group g's banks are group0 << g.
	group0 uint64
	// work[rank] has bit b set while bank b's list is non-empty, and hit[rank]
	// while it holds a burst to the bank's open row (its hits is non-zero). The
	// scheduler visits the set bits, so it never looks at a bank with nothing
	// to offer; zero masks prove a rank idle or hit-free. Config.Validate keeps
	// a rank's banks within maxBanksPerRank.
	work []uint64
	hit  []uint64
	// addrCount counts the queued bursts per burst number (burstAddr >>
	// addrShift), folded onto a power-of-two table. A zero slot proves no
	// burst at that address is queued; a non-zero slot may be another address
	// sharing it, so the caller settles it on the address's bank list.
	// (Channel bits interleaved below the table's width leave a controller
	// only every Channels-th slot; the answer stays exact, just less often
	// O(1).) Only the write queue is ever asked (merging, read forwarding),
	// so only it carries a table; nil on the read queue.
	addrCount []uint32
	addrShift uint8
	// ranks is the controller's rank state, read for each bank's open row.
	ranks   []*rank
	nextSeq uint64
}

// newBurstQueue builds an empty queue over banksPerRank banks in groups bank
// groups. addrSlots sizes the address table (a power of two; 0 for a queue
// that is never asked what it holds) and burstBytes is the power-of-two burst
// size its burst numbers derive from.
func newBurstQueue(isRead bool, ranks []*rank, banksPerRank, groups, addrSlots int, burstBytes uint64) burstQueue {
	masks := make([]uint64, 2*len(ranks))
	q := burstQueue{
		isRead:       isRead,
		banks:        make([]bankFIFO, len(ranks)*banksPerRank),
		banksPerRank: banksPerRank,
		group0:       (^uint64(0) >> (64 - banksPerRank)) / (1<<groups - 1),
		work:         masks[:len(ranks):len(ranks)],
		hit:          masks[len(ranks):],
		addrShift:    uint8(bits.TrailingZeros64(burstBytes)),
		ranks:        ranks,
	}
	if addrSlots > 0 {
		q.addrCount = make([]uint32, addrSlots)
	}
	return q
}

// addrSlot returns the address table slot of a burst address.
func (q *burstQueue) addrSlot(burstAddr mem.Addr) int {
	return int(uint64(burstAddr)>>q.addrShift) & (len(q.addrCount) - 1)
}

// mayHold reports whether a burst at burstAddr can be queued: false is
// exact, true must be confirmed on the address's bank list.
func (q *burstQueue) mayHold(burstAddr mem.Addr) bool {
	return q.addrCount[q.addrSlot(burstAddr)] != 0
}

// rankBanks returns the bank lists of rank ri, indexed by bank.
func (q *burstQueue) rankBanks(ri int) []bankFIFO {
	return q.banks[ri*q.banksPerRank : (ri+1)*q.banksPerRank]
}

// push appends p to its bank's list and counts it.
//
//hot:path every burst enters a queue through here
func (q *burstQueue) push(p *dramPacket) {
	p.seq = q.nextSeq
	q.nextSeq++
	ri, bi := p.coord.Rank, p.coord.Bank
	b := &q.banks[ri*q.banksPerRank+bi]
	p.bankPrev, p.bankNext = b.tail, nil
	if b.tail != nil {
		b.tail.bankNext = p
	} else {
		b.head = p
	}
	b.tail = p
	if s := tagShift(p.coord.Row); b.tags>>s&15 != 15 {
		b.tags += 1 << s
	}
	q.work[ri] |= 1 << bi
	if int64(p.coord.Row) == q.ranks[ri].openRow[bi] {
		b.hits++
		q.hit[ri] |= 1 << bi
	}
	if q.addrCount != nil {
		q.addrCount[q.addrSlot(p.burstAddr)]++
	}
	q.n++
}

// remove unlinks a queued burst from its bank's list and discounts it.
//
//hot:path every serviced burst leaves its queue through here
func (q *burstQueue) remove(p *dramPacket) {
	ri, bi := p.coord.Rank, p.coord.Bank
	b := &q.banks[ri*q.banksPerRank+bi]
	if p.bankPrev != nil {
		p.bankPrev.bankNext = p.bankNext
	} else {
		b.head = p.bankNext
	}
	if p.bankNext != nil {
		p.bankNext.bankPrev = p.bankPrev
	} else {
		b.tail = p.bankPrev
	}
	p.bankNext, p.bankPrev = nil, nil
	if b.head == nil {
		b.tags = 0
		q.work[ri] &^= 1 << bi
	} else if s := tagShift(p.coord.Row); b.tags>>s&15 != 15 {
		b.tags -= 1 << s
	}
	if int64(p.coord.Row) == q.ranks[ri].openRow[bi] {
		if b.hits--; b.hits == 0 {
			q.hit[ri] &^= 1 << bi
		}
	}
	if q.addrCount != nil {
		q.addrCount[q.addrSlot(p.burstAddr)]--
	}
	q.n--
}

// rowChanged recounts a bank's hits after its open row changed to row
// (rowClosed after a precharge). A bank that had no hits and whose tags leave
// no room for a burst to row keeps both count and bit at zero without a walk:
// the common case under random traffic.
func (q *burstQueue) rowChanged(ri, bi int, row int64) {
	b := &q.banks[ri*q.banksPerRank+bi]
	if b.hits == 0 && (row == rowClosed || b.tags>>tagShift(uint64(row))&15 == 0) {
		return
	}
	b.hits = 0
	if row != rowClosed {
		for p := b.head; p != nil; p = p.bankNext {
			if int64(p.coord.Row) == row {
				b.hits++
			}
		}
	}
	if b.hits > 0 {
		q.hit[ri] |= 1 << bi
	} else {
		q.hit[ri] &^= 1 << bi
	}
}

// firstOf returns the first burst of a bank list that targets row (hit) or
// any other row (!hit).
func firstOf(p *dramPacket, row int64, hit bool) *dramPacket {
	for ; p != nil; p = p.bankNext {
		if (int64(p.coord.Row) == row) == hit {
			return p
		}
	}
	return nil
}

// oldest returns the burst that arrived first: of the bank heads, the one
// with the smallest seq. The queue must not be empty.
func (q *burstQueue) oldest() *dramPacket {
	var first *dramPacket
	for ri, m := range q.work {
		banks := q.rankBanks(ri)
		for ; m != 0; m &= m - 1 {
			if p := banks[bits.TrailingZeros64(m)].head; first == nil || p.seq < first.seq {
				first = p
			}
		}
	}
	return first
}

// bursts returns the queued bursts in arrival order (tests; never the hot
// path).
func (q *burstQueue) bursts() []*dramPacket {
	out := make([]*dramPacket, 0, q.n)
	for _, b := range q.banks {
		for p := b.head; p != nil; p = p.bankNext {
			out = append(out, p)
		}
	}
	slices.SortFunc(out, func(a, b *dramPacket) int { return cmp.Compare(a.seq, b.seq) })
	return out
}

// newBurst sets up dp, fresh from c.dps, as a write burst entering a queue
// now (a read sets isRead and its parent). A pooled descriptor is already
// zeroed, so only the live fields are set: assigning a whole dramPacket
// literal would build and copy a second one. The caller draws dp itself, so
// that both the pool's Get and this inline into it.
func (c *Controller) newBurst(dp *dramPacket, coord dram.Coord, burstAddr, lo mem.Addr, size uint64) *dramPacket {
	dp.coord = coord
	dp.burstAddr, dp.addr, dp.size = burstAddr, lo, size
	dp.entryTime = c.k.Now()
	return dp
}
