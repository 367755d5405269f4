package core

import (
	"math/rand"
	"testing"

	"repro/internal/dram"
	"repro/internal/faults"
	"repro/internal/mem"
)

// The write queue answers "is this burst queued?" from a folded count table
// and settles a non-zero slot on one bank list. The functions below are the
// scans that replaced: every queued entry, in arrival order, nothing skipped.
// The product must agree with them after every operation of an arbitrary
// stream (TestWriteQueueMembershipMatchesLinearScan,
// FuzzWriteQueueMembership).

// forwardOracle is canForwardFromWriteQueue over the whole queue, given as
// its bursts in arrival order.
func forwardOracle(queue []*dramPacket, burstAddr, lo mem.Addr, size uint64) bool {
	for _, w := range queue {
		if w.burstAddr == burstAddr && w.addr <= lo && lo+mem.Addr(size) <= w.addr+mem.Addr(w.size) {
			return true
		}
	}
	return false
}

// queuedAt reports whether the queue holds any burst at burstAddr.
func queuedAt(queue []*dramPacket, burstAddr mem.Addr) bool {
	for _, w := range queue {
		if w.burstAddr == burstAddr {
			return true
		}
	}
	return false
}

// mergeOracle is tryMergeWrite over the whole queue, without the
// mutation: the entry the piece merges into and the range it then covers, or
// nil.
func mergeOracle(queue []*dramPacket, burstAddr, lo mem.Addr, size uint64) (into *dramPacket, addr mem.Addr, merged uint64) {
	hi := lo + mem.Addr(size)
	for _, w := range queue {
		if w.burstAddr != burstAddr {
			continue
		}
		wHi := w.addr + mem.Addr(w.size)
		if lo <= wHi && w.addr <= hi {
			return w, min(lo, w.addr), uint64(max(hi, wHi) - min(lo, w.addr))
		}
	}
	return nil, 0, 0
}

// membershipAddrs returns a handful of burst addresses built so that the
// table's failure modes are in reach: distinct addresses sharing a slot, on
// one bank list and on two, and distinct addresses sharing a bank list but no
// slot.
func membershipAddrs(t *testing.T, c *Controller) []mem.Addr {
	t.Helper()
	q := &c.writeQueue
	burst, slots := mem.Addr(c.burstBytes), mem.Addr(len(q.addrCount))
	// Neighbours share address 0's row, so its bank; one table size on, the
	// slots repeat in whatever bank the mapping puts there (the other rank's,
	// on the two-rank device the interpreter uses).
	addrs := []mem.Addr{0, burst, slots * burst, (slots + 1) * burst}
	// The next multiple of the table size that comes back to address 0's
	// bank: same slot, same bank list.
	home := c.dec.Decode(0)
	for n := 2 * slots; ; n += slots {
		if co := c.dec.Decode(n * burst); co.Rank == home.Rank && co.Bank == home.Bank {
			addrs = append(addrs, n*burst, (n+1)*burst)
			break
		}
	}
	var slotAndBank, slotOnly, bankOnly bool
	for i, a := range addrs {
		for _, b := range addrs[:i] {
			ca, cb := c.dec.Decode(a), c.dec.Decode(b)
			sameSlot, sameBank := q.addrSlot(a) == q.addrSlot(b), ca.Rank == cb.Rank && ca.Bank == cb.Bank
			slotAndBank = slotAndBank || sameSlot && sameBank
			slotOnly = slotOnly || sameSlot && !sameBank
			bankOnly = bankOnly || !sameSlot && sameBank
		}
	}
	if !slotAndBank || !slotOnly || !bankOnly {
		t.Fatalf("address set %#x lacks a collision kind: slot+bank %v, slot only %v, bank only %v",
			addrs, slotAndBank, slotOnly, bankOnly)
	}
	return addrs
}

// membershipReach counts what a run of the interpreter got to.
type membershipReach struct {
	merges, forwards, scrubs, drained float64
	// falseSlots counts lookups the table could not refuse although no burst
	// of that address was queued: the case the bank-list walk exists for.
	falseSlots int
}

// runMembershipOps interprets ops against a controller with correctable and
// transient faults switched on, so that reads the write queue cannot serve
// come back as demand scrubs (a second, full-burst entry at an address that
// may already hold a partial write) and as replays. Three bytes make an
// operation: kind, address, byte range. Writes and reads go in through the
// port; a step fires the kernel's next few event ticks, which is where the
// write queue drains. After every operation the product's answers for every
// address of the set equal the linear scans' and the index recounts.
func runMembershipOps(t *testing.T, ops []byte) membershipReach {
	t.Helper()
	h := newHarness(t, func(c *Config) {
		c.Device = dram.DDR3_1600_x64_2R()
		// Drain early and in short runs, so entries leave the queue about as
		// often as they enter it.
		c.WriteLowThresh, c.MinWritesPerSwitch = 0.1, 2
		c.Faults = faults.Config{Seed: 23, CorrectablePerBurst: 0.3, TransientPerBurst: 0.1}
	})
	c, q := h.c, &h.c.writeQueue
	addrs := membershipAddrs(t, c)
	burst := c.burstBytes
	var reach membershipReach

	check := func(lo mem.Addr, size uint64) {
		t.Helper()
		checkQueueIndex(t, c)
		queue := q.bursts()
		for _, a := range addrs {
			// The operation's own range, the whole burst and its two halves.
			for _, r := range [][2]uint64{{uint64(lo), size}, {0, burst}, {0, burst / 2}, {burst / 2, burst / 2}} {
				pLo, pSize := a+mem.Addr(r[0]), r[1]
				want := forwardOracle(queue, a, pLo, pSize)
				if got := c.canForwardFromWriteQueue(a, pLo, pSize); got != want {
					t.Fatalf("canForwardFromWriteQueue(%#x, +%d, %d) = %v, linear scan says %v", a, r[0], pSize, got, want)
				}
				into, wantAddr, wantSize := mergeOracle(queue, a, pLo, pSize)
				var oldAddr mem.Addr
				var oldSize uint64
				if into != nil {
					oldAddr, oldSize = into.addr, into.size
				}
				if got := c.tryMergeWrite(a, pLo, pSize); got != (into != nil) {
					t.Fatalf("tryMergeWrite(%#x, +%d, %d) = %v, linear scan says %v", a, r[0], pSize, got, into != nil)
				}
				if into != nil {
					if into.addr != wantAddr || into.size != wantSize {
						t.Fatalf("tryMergeWrite(%#x, +%d, %d) left entry %d covering %#x+%d, linear scan merges to %#x+%d",
							a, r[0], pSize, into.seq, into.addr, into.size, wantAddr, wantSize)
					}
					into.addr, into.size = oldAddr, oldSize // a probe, not a write
				}
			}
			if q.mayHold(a) && !queuedAt(queue, a) {
				reach.falseSlots++
			}
		}
	}

	for ; len(ops) >= 3; ops = ops[3:] {
		a := addrs[int(ops[1])%len(addrs)]
		// A piece of 4 to 16 bytes inside the burst: small enough that an
		// address often holds several entries that do not touch.
		lo := mem.Addr(ops[2]>>2&15) * 4
		size := min(uint64(ops[2]&3+1)*4, burst-uint64(lo))
		switch kind := ops[0] % 4; {
		case kind == 3 || h.blocked != nil:
			// A refused packet is re-sent by the retry; nothing else may be
			// sent before it, so the stream steps instead.
			for n := int(ops[1])%4 + 1; n > 0; n-- {
				if next, ok := h.k.PeekNext(); ok {
					h.k.RunUntil(next)
				}
			}
		case kind == 2:
			h.send(mem.NewRead(a+lo, size, 0, h.k.Now()))
		default:
			h.send(mem.NewWrite(a+lo, size, 0, h.k.Now()))
		}
		check(lo, size)
	}
	reach.merges, reach.forwards = c.st.mergedWrBursts.Value(), c.st.servicedByWrQ.Value()
	reach.scrubs = c.st.scrubWrites.Value()
	reach.drained = c.st.writeBursts.Value() + reach.scrubs - float64(q.n)
	return reach
}

// randomMembershipOps draws n operations, writes twice as likely as reads or
// steps.
func randomMembershipOps(seed int64, n int) []byte {
	ops := make([]byte, 3*n)
	rand.New(rand.NewSource(seed)).Read(ops)
	return ops
}

// Merging and forwarding stay exact: over seeded streams of partial writes,
// reads, scrubs and drains on addresses that collide in the table and share
// banks, the table-and-bank-list lookup answers what a scan of the whole
// queue in arrival order answers, entry for entry.
func TestWriteQueueMembershipMatchesLinearScan(t *testing.T) {
	var sum membershipReach
	for seed := int64(1); seed <= 6; seed++ {
		r := runMembershipOps(t, randomMembershipOps(seed, 700))
		sum.merges += r.merges
		sum.forwards += r.forwards
		sum.scrubs += r.scrubs
		sum.drained += r.drained
		sum.falseSlots += r.falseSlots
	}
	t.Logf("reached %+v", sum)
	if sum.merges < 100 || sum.forwards < 100 || sum.scrubs < 100 || sum.drained < 100 || sum.falseSlots < 100 {
		t.Errorf("a case was reached fewer than 100 times (%+v): the stream lost its aim", sum)
	}
}

// FuzzWriteQueueMembership is the same interpreter under the native fuzzer:
// the byte string is the operation stream. Its seed corpus runs as part of go
// test.
func FuzzWriteQueueMembership(f *testing.F) {
	for seed := int64(101); seed <= 104; seed++ {
		f.Add(randomMembershipOps(seed, 200))
	}
	f.Fuzz(func(t *testing.T, ops []byte) { runMembershipOps(t, ops) })
}
