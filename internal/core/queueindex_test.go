package core

import (
	"bytes"
	"strconv"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/dram"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trafficgen"
)

// checkQueueIndex verifies the invariants of both burst queues' bank index
// against the bank state: every bank list is in arrival order with consistent
// back links and holds only bursts of its own bank and the queue's direction,
// every seq is unique and issued, and the cached per-bank hit counts and row
// tags, the per-rank work and hit masks and the per-address-slot counts equal
// a recount (the read queue keeps no address table). A tag field that reached
// 15 may stay there while its list is non-empty, so only a saturated field
// may exceed its recount.
func checkQueueIndex(t *testing.T, c *Controller) {
	t.Helper()
	for name, q := range map[string]*burstQueue{"read": &c.readQueue, "write": &c.writeQueue} {
		if (q.addrCount == nil) != q.isRead || len(q.addrCount)&(len(q.addrCount)-1) != 0 ||
			(!q.isRead && len(q.addrCount) < 4*c.cfg.WriteBufferSize) {
			t.Fatalf("%s queue: address table of %d slots for a %d-entry write buffer", name, len(q.addrCount), c.cfg.WriteBufferSize)
		}
		if len(q.work) != len(c.ranks) || len(q.hit) != len(c.ranks) {
			t.Fatalf("%s queue: %d work and %d hit masks for %d ranks", name, len(q.work), len(q.hit), len(c.ranks))
		}
		slots := make([]uint32, len(q.addrCount))
		seqs := map[uint64]bool{}
		for ri, rk := range c.ranks {
			var work, hit uint64
			for bi, b := range q.rankBanks(ri) {
				hits := 0
				var rows [16]int
				var prev *dramPacket
				for p := b.head; p != nil; prev, p = p, p.bankNext {
					if p.coord.Rank != ri || p.coord.Bank != bi || p.isRead != q.isRead {
						t.Fatalf("%s queue: rank %d bank %d lists a burst that is not queued for it (seq %d, %+v, read=%v)",
							name, ri, bi, p.seq, p.coord, p.isRead)
					}
					if p.bankPrev != prev || (prev != nil && prev.seq >= p.seq) {
						t.Fatalf("%s queue: rank %d bank %d list broken at seq %d", name, ri, bi, p.seq)
					}
					if seqs[p.seq] || p.seq >= q.nextSeq {
						t.Fatalf("%s queue: seq %d listed twice or never issued (next %d)", name, p.seq, q.nextSeq)
					}
					seqs[p.seq] = true
					if int64(p.coord.Row) == rk.openRow[bi] {
						hits++
					}
					rows[p.coord.Row&15]++
					if len(slots) > 0 {
						slots[q.addrSlot(p.burstAddr)]++
					}
				}
				if b.tail != prev {
					t.Fatalf("%s queue: rank %d bank %d tail does not end its list", name, ri, bi)
				}
				if b.hits != hits {
					t.Fatalf("%s queue: rank %d bank %d caches %d hits on open row %d, recount %d",
						name, ri, bi, b.hits, rk.openRow[bi], hits)
				}
				for f, n := range rows {
					got := b.tags >> (4 * f) & 15
					if got != uint64(min(n, 15)) && !(got == 15 && b.head != nil) {
						t.Fatalf("%s queue: rank %d bank %d tags %#x count %d bursts on rows %d mod 16, recount %d",
							name, ri, bi, b.tags, got, f, n)
					}
				}
				if b.head != nil {
					work |= 1 << bi
				}
				if hits > 0 {
					hit |= 1 << bi
				}
			}
			if q.work[ri] != work || q.hit[ri] != hit {
				t.Fatalf("%s queue: rank %d caches work %#x hit %#x, recount work %#x hit %#x",
					name, ri, q.work[ri], q.hit[ri], work, hit)
			}
		}
		if len(seqs) != q.n {
			t.Fatalf("%s queue: %d bursts on bank lists, n=%d", name, len(seqs), q.n)
		}
		for i, n := range slots {
			if q.addrCount[i] != n {
				t.Fatalf("%s queue: address slot %d caches %d bursts, recount %d", name, i, q.addrCount[i], n)
			}
		}
	}
}

// indexRig is a generator over a controller with every queue-touching
// mechanism switched on: transient faults (replays re-enter the read queue),
// correctable faults (demand scrubs enter the write queue), a footprint small
// enough for write merging and read forwarding, and an adaptive page policy
// (queuedRowDemand reads the cached hit counts on every access).
type indexRig struct {
	k   *sim.Kernel
	c   *Controller
	gen *trafficgen.Generator
	reg *stats.Registry
	mgr *checkpoint.Manager
}

func newIndexRig(t *testing.T, page PagePolicy) *indexRig {
	t.Helper()
	k := sim.NewKernel()
	reg := stats.NewRegistry("t")
	cfg := DefaultConfig(dram.DDR3_1600_x64_2R())
	cfg.Page = page
	cfg.Faults = faults.Config{Seed: 5, CorrectablePerBurst: 0.05, TransientPerBurst: 0.05}
	c, err := NewController(k, cfg, reg, "mc")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := trafficgen.New(k, trafficgen.Config{RequestBytes: 64, MaxOutstanding: 48, Count: 3000},
		&trafficgen.Random{Start: 0, End: 1 << 17, Align: 64, ReadPercent: 50, Seed: 9}, reg, "gen")
	if err != nil {
		t.Fatal(err)
	}
	mem.Connect(gen.Port(), c.Port())
	mgr := checkpoint.NewManager()
	mgr.Register("kernel", checkpoint.WrapKernel(k))
	mgr.Register("mc", c)
	mgr.Register("gen", gen)
	mgr.Register("stats", checkpoint.WrapStats(reg))
	return &indexRig{k: k, c: c, gen: gen, reg: reg, mgr: mgr}
}

// finish runs to completion one event tick at a time, checking the index
// after each, and returns the final statistics dump. atBothQueued, when set,
// is called once, at the first tick past a third of the traffic that leaves
// both queues non-empty.
func (r *indexRig) finish(t *testing.T, atBothQueued func()) []byte {
	t.Helper()
	for !(r.gen.Done() && r.c.Quiescent()) {
		next, ok := r.k.PeekNext()
		if !ok {
			t.Fatal("kernel ran dry before the run completed")
		}
		r.k.RunUntil(next)
		checkQueueIndex(t, r.c)
		if r.gen.Done() {
			r.c.Drain()
		}
		if atBothQueued != nil && r.gen.Issued() > 1000 && r.c.readQueue.n > 0 && r.c.writeQueue.n > 0 {
			atBothQueued()
			atBothQueued = nil
		}
	}
	if atBothQueued != nil {
		t.Fatal("never saw both queues non-empty")
	}
	var buf bytes.Buffer
	if err := r.reg.DumpJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The index stays consistent through a whole random-mix run under ECC
// replay, demand scrubs, write merging, read forwarding and both adaptive
// page policies, and a checkpoint taken mid-run with both queues non-empty
// restores — index rebuilt from the saved arrival order — into a run that
// ends byte-identical to the uninterrupted one.
func TestQueueIndexIntegrityAndResume(t *testing.T) {
	for _, page := range []PagePolicy{OpenAdaptive, ClosedAdaptive} {
		t.Run(page.String(), func(t *testing.T) {
			ref := newIndexRig(t, page)
			ref.gen.Start()
			var image []byte
			want := ref.finish(t, func() {
				var err error
				if image, err = ref.mgr.Save(); err != nil {
					t.Fatal(err)
				}
			})
			for _, s := range []*stats.Scalar{ref.c.st.retriedBursts, ref.c.st.scrubWrites,
				ref.c.st.mergedWrBursts, ref.c.st.servicedByWrQ} {
				if s.Value() == 0 {
					t.Fatalf("the run never exercised %s", s.Name())
				}
			}

			resumed := newIndexRig(t, page)
			if err := resumed.mgr.Restore(image); err != nil {
				t.Fatal(err)
			}
			if resumed.c.readQueue.n == 0 || resumed.c.writeQueue.n == 0 {
				t.Fatalf("restored queues hold %d reads, %d writes; want both non-empty",
					resumed.c.readQueue.n, resumed.c.writeQueue.n)
			}
			checkQueueIndex(t, resumed.c)
			again, err := resumed.mgr.Save()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, image) {
				t.Fatal("a checkpoint of the restored run differs from the image it was restored from")
			}
			if got := resumed.finish(t, nil); !bytes.Equal(got, want) {
				t.Fatalf("resumed run's statistics differ from the uninterrupted run's\n got %s\nwant %s", got, want)
			}
		})
	}
}

// The row tags let an activate skip the hit recount only when no listed burst
// can hit. Twenty bursts in one tag field (rows 3, 19, 35, ... all 3 mod 16)
// saturate it, beside bursts in a second field; activates and precharges of
// aliasing and non-aliasing rows run between the pushes and between the
// removals that drain the list, oldest first and from the middle. After every
// step the bank's hits and hit bit are exactly a recount of its list, a
// saturated field stays 15 until the list empties, and an empty list has no
// tags.
func TestRowTagsKeepHitsExact(t *testing.T) {
	h := newHarness(t, nil)
	c, q := h.c, &h.c.readQueue
	const ri, bi = 0, 2
	rk, b := c.ranks[ri], &q.rankBanks(ri)[bi]
	var listed []*dramPacket
	step := func(what string) {
		t.Helper()
		checkQueueIndex(t, c)
		hits := 0
		for _, p := range listed {
			if int64(p.coord.Row) == rk.openRow[bi] {
				hits++
			}
		}
		if b.hits != hits || (q.hit[ri]&(1<<bi) != 0) != (hits > 0) {
			t.Fatalf("after %s: bank caches %d hits, hit bit %v; %d listed bursts target open row %d",
				what, b.hits, q.hit[ri]&(1<<bi) != 0, hits, rk.openRow[bi])
		}
		if len(listed) == 0 && b.tags != 0 {
			t.Fatalf("after %s: empty list keeps tags %#x", what, b.tags)
		}
	}
	push := func(row uint64) {
		dp := c.newDP()
		*dp = dramPacket{isRead: true, coord: dram.Coord{Rank: ri, Bank: bi, Row: row}}
		q.push(dp)
		listed = append(listed, dp)
		step("push of row " + strconv.FormatUint(row, 10))
	}
	// Rows to open between steps: aliasing the saturated field (3, 19, 99),
	// the second field (4), and a field nothing is queued in (7).
	opens := []int64{3, 19, 7, 99, 4, rowClosed}
	tick := sim.Tick(0)
	reopen := func(i int) {
		tick += sim.Nanosecond
		if row := opens[i%len(opens)]; row == rowClosed {
			c.prechargeBank(ri, rk, bi, tick)
		} else {
			c.activateBank(ri, rk, bi, tick, row)
		}
		step("open of row " + strconv.FormatInt(rk.openRow[bi], 10))
	}
	for i := 0; i < 20; i++ {
		push(uint64(3 + 16*(i%7)))
		if i%3 == 0 {
			push(4 + 16*uint64(i))
		}
		reopen(i)
	}
	if f := b.tags >> tagShift(3) & 15; f != 15 {
		t.Fatalf("20 bursts on rows 3 mod 16 leave their field at %d, want saturated 15", f)
	}
	for i := 0; len(listed) > 0; i++ {
		at := 0
		if i%2 == 1 {
			at = len(listed) / 2
		}
		p := listed[at]
		listed = append(listed[:at], listed[at+1:]...)
		q.remove(p)
		c.freeDP(p)
		step("removal")
		if len(listed) > 0 && b.tags>>tagShift(3)&15 != 15 {
			t.Fatalf("a saturated field fell to %d with %d bursts still listed", b.tags>>tagShift(3)&15, len(listed))
		}
		reopen(i)
	}
	if q.work[ri]&(1<<bi) != 0 || b.tags != 0 {
		t.Fatalf("drained bank keeps work bit %v, tags %#x", q.work[ri]&(1<<bi) != 0, b.tags)
	}
}
