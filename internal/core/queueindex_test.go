package core

import (
	"bytes"
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
// against the arrival list and the bank state: every queued burst is on
// exactly one bank list (its own bank's), both kinds of list are in arrival
// order with consistent back links, and the cached per-bank hit counts, the
// per-rank work and hit masks and the per-address-slot counts equal a recount
// (the read queue keeps no address table).
func checkQueueIndex(t *testing.T, c *Controller) {
	t.Helper()
	for name, q := range map[string]*burstQueue{"read": &c.readQueue, "write": &c.writeQueue} {
		listed := map[*dramPacket]bool{}
		if (q.addrCount == nil) != q.isRead || len(q.addrCount)&(len(q.addrCount)-1) != 0 ||
			(!q.isRead && len(q.addrCount) < 4*c.cfg.WriteBufferSize) {
			t.Fatalf("%s queue: address table of %d slots for a %d-entry write buffer", name, len(q.addrCount), c.cfg.WriteBufferSize)
		}
		slots := make([]uint32, len(q.addrCount))
		var prev *dramPacket
		for p := q.head; p != nil; prev, p = p, p.next {
			if p.prev != prev || (prev != nil && prev.seq >= p.seq) {
				t.Fatalf("%s queue: arrival list broken at seq %d (prev link or order)", name, p.seq)
			}
			if p.isRead != q.isRead {
				t.Fatalf("%s queue holds a burst of the other direction (seq %d)", name, p.seq)
			}
			listed[p] = true
			if len(slots) > 0 {
				slots[q.addrSlot(p.burstAddr)]++
			}
		}
		for i, n := range slots {
			if q.addrCount[i] != n {
				t.Fatalf("%s queue: address slot %d caches %d bursts, recount %d", name, i, q.addrCount[i], n)
			}
		}
		if q.tail != prev || len(listed) != q.n {
			t.Fatalf("%s queue: tail/len mismatch: %d listed, n=%d", name, len(listed), q.n)
		}
		if len(q.work) != len(c.ranks) || len(q.hit) != len(c.ranks) {
			t.Fatalf("%s queue: %d work and %d hit masks for %d ranks", name, len(q.work), len(q.hit), len(c.ranks))
		}
		onBank := 0
		for ri, rk := range c.ranks {
			var work, hit uint64
			for bi, b := range q.rankBanks(ri) {
				hits := 0
				var prev *dramPacket
				for p := b.head; p != nil; prev, p = p, p.bankNext {
					if !listed[p] || p.coord.Rank != ri || p.coord.Bank != bi {
						t.Fatalf("%s queue: rank %d bank %d lists a burst that is not queued for it (seq %d, %+v)",
							name, ri, bi, p.seq, p.coord)
					}
					if p.bankPrev != prev || (prev != nil && prev.seq >= p.seq) {
						t.Fatalf("%s queue: rank %d bank %d list broken at seq %d", name, ri, bi, p.seq)
					}
					if int64(p.coord.Row) == rk.openRow[bi] {
						hits++
					}
					onBank++
				}
				if b.tail != prev {
					t.Fatalf("%s queue: rank %d bank %d tail does not end its list", name, ri, bi)
				}
				if b.hits != hits {
					t.Fatalf("%s queue: rank %d bank %d caches %d hits on open row %d, recount %d",
						name, ri, bi, b.hits, rk.openRow[bi], hits)
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
		// Each bank-list member is queued and each list is duplicate-free, so
		// equal totals put every queued burst on exactly one bank list.
		if onBank != q.n {
			t.Fatalf("%s queue: %d bursts on bank lists, %d queued", name, onBank, q.n)
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
