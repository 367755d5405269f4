package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The calendar queue against a reference queue. A programme — a byte string,
// so the same interpreter serves a seeded property test and a native fuzz
// target — drives one Kernel and one reference in lockstep: every Schedule,
// Deschedule, Reschedule and Call, issued between runs and from inside
// callbacks, is applied to both, and every event the kernel fires must be the
// reference's minimum. The reference is a plain slice kept sorted by
// (when, priority, seq); it knows nothing of buckets, bitmaps or heaps.

// checkRing verifies the calendar queue's invariants against a recount: an
// occupancy bit is set exactly when its slot holds entries (live or not),
// every entry sits in the slot of its bucket inside the window, the consumed
// prefix of the cursor bucket holds nothing live and the rest of it is sorted,
// no far entry lies inside the window, and the cached counts equal the live
// entries actually stored.
func checkRing(t testing.TB, k *Kernel) {
	t.Helper()
	cur := int(k.curBucket & bucketMask)
	inWindow := 0
	for i, slot := range k.buckets {
		if occupied := k.occ[i>>6]>>(i&63)&1 == 1; occupied != (len(slot) > 0) {
			t.Fatalf("slot %d: occupancy bit %v but %d entries", i, occupied, len(slot))
		}
		for j, ent := range slot {
			if bn := bucketOf(ent.when); bn < k.curBucket || bn >= k.curBucket+bucketCount || int(bn&bucketMask) != i {
				t.Fatalf("slot %d holds an entry of bucket %d; window starts at %d", i, bn, k.curBucket)
			}
			if !ent.live() {
				continue
			}
			inWindow++
			if ent.ev.inFar {
				t.Fatalf("slot %d: live entry %q is marked as stored in the far heap", i, ent.ev.name)
			}
			if i == cur && k.curSorted && j < k.curIdx {
				t.Fatalf("cursor bucket: live entry %q at %d inside the consumed prefix [0,%d)", ent.ev.name, j, k.curIdx)
			}
		}
		if i == cur && k.curSorted && k.curIdx < len(slot) && !slices.IsSortedFunc(slot[k.curIdx:], compareQentry) {
			t.Fatalf("cursor bucket is marked sorted but is not, from index %d", k.curIdx)
		}
	}
	farLive := 0
	for _, ent := range k.far.s {
		if bn := bucketOf(ent.when); bn < k.curBucket+bucketCount {
			t.Fatalf("far heap holds an entry of bucket %d, inside the window [%d,%d)", bn, k.curBucket, k.curBucket+bucketCount)
		}
		if ent.live() {
			farLive++
			if !ent.ev.inFar {
				t.Fatalf("far heap: live entry %q is marked as stored in the ring", ent.ev.name)
			}
		}
	}
	if inWindow != k.inWindow || farLive != k.farLive || inWindow+farLive != k.pending {
		t.Fatalf("cached counts inWindow=%d farLive=%d pending=%d, recount %d ring + %d far",
			k.inWindow, k.farLive, k.pending, inWindow, farLive)
	}
}

// refEntry is one pending occurrence in the reference queue. id >= 0 is a
// named event's index, id < 0 a one-shot issued through Call.
type refEntry struct {
	when Tick
	pri  Priority
	seq  uint64
	id   int
}

// oracle runs one programme on a kernel and the reference side by side.
type oracle struct {
	t    *testing.T
	k    *Kernel
	prog []byte
	pos  int

	events []*Event
	calls  int

	// The reference: its own clock, counters and sorted queue.
	now      Tick
	nextSeq  uint64
	executed uint64
	queue    []refEntry

	// What the programme exercised, read off the kernel between one event
	// (or operation) and the next.
	lastCursor  int64
	lastFarLive int
	reached     reached
}

// reached counts the cases the cursor handling has to get right.
type reached struct {
	wordSkips  int // skips that cross a word of the bitmap
	wraps      int // skips around the end of the ring
	farRefills int // skips that made far entries due
	warps      int // jumps to the far heap's minimum
	retreats   int // schedules behind a parked cursor
	restores   int
}

var oraclePriorities = []Priority{MinPriority, StatsPriority, DefaultPriority, DefaultPriority, DefaultPriority, CPUPriority, MaxPriority}

func newOracle(t *testing.T, prog []byte) *oracle {
	o := &oracle{t: t, k: NewKernel(), prog: prog}
	for id := 0; id < 14; id++ {
		pri := oraclePriorities[id%len(oraclePriorities)]
		o.events = append(o.events, NewEventPri(fmt.Sprintf("e%d", id), pri, func() { o.fired(id) }))
	}
	return o
}

// next draws one byte of the programme; an exhausted programme reads as
// zeros, which schedule nothing, so every programme terminates.
func (o *oracle) next() int {
	if o.pos >= len(o.prog) {
		return 0
	}
	o.pos++
	return int(o.prog[o.pos-1])
}

// gap draws a delay: zero, inside one bucket, 1–300 buckets (so skips cross
// the bitmap's word boundaries and wrap the ring), 1–20 us (far heap and
// warp), or aimed at the edge of the window — the last ring bucket, the
// first far one, or up to a ring beyond an entry already pending, so that a
// far entry becomes due exactly when the cursor skips to that entry.
func (o *oracle) gap() Tick {
	class, v := o.next(), int64(o.next())|int64(o.next())<<8
	const width = 1 << bucketShift
	// toBucket is the delay from now into bucket bn (zero if that is past).
	toBucket := func(bn int64) Tick { return max(0, Tick(bn*width+v%width)-o.now) }
	switch class % 8 {
	case 0:
		return 0
	case 1:
		return Tick(v % width)
	case 2, 3:
		return Tick((1+v%300)*width + v>>6)
	case 4:
		return Microsecond + Tick(v*290)
	case 5:
		return toBucket(o.k.curBucket + bucketCount - v%2)
	case 6:
		if len(o.queue) == 0 {
			return 0
		}
		pending := bucketOf(o.queue[v%int64(len(o.queue))].when)
		return toBucket(pending + bucketCount - int64(class>>3)*(v%9))
	default:
		return Tick((1 + v%6) * width)
	}
}

func (o *oracle) refAdd(id int, pri Priority, when Tick) {
	ent := refEntry{when: when, pri: pri, seq: o.nextSeq, id: id}
	o.nextSeq++
	i, _ := slices.BinarySearchFunc(o.queue, ent, compareRef)
	o.queue = slices.Insert(o.queue, i, ent)
}

func (o *oracle) refRemove(id int) {
	i := slices.IndexFunc(o.queue, func(ent refEntry) bool { return ent.id == id })
	if i < 0 {
		o.t.Fatalf("reference has no pending entry for e%d", id)
	}
	o.queue = slices.Delete(o.queue, i, i+1)
}

func compareRef(a, b refEntry) int {
	return cmp.Or(cmp.Compare(a.when, b.when), cmp.Compare(a.pri, b.pri), cmp.Compare(a.seq, b.seq))
}

// at draws a delay and returns the tick it leads to, noting a schedule
// behind a cursor that a run or a peek parked at a later event.
func (o *oracle) at() Tick {
	when := o.now + o.gap()
	if bucketOf(when) < o.k.curBucket {
		o.reached.retreats++
	}
	return when
}

func (o *oracle) schedule(id int, when Tick) {
	o.k.Schedule(o.events[id], when)
	o.refAdd(id, oraclePriorities[id%len(oraclePriorities)], when)
}

func (o *oracle) deschedule(id int) {
	o.k.Deschedule(o.events[id])
	o.refRemove(id)
}

func (o *oracle) call(when Tick) {
	o.calls++
	id := -o.calls
	want := o.nextSeq
	if got := o.k.Call(fmt.Sprintf("c%d", o.calls), when, func() { o.fired(id) }); got != want {
		o.t.Fatalf("Call drew seq %d, reference %d", got, want)
	}
	o.refAdd(id, DefaultPriority, when)
}

// mutate applies one queue operation to both sides.
func (o *oracle) mutate() {
	b := o.next()
	id := (b >> 2) % len(o.events)
	scheduled := o.events[id].Scheduled()
	switch b & 3 {
	case 0:
		if scheduled {
			o.deschedule(id)
		} else {
			o.schedule(id, o.at())
		}
	case 1:
		when := o.at()
		o.k.Reschedule(o.events[id], when)
		if scheduled {
			o.refRemove(id)
		}
		o.refAdd(id, oraclePriorities[id%len(oraclePriorities)], when)
	case 2:
		o.call(o.at())
	case 3:
		// A tombstone and a live entry in one go: schedule, deschedule,
		// schedule the neighbour there instead.
		if !scheduled {
			o.schedule(id, o.at())
			o.deschedule(id)
			if nb := (id + 1) % len(o.events); !o.events[nb].Scheduled() {
				o.schedule(nb, o.at())
			}
		}
	}
}

// fired is every event's callback: the kernel's choice must be the
// reference's minimum, and then the event acts on the queue itself.
func (o *oracle) fired(id int) {
	if len(o.queue) == 0 {
		o.t.Fatalf("kernel fired %s at %s, reference queue is empty", o.name(id), o.k.Now())
	}
	head := o.queue[0]
	o.queue = o.queue[1:]
	if head.id != id || head.when != o.k.Now() {
		o.t.Fatalf("kernel fired %s at %s, reference says %s at %s (priority %d, seq %d)",
			o.name(id), o.k.Now(), o.name(head.id), head.when, head.pri, head.seq)
	}
	o.now = head.when
	o.executed++
	o.observeCursor()
	checkRing(o.t, o.k)
	for n := o.next() % 4; n > 0; n-- {
		o.mutate()
	}
	checkRing(o.t, o.k)
	o.lastCursor, o.lastFarLive = o.k.curBucket, o.k.farLive
}

func (o *oracle) name(id int) string {
	if id < 0 {
		return fmt.Sprintf("c%d", -id)
	}
	return fmt.Sprintf("e%d", id)
}

// observeCursor classifies what settle did since the last event or
// operation ended, so the property test can insist that the programmes
// reached the cases they are for.
func (o *oracle) observeCursor() {
	from, to := o.lastCursor, o.k.curBucket
	switch d := to - from; {
	case d >= bucketCount:
		o.reached.warps++
	case d > 1:
		if from&bucketMask>>6 != to&bucketMask>>6 {
			o.reached.wordSkips++
		}
		if to&bucketMask < from&bucketMask {
			o.reached.wraps++
		}
		if o.k.farLive < o.lastFarLive {
			o.reached.farRefills++
		}
	}
}

func (o *oracle) runUntil(limit Tick) {
	o.k.RunUntil(limit)
	if len(o.queue) > 0 && o.queue[0].when <= limit {
		o.t.Fatalf("RunUntil(%s) returned with %s still pending at %s", limit, o.name(o.queue[0].id), o.queue[0].when)
	}
	o.now = max(o.now, limit)
}

func (o *oracle) run() {
	o.k.Run()
	if len(o.queue) > 0 {
		o.t.Fatalf("Run returned with %d events pending in the reference, first %s at %s",
			len(o.queue), o.name(o.queue[0].id), o.queue[0].when)
	}
}

func (o *oracle) peek() {
	when, ok := o.k.PeekNext()
	if ok != (len(o.queue) > 0) || (ok && when != o.queue[0].when) {
		o.t.Fatalf("PeekNext = %s, %v; reference holds %d entries, first %+v", when, ok, len(o.queue), o.queue[:min(1, len(o.queue))])
	}
	o.observeCursor()
}

// restore drains the queue, leaves tombstones in both levels and warps the
// clock, as a checkpoint restore does before its deferred re-schedules.
func (o *oracle) restore() {
	o.run()
	for id := 0; id < 4; id++ {
		o.schedule(id, o.at())
	}
	for id := 0; id < 4; id++ {
		o.deschedule(id)
	}
	c := o.k.ClockState()
	c.Now += o.gap()
	o.k.RestoreClock(c)
	o.now = c.Now
	o.reached.restores++
}

// check compares everything the kernel reports about itself with the
// reference (PeekNext apart: it moves the cursor, so it is an operation).
func (o *oracle) check() {
	o.t.Helper()
	checkRing(o.t, o.k)
	o.lastCursor, o.lastFarLive = o.k.curBucket, o.k.farLive
	if o.k.Now() != o.now || o.k.EventsExecuted() != o.executed || o.k.Pending() != len(o.queue) {
		o.t.Fatalf("kernel now=%s executed=%d pending=%d, reference now=%s executed=%d pending=%d",
			o.k.Now(), o.k.EventsExecuted(), o.k.Pending(), o.now, o.executed, len(o.queue))
	}
	pending := o.k.PendingEvents()
	if len(pending) != len(o.queue) {
		o.t.Fatalf("PendingEvents lists %d, reference %d", len(pending), len(o.queue))
	}
	for i, ent := range o.queue {
		if want := (QueuedEvent{Name: o.name(ent.id), When: ent.when, Priority: ent.pri}); pending[i] != want {
			o.t.Fatalf("PendingEvents[%d] = %+v, reference %+v", i, pending[i], want)
		}
	}
}

// runProgramme interprets prog to its end, drains the queue and returns the
// oracle for its coverage counts.
func runProgramme(t *testing.T, prog []byte) *oracle {
	o := newOracle(t, prog)
	for o.pos < len(o.prog) {
		switch b := o.next(); b % 8 {
		case 0, 1, 2:
			o.mutate()
		case 3, 4, 5:
			o.runUntil(o.now + o.gap())
		case 6:
			o.peek()
		case 7:
			if b>>3 < 4 {
				o.restore()
			} else {
				o.mutate()
			}
		}
		o.check()
	}
	o.peek()
	o.run()
	o.check()
	return o
}

func randomProgramme(seed int64, n int) []byte {
	prog := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(prog)
	return prog
}

// TestKernelAgainstReference is the seeded property: 150 random programmes,
// and between them every case the skip has to get right must have occurred.
func TestKernelAgainstReference(t *testing.T) {
	var sum reached
	var events uint64
	for seed := int64(1); seed <= 150; seed++ {
		o := runProgramme(t, randomProgramme(seed, 3000))
		events += o.executed
		sum.wordSkips += o.reached.wordSkips
		sum.wraps += o.reached.wraps
		sum.farRefills += o.reached.farRefills
		sum.warps += o.reached.warps
		sum.retreats += o.reached.retreats
		sum.restores += o.reached.restores
	}
	t.Logf("%d events fired; reached %+v", events, sum)
	for _, n := range []int{sum.wordSkips, sum.wraps, sum.farRefills, sum.warps, sum.retreats, sum.restores} {
		if n < 100 {
			t.Errorf("a case was reached fewer than 100 times (%+v): the generator lost its aim", sum)
			break
		}
	}
}

// FuzzKernelAgainstReference is the same interpreter under the native
// fuzzer; its seed corpus runs as part of go test.
func FuzzKernelAgainstReference(f *testing.F) {
	for seed := int64(1001); seed <= 1008; seed++ {
		f.Add(randomProgramme(seed, 400))
	}
	f.Fuzz(func(t *testing.T, prog []byte) { runProgramme(t, prog) })
}
