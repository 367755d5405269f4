package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The kernel's queue against a reference queue. A programme — a byte string,
// so the same interpreter serves a seeded property test and a native fuzz
// target — drives one Kernel and one reference in lockstep: every Schedule,
// Deschedule, Reschedule and Call, issued between runs and from inside
// callbacks, is applied to both, and every event the kernel fires must be the
// reference's minimum. The reference is a plain slice kept sorted by
// (when, priority, seq) through the standard library; it knows nothing of
// rings, heads or masks.

// checkRing verifies the sorted ring's invariants by recount: the capacity is
// zero or a power of two, the n entries from head are strictly increasing in
// firing order, each is the current scheduling of its event, and every slot
// outside [head, head+n) is the zero qentry.
func checkRing(t testing.TB, k *Kernel) {
	t.Helper()
	size := len(k.q)
	if size&(size-1) != 0 || k.n < 0 || k.n > size || k.head < 0 || (size > 0 && k.head >= size) {
		t.Fatalf("ring of %d slots with head %d and %d entries", size, k.head, k.n)
	}
	for i := 0; i < size; i++ {
		ent := k.q[(k.head+i)%size]
		if i >= k.n {
			if ent != (qentry{}) {
				t.Fatalf("slot %d past the %d pending entries holds %+v, want the zero entry", i, k.n, ent)
			}
			continue
		}
		e := ent.ev
		if e == nil || !e.scheduled || e.when != ent.when || e.seq != ent.seq || e.priority != ent.pri {
			t.Fatalf("entry %d (%s, priority %d, seq %d) is not the current scheduling of its event %+v", i, ent.when, ent.pri, ent.seq, e)
		}
		if prev := k.q[(k.head+i+size-1)%size]; i > 0 && !prev.before(ent) {
			t.Fatalf("entry %d %q (%s, priority %d, seq %d) does not fire after entry %d %q (%s, priority %d, seq %d)",
				i, e.name, ent.when, ent.pri, ent.seq, i-1, prev.ev.name, prev.when, prev.pri, prev.seq)
		}
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

	// The reference's model of where the ring's entries lie — the slot of the
	// first and the capacity — from which it tells which case each operation
	// is. check holds the kernel to it, so the counts are of what happened.
	head, size int
	reached    [ringCases]int
}

// ringCase is one of the cases the ring's shifts have to get right.
type ringCase int

const (
	headInsert ringCase = iota // an insert that moves the head side
	tailInsert                 // an insert that moves the tail side
	wrapShift                  // a shift, of either kind, that moves an entry across slot 0
	wrapGrowth                 // a doubling of a ring whose head is not at slot 0
	headRemove                 // a removal that closes the gap from the head side
	tailRemove                 // a removal that closes the gap from the tail side
	drainRearm                 // a drained ring that entries came and went from
	ringCases
)

var ringCaseNames = [ringCases]string{"head-side insert", "tail-side insert", "shift across slot 0",
	"growth while wrapped", "head-side removal", "tail-side removal", "drain and re-arm"}

// oraclePriorities weights the default band and puts one band (31) between it
// and MaxPriority.
var oraclePriorities = []Priority{MinPriority, StatsPriority, DefaultPriority, DefaultPriority, DefaultPriority, 31, MaxPriority}

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

// gap draws a delay: zero, under a nanosecond, up to 300 ns (the model's
// timing parameters), 1–20 us (refresh and idle timers), or aimed at an entry
// already pending — its very tick, so priority and seq decide, or up to half
// a nanosecond either side of it.
func (o *oracle) gap() Tick {
	class, v := o.next(), int64(o.next())|int64(o.next())<<8
	const width = 1024
	// near is the delay from now to d ticks after a pending entry (zero if
	// that is past, or nothing is pending).
	near := func(d int64) Tick {
		if len(o.queue) == 0 {
			return 0
		}
		return max(0, o.queue[v%int64(len(o.queue))].when+Tick(d)-o.now)
	}
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
		return near(0)
	case 6:
		return near(v%width - width/2)
	default:
		return Tick((1 + v%6) * width)
	}
}

// refAdd inserts into the reference and, knowing the rank, notes which of the
// ring's cases the kernel's matching insert is.
func (o *oracle) refAdd(id int, pri Priority, when Tick) {
	ent := refEntry{when: when, pri: pri, seq: o.nextSeq, id: id}
	o.nextSeq++
	i, _ := slices.BinarySearchFunc(o.queue, ent, compareRef)
	n := len(o.queue)
	if n == o.size {
		if o.head != 0 {
			o.reached[wrapGrowth]++
		}
		o.size, o.head = max(minRing, 2*o.size), 0
	}
	if n > 0 && i <= n/2 {
		o.reached[headInsert]++
		o.head = (o.head - 1 + o.size) % o.size
		o.shifted(o.head, i)
	} else {
		o.reached[tailInsert]++
		o.shifted(o.head+i, n-i)
	}
	o.queue = slices.Insert(o.queue, i, ent)
}

// refRemove is refAdd's counterpart for a removal.
func (o *oracle) refRemove(id int) {
	i := slices.IndexFunc(o.queue, func(ent refEntry) bool { return ent.id == id })
	if i < 0 {
		o.t.Fatalf("reference has no pending entry for e%d", id)
	}
	if n := len(o.queue); i < n-1-i {
		o.reached[headRemove]++
		o.shifted(o.head, i)
		o.head = (o.head + 1) % o.size
	} else {
		o.reached[tailRemove]++
		o.shifted(o.head+i, n-1-i)
	}
	o.queue = slices.Delete(o.queue, i, i+1)
}

// shifted notes a shift of moved entries by one slot, over the moved+1 slots
// that start at slot from, when the ring's last slot and slot 0 are both among
// them.
func (o *oracle) shifted(from, moved int) {
	if moved > 0 && from/o.size != (from+moved)/o.size {
		o.reached[wrapShift]++
	}
}

func compareRef(a, b refEntry) int {
	return cmp.Or(cmp.Compare(a.when, b.when), cmp.Compare(a.pri, b.pri), cmp.Compare(a.seq, b.seq))
}

// at draws a delay and returns the tick it leads to.
func (o *oracle) at() Tick { return o.now + o.gap() }

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
	o.k.Call(fmt.Sprintf("c%d", o.calls), when, func() { o.fired(id) })
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
		// An entry that comes and goes: schedule, deschedule, schedule the
		// neighbour there instead.
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
	o.head = (o.head + 1) % o.size
	o.checkRing()
	for n := o.next() % 4; n > 0; n-- {
		o.mutate()
	}
	o.checkRing()
}

func (o *oracle) name(id int) string {
	if id < 0 {
		return fmt.Sprintf("c%d", -id)
	}
	return fmt.Sprintf("e%d", id)
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
}

// drainRearm drains the queue and has four entries come and go, as a
// component's armed events do when it is torn down and rebuilt.
func (o *oracle) drainRearm() {
	o.run()
	for id := 0; id < 4; id++ {
		o.schedule(id, o.at())
	}
	for id := 0; id < 4; id++ {
		o.deschedule(id)
	}
	o.reached[drainRearm]++
}

// checkRing recounts the ring and holds it to the reference's length and to
// the layout the reference's case counts assume.
func (o *oracle) checkRing() {
	o.t.Helper()
	checkRing(o.t, o.k)
	if o.k.n != len(o.queue) || o.k.head != o.head || len(o.k.q) != o.size {
		o.t.Fatalf("ring holds %d entries from slot %d of %d, reference %d from slot %d of %d",
			o.k.n, o.k.head, len(o.k.q), len(o.queue), o.head, o.size)
	}
}

// check compares everything the kernel reports about itself with the
// reference.
func (o *oracle) check() {
	o.t.Helper()
	o.checkRing()
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
				o.drainRearm()
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
// and between them every case the ring has to get right must have occurred.
func TestKernelAgainstReference(t *testing.T) {
	var sum [ringCases]int
	var events uint64
	for seed := int64(1); seed <= 150; seed++ {
		o := runProgramme(t, randomProgramme(seed, 3000))
		events += o.executed
		for c, n := range o.reached {
			sum[c] += n
		}
	}
	t.Logf("%d events fired", events)
	for c, n := range sum {
		t.Logf("%-22s %d", ringCaseNames[c], n)
		if n < 100 {
			t.Errorf("%s was reached %d times, want at least 100: the generator lost its aim", ringCaseNames[c], n)
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
