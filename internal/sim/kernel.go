package sim

import (
	"fmt"
	"math/bits"
	"slices"
)

// The event queue is a two-level calendar queue tuned for the near-horizon
// events that dominate DRAM timing. Level one is a ring of fixed-width time
// buckets covering a sliding window just ahead of the drain cursor; level two
// is a binary min-heap ("far" heap) for everything beyond the window
// (refresh intervals, watchdog horizons, trace tails). Almost every event a
// memory controller schedules lands within a few bus cycles of now, so the
// hot path is an append into a small slice plus one lazy sort per bucket —
// no per-event heap sift, no container/heap interface boxing.
//
// Descheduling does not search the queue: it marks the event and leaves the
// entry behind as a stale tombstone, detected by comparing the entry's
// sequence number against the event's (every (re)schedule draws a fresh,
// strictly increasing seq). Stale entries are skipped at the cursor and
// compacted opportunistically.
//
// An occupancy bitmap over the ring (one bit per slot, set while the slot
// holds any entry) lets an exhausted cursor move straight to the next occupied
// bucket, so the kernel's cost follows the events fired and never the
// simulated time between them.

const (
	// bucketShift sets the bucket width to 2^bucketShift ticks. 1024 ps is
	// about one clock of a 1 GHz command bus, so same-cycle events share a
	// bucket and the window below spans ~262 ns of future — wider than any
	// tCAS/tRCD/tRP/tRAS the model charges, so only coarse events (refresh,
	// drain horizons) fall through to the far heap.
	bucketShift = 10
	bucketCount = 256
	bucketMask  = bucketCount - 1
)

// bucketOf maps a tick to its absolute bucket number.
func bucketOf(t Tick) int64 { return int64(t) >> bucketShift }

// qentry is one scheduled occurrence of an event. The queue stores
// occurrences, not events: an entry is live only while its seq matches the
// event's current seq and the event is still scheduled.
type qentry struct {
	when Tick
	pri  Priority
	seq  uint64
	ev   *Event
}

// live reports whether this entry is the event's current scheduling (false
// for tombstones left behind by Deschedule/Reschedule and for already-fired
// occurrences).
func (ent qentry) live() bool {
	return ent.ev.scheduled && ent.ev.seq == ent.seq
}

// before is the execution order: (when, priority, seq). Seq breaks all
// remaining ties, so the order is total and runs equal-tick, equal-priority
// events in the order they were scheduled.
func (a qentry) before(b qentry) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.seq < b.seq
}

// compareQentry is before as a three-way comparison for slices.SortFunc.
// Entries are never equal (seq is unique), so the b-before-a probe fully
// determines the order.
func compareQentry(a, b qentry) int {
	if a.before(b) {
		return -1
	}
	return 1
}

// farHeap is a hand-rolled binary min-heap of entries beyond the bucket
// window, ordered by before(). Avoiding container/heap keeps entries unboxed
// and comparisons inlined.
type farHeap struct{ s []qentry }

func (h *farHeap) push(ent qentry) {
	h.s = append(h.s, ent)
	i := len(h.s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.s[i].before(h.s[p]) {
			break
		}
		h.s[i], h.s[p] = h.s[p], h.s[i]
		i = p
	}
}

func (h *farHeap) pop() qentry {
	top := h.s[0]
	n := len(h.s) - 1
	h.s[0] = h.s[n]
	h.s[n] = qentry{}
	h.s = h.s[:n]
	h.siftDown(0)
	return top
}

func (h *farHeap) siftDown(i int) {
	n := len(h.s)
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && h.s[l].before(h.s[m]) {
			m = l
		}
		if r < n && h.s[r].before(h.s[m]) {
			m = r
		}
		if m == i {
			return
		}
		h.s[i], h.s[m] = h.s[m], h.s[i]
		i = m
	}
}

// maxFree bounds the per-kernel pool of one-shot events behind Call/CallIn.
const maxFree = 1024

// Kernel is the discrete-event scheduler. All model components in a
// simulation shard share one kernel; it owns simulated time. A kernel is
// single-threaded by design — parallel simulations run one kernel per shard
// and synchronize at time barriers (see internal/system).
type Kernel struct {
	now     Tick
	nextSeq uint64
	// executed counts events fired since construction (model performance
	// statistics in §III-D report events and host time).
	executed uint64
	stopped  bool

	// Two-level calendar queue. curBucket is the absolute bucket number under
	// the drain cursor; the ring covers [curBucket, curBucket+bucketCount).
	// The cursor bucket is sorted lazily (curSorted) and consumed through
	// curIdx; other window buckets hold unsorted appends until the cursor
	// reaches them.
	buckets   [bucketCount][]qentry
	occ       [bucketCount / 64]uint64 // bit i set <=> len(buckets[i]) > 0, tombstones included
	curBucket int64
	curIdx    int
	curSorted bool
	inWindow  int // live entries stored in the ring
	far       farHeap
	farLive   int // live entries stored in the far heap
	pending   int // live entries total

	// free pools fired one-shot events created by Call/CallIn, so
	// steady-state retries/replays/deferred kicks allocate nothing.
	free []*Event

	// Watchdog state (see watchdog.go): sameTick counts consecutive events
	// executed without simulated time advancing, the livelock signature.
	wd       Watchdog
	sameTick uint64
}

// NewKernel returns a kernel with time at tick zero and an empty queue.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current simulated tick.
func (k *Kernel) Now() Tick { return k.now }

// EventsExecuted returns the number of events fired so far; this is the
// denominator for "the event-based model only executes when something
// changes" comparisons against the cycle-based baseline.
func (k *Kernel) EventsExecuted() uint64 { return k.executed }

// Pending returns the number of events currently scheduled.
func (k *Kernel) Pending() int { return k.pending }

// Schedule arranges for e to fire at tick when. Scheduling in the past (or
// double-scheduling an event) is a programming error and panics, exactly as
// gem5 asserts on it: silent time travel corrupts every timing the model
// produces.
//
//hot:path gated by TestScheduleSteadyStateZeroAlloc
func (k *Kernel) Schedule(e *Event, when Tick) {
	if e.scheduled {
		panic(fmt.Sprintf("sim: event %q already scheduled for %s", e.name, e.when))
	}
	if when < k.now {
		panic(fmt.Sprintf("sim: event %q scheduled for %s, before now (%s)", e.name, when, k.now))
	}
	e.when = when
	e.seq = k.nextSeq
	k.nextSeq++
	e.scheduled = true
	k.pending++
	k.enqueue(qentry{when: when, pri: e.priority, seq: e.seq, ev: e})
}

// Deschedule removes a scheduled event from the queue. Descheduling an
// unscheduled event panics. The queue entry is left behind as a tombstone
// and reclaimed lazily.
//
//hot:path tombstones, no queue surgery
func (k *Kernel) Deschedule(e *Event) {
	if !e.scheduled {
		panic(fmt.Sprintf("sim: event %q not scheduled", e.name))
	}
	e.scheduled = false
	k.pending--
	if e.inFar {
		k.farLive--
		k.compactFar()
	} else {
		k.inWindow--
	}
}

// Reschedule moves a scheduled event to a new tick, or schedules it if it is
// not currently pending.
//
//hot:path deschedule+schedule pair
func (k *Kernel) Reschedule(e *Event, when Tick) {
	if e.scheduled {
		k.Deschedule(e)
	}
	k.Schedule(e, when)
}

// Call schedules fn to run once at tick when, drawing the event from the
// kernel's free list: steady-state one-shot work (replays, retries, deferred
// kicks) reuses fired events instead of allocating. The name is used in
// diagnostics only. It returns the scheduling's sequence number, which
// checkpointing components record to reproduce same-tick ordering on restore.
//
//hot:path pooled one-shots; gated by TestCallSteadyStateZeroAlloc
func (k *Kernel) Call(name string, when Tick, fn func()) uint64 {
	var e *Event
	if n := len(k.free); n > 0 {
		e = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		//hot:allow pool growth on exhaustion; steady state pops the free list
		e = &Event{pooled: true}
	}
	e.name = name
	e.priority = DefaultPriority
	e.callback = fn
	k.Schedule(e, when)
	return e.seq
}

// CallIn is Call with a delay relative to the current tick.
func (k *Kernel) CallIn(name string, delay Tick, fn func()) uint64 {
	return k.Call(name, k.now+delay, fn)
}

// recycle returns a fired pooled event to the free list.
func (k *Kernel) recycle(e *Event) {
	e.name = ""
	e.callback = nil
	if len(k.free) < maxFree {
		k.free = append(k.free, e)
	}
}

// Stop makes the current Run/RunUntil call return after the in-flight event
// completes. Pending events stay queued.
func (k *Kernel) Stop() { k.stopped = true }

// PeekNext returns the tick of the earliest pending event without executing
// anything, and reports whether one exists: no component on this kernel can
// act before this tick, which is what lets a test or an oracle step a kernel
// event by event. Peeking settles the drain cursor exactly as the next
// Run/RunUntil would, so it is deterministic and safe between runs; it must
// only be called from the goroutine that owns the kernel.
func (k *Kernel) PeekNext() (Tick, bool) {
	if !k.settle() {
		return 0, false
	}
	return k.head().when, true
}

// store appends a live entry to its ring slot, marks the slot occupied and
// returns the slot's entries.
func (k *Kernel) store(ent qentry) []qentry {
	i := bucketOf(ent.when) & bucketMask
	k.buckets[i] = append(k.buckets[i], ent)
	k.occ[i>>6] |= 1 << (i & 63)
	ent.ev.inFar = false
	k.inWindow++
	return k.buckets[i]
}

// pushFar puts a live entry on the far heap.
func (k *Kernel) pushFar(ent qentry) {
	ent.ev.inFar = true
	k.far.push(ent)
	k.farLive++
}

// enqueue places a live entry in the ring (near) or the far heap. The caller
// has already validated when >= now, so bucketOf(ent.when) can precede
// curBucket only when the cursor was parked ahead of now by a previous run
// (RunUntil peeked at a future event); that rare case retreats the window.
func (k *Kernel) enqueue(ent qentry) {
	bn := bucketOf(ent.when)
	if bn >= k.curBucket+bucketCount {
		k.pushFar(ent)
		return
	}
	if bn < k.curBucket {
		k.retreat(bn)
	}
	slot := k.store(ent)
	if bn == k.curBucket && k.curSorted {
		// Keep the cursor bucket sorted. The new entry has the largest seq,
		// so it nearly always belongs last: walk back from the tail, never
		// into the consumed prefix (an event scheduled "now" during execution
		// must not land before entries that already fired).
		i := len(slot) - 1
		for ; i > k.curIdx && ent.before(slot[i-1]); i-- {
			slot[i] = slot[i-1]
		}
		slot[i] = ent
	}
}

// retreat moves the window start back to bucket bn (still >= bucketOf(now)).
// Ring entries whose bucket no longer fits the new window are evicted to the
// far heap; tombstones are dropped. This only happens when an event is
// scheduled between runs, behind a cursor parked at a future event, so the
// sweep is off the hot path; it visits the slots the bitmap names.
func (k *Kernel) retreat(bn int64) {
	for w, word := range k.occ {
		for ; word != 0; word &= word - 1 {
			i := w<<6 + bits.TrailingZeros64(word)
			slot := k.buckets[i][:0]
			for _, ent := range k.buckets[i] {
				if !ent.live() {
					continue
				}
				if bucketOf(ent.when) >= bn+bucketCount {
					k.pushFar(ent)
					k.inWindow--
				} else {
					slot = append(slot, ent)
				}
			}
			k.buckets[i] = slot
			if len(slot) == 0 {
				k.occ[w] &^= 1 << (i & 63)
			}
		}
	}
	k.curBucket = bn
	k.curIdx = 0
	k.curSorted = false
}

// refill pulls far-heap entries that now fall inside the window into the
// ring. It must run whenever the window advances: a far entry can be earlier
// than ring entries enqueued later under a larger horizon. The loop tests
// only the tick of the heap's top, in the heap's own array, so an advance
// that makes nothing due never touches an event; a tombstone on top beyond
// the horizon stays for settle's warp or compactFar to drop.
func (k *Kernel) refill() {
	horizon := Tick(k.curBucket+bucketCount) << bucketShift
	for len(k.far.s) > 0 && k.far.s[0].when < horizon {
		// The slot is never the sorted cursor bucket: refill only runs right
		// after the cursor moved, which clears curSorted.
		if top := k.far.pop(); top.live() {
			k.farLive--
			k.store(top)
		}
	}
}

// clearRing empties every slot the bitmap names. Precondition: inWindow == 0,
// so every ring entry is a tombstone and can be discarded.
func (k *Kernel) clearRing() {
	for w, word := range k.occ {
		for ; word != 0; word &= word - 1 {
			i := w<<6 + bits.TrailingZeros64(word)
			k.buckets[i] = k.buckets[i][:0]
		}
		k.occ[w] = 0
	}
}

// jumpTo warps the window start to bucket bn. Precondition: inWindow == 0.
func (k *Kernel) jumpTo(bn int64) {
	k.clearRing()
	k.curBucket = bn
	k.curIdx = 0
	k.curSorted = false
	k.refill()
}

// nextOccupied returns the ring distance, in [1, bucketCount), from slot i to
// the next occupied slot after it. Slot i's own bit must be clear and some
// other bit set, which inWindow > 0 guarantees once slot i is recycled. It
// reads the rest of slot i's word, the words after it, and last — the ring
// wraps — that first word again for the bits below i: five words at most.
func (k *Kernel) nextOccupied(i int64) int64 {
	for d := int64(1); d <= bucketCount; {
		s := (i + d) & bucketMask
		if word := k.occ[s>>6] >> (s & 63); word != 0 {
			return d + int64(bits.TrailingZeros64(word))
		}
		d += 64 - s&63 // to bit 0 of the next word
	}
	panic(fmt.Sprintf("sim: queue corruption, %d live ring entries but no occupied slot (now %s)", k.inWindow, k.now))
}

// compactFar rebuilds the far heap when tombstones outnumber live entries,
// bounding memory under heavy Reschedule churn.
func (k *Kernel) compactFar() {
	if len(k.far.s) < 64 || k.farLive*2 >= len(k.far.s) {
		return
	}
	live := k.far.s[:0]
	for _, ent := range k.far.s {
		if ent.live() {
			live = append(live, ent)
		}
	}
	k.far.s = live
	for i := len(live)/2 - 1; i >= 0; i-- {
		k.far.siftDown(i)
	}
}

// ready reports whether the cursor already rests on a live entry of a sorted
// bucket — the common case between two events of one bucket, and small enough
// to inline into the fire loop ahead of settle.
func (k *Kernel) ready() bool {
	slot := k.buckets[k.curBucket&bucketMask]
	return k.curSorted && k.curIdx < len(slot) && slot[k.curIdx].live()
}

// settle positions the drain cursor on the earliest live entry and returns
// false when no live entries remain. It sorts the cursor bucket, skips stale
// entries and, when the bucket is exhausted, moves the cursor to the next
// occupied bucket — or, when the window holds nothing live, to the far heap's
// minimum. Either move is one step whatever the gap, so idle simulated time
// costs nothing per bucket.
func (k *Kernel) settle() bool {
	for {
		if k.pending == 0 {
			return false
		}
		if k.inWindow == 0 {
			// All live entries are beyond the window; warp to the first.
			for !k.far.s[0].live() {
				k.far.pop()
			}
			k.jumpTo(bucketOf(k.far.s[0].when))
			continue
		}
		i := k.curBucket & bucketMask
		slot := &k.buckets[i]
		if !k.curSorted {
			if len(*slot) > 1 {
				// slices.SortFunc, not sort.Slice: the latter builds a
				// reflect-based swapper on every call, which is the event
				// loop's only steady-state allocation. The order is total
				// (seq breaks all ties), so an unstable sort is exact.
				slices.SortFunc(*slot, compareQentry)
			}
			k.curIdx = 0
			k.curSorted = true
		}
		for k.curIdx < len(*slot) {
			if (*slot)[k.curIdx].live() {
				return true
			}
			k.curIdx++
		}
		// Cursor bucket exhausted: recycle the slot. If the ring still holds
		// live entries, skip to the next occupied bucket and let far entries
		// that entered the new horizon migrate in. No far entry can lie in
		// the buckets skipped: each was pushed at or beyond the horizon of its
		// time and refill has run at every advance since, so the far heap
		// starts at or beyond the old horizon, past every ring bucket.
		*slot = (*slot)[:0]
		k.curIdx = 0
		k.occ[i>>6] &^= 1 << (i & 63)
		if k.inWindow > 0 {
			k.curBucket += k.nextOccupied(i)
			k.curSorted = false
			k.refill()
		}
	}
}

// head returns the entry under the cursor. Only valid after settle() == true
// and until the next schedule, which may move the cursor bucket's entries.
func (k *Kernel) head() *qentry {
	return &k.buckets[k.curBucket&bucketMask][k.curIdx]
}

// step fires ent, the entry under the cursor.
//
//hot:path fires one event; run is the loop around it
func (k *Kernel) step(ent qentry) {
	k.curIdx++
	k.inWindow--
	k.pending--
	if ent.when < k.now {
		panic(fmt.Sprintf("sim: queue corruption, event %q scheduled for %s is in the past (now %s)",
			ent.ev.name, ent.when, k.now))
	}
	if ent.when == k.now {
		k.sameTick++
	} else {
		k.sameTick = 1
	}
	k.now = ent.when
	e := ent.ev
	e.scheduled = false
	k.executed++
	cb := e.callback
	if e.pooled {
		k.recycle(e)
	}
	cb()
}

// run is the one fire loop: it executes events with when <= limit until the
// queue drains, Stop is called or the watchdog trips. The watchdog, when a
// bound is set, is consulted before every event.
func (k *Kernel) run(limit Tick) error {
	k.stopped = false
	for !k.stopped && (k.ready() || k.settle()) {
		ent := *k.head()
		if ent.when > limit {
			break
		}
		if k.wd.Enabled() {
			if err := k.checkWatchdog(); err != nil {
				return err
			}
		}
		k.step(ent)
	}
	return nil
}

// Run executes events until the queue drains or Stop is called. It returns
// the tick of the last executed event. A tripped watchdog panics with the
// pending-queue dump; embedders that would rather handle the failure use
// RunErr.
func (k *Kernel) Run() Tick {
	now, err := k.RunErr()
	if err != nil {
		panic(err.Error())
	}
	return now
}

// RunErr is Run with graceful failure: a tripped watchdog returns a
// *WatchdogError (carrying the pending event queue) instead of panicking.
func (k *Kernel) RunErr() (Tick, error) {
	err := k.run(MaxTick)
	return k.now, err
}

// RunUntil executes events with when <= limit. Time is left at the limit if
// the queue still holds later events, so a subsequent RunUntil continues
// seamlessly. It returns the current tick, and panics if the watchdog trips
// (use RunUntilErr to handle that gracefully).
func (k *Kernel) RunUntil(limit Tick) Tick {
	now, err := k.RunUntilErr(limit)
	if err != nil {
		panic(err.Error())
	}
	return now
}

// RunUntilErr is RunUntil with graceful failure: a tripped watchdog returns
// a *WatchdogError instead of panicking.
func (k *Kernel) RunUntilErr(limit Tick) (Tick, error) {
	if err := k.run(limit); err != nil {
		return k.now, err
	}
	if k.now < limit {
		k.now = limit
	}
	return k.now, nil
}
