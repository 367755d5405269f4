package sim

import "fmt"

// The event queue is one sorted ring: a power-of-two slice of entries kept in
// firing order from a head index. A memory system holds a handful of events
// pending (tens at most, see DESIGN §3), so an insert walks in from whichever
// end of the ring its rank is nearer to, sliding the entries it passes one
// slot outwards: model events are due soon and sit near the head, refresh and
// idle timers are due late and sit at the tail, and either way a few entries
// move. Firing pops the head. Descheduling finds the event's own entry by its
// unique key and closes the gap, so the ring holds exactly the pending events,
// in order.

// qentry is one pending event with its firing key.
type qentry struct {
	when Tick
	pri  Priority
	seq  uint64
	ev   *Event
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

// minRing is the ring's first capacity; it doubles when full.
const minRing = 8

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

	// The sorted ring: len(q) is zero or a power of two, and the n pending
	// entries sit in firing order at q[head], q[head+1], ... (indices mod
	// len(q)). Every other slot is the zero qentry.
	q    []qentry
	head int
	n    int

	// events recycles fired one-shot events created by Call/CallIn, so
	// steady-state retries/replays/deferred kicks allocate nothing.
	events Pool[Event]

	// The census (Census): fired lists every event of this kernel that has
	// fired, each carrying its own count; a pooled one-shot is recycled under
	// other names, so its firings are tallied by name in calls instead.
	fired *Event
	calls map[string]uint64

	// Watchdog state (see watchdog.go): sameTick counts consecutive events
	// executed without simulated time advancing, the livelock signature.
	wd       Watchdog
	sameTick uint64

	// The deferral window (BeginDefer): deferring is set while one is open,
	// and deferred is the event Defer made due now and has not yet placed
	// in the ring.
	deferring bool
	deferred  *Event
}

// NewKernel returns a kernel with time at tick zero and an empty queue.
func NewKernel() *Kernel {
	return &Kernel{calls: map[string]uint64{}}
}

// Now returns the current simulated tick.
func (k *Kernel) Now() Tick { return k.now }

// EventsExecuted returns the number of events fired so far; this is the
// denominator for "the event-based model only executes when something
// changes" comparisons against the cycle-based baseline.
func (k *Kernel) EventsExecuted() uint64 { return k.executed }

// Pending returns the number of events currently scheduled.
func (k *Kernel) Pending() int { return k.n }

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
	if when <= k.now {
		if when < k.now {
			panic(fmt.Sprintf("sim: event %q scheduled for %s, before now (%s)", e.name, when, k.now))
		}
		if k.deferred != nil {
			k.place() // the event deferred to now was due first
		}
	}
	e.when = when
	e.seq = k.nextSeq
	k.nextSeq++
	e.scheduled = true
	k.insert(qentry{when: when, pri: e.priority, seq: e.seq, ev: e})
}

// Deschedule removes a scheduled event from the queue. Descheduling an
// unscheduled event panics.
//
//hot:path finds the event's entry by its key and closes the gap
func (k *Kernel) Deschedule(e *Event) {
	if !e.scheduled {
		panic(fmt.Sprintf("sim: event %q not scheduled", e.name))
	}
	e.scheduled = false
	if e == k.deferred {
		k.deferred = nil
		return
	}
	k.remove(qentry{when: e.when, pri: e.priority, seq: e.seq, ev: e})
}

// BeginDefer opens a deferral window in the firing event: until EndDefer,
// Defer leaves an event due now out of the ring. The event that opens it
// calls EndDefer as its last act, since a deferred event fired in that call
// must find the state the event leaves.
func (k *Kernel) BeginDefer() { k.deferring = true }

// Defer makes e due now, as Schedule(e, Now()) does. Inside a deferral window
// e stays out of the ring until the window closes or something else is
// scheduled for now, which places e first, so that same-tick events fire in
// Schedule's order; EndDefer then fires e in its call when e would be the
// next event. Outside a window Defer is Schedule(e, Now()).
func (k *Kernel) Defer(e *Event) {
	if !k.deferring {
		k.Schedule(e, k.now)
		return
	}
	if e.scheduled {
		panic(fmt.Sprintf("sim: event %q already scheduled for %s", e.name, e.when))
	}
	if k.deferred != nil {
		k.place()
	}
	e.when, e.scheduled = k.now, true
	k.deferred = e
}

// EndDefer closes the deferral window. A deferred event that would be the
// next event — nothing else is due now (Alone) — fires in this call, without
// counting as one; otherwise it takes its place in the ring.
func (k *Kernel) EndDefer() {
	k.deferring = false
	e := k.deferred
	if e == nil {
		return
	}
	if k.n > 0 && k.q[k.head].when == k.now {
		k.place()
		return
	}
	k.deferred, e.scheduled = nil, false
	e.callback()
}

// place puts the deferred event in the ring at now.
func (k *Kernel) place() {
	e := k.deferred
	k.deferred = nil
	e.seq = k.nextSeq
	k.nextSeq++
	k.insert(qentry{when: k.now, pri: e.priority, seq: e.seq, ev: e})
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
// kernel's event pool: steady-state one-shot work (replays, retries, deferred
// kicks) reuses fired events instead of allocating. The name is used in
// diagnostics only.
//
//hot:path pooled one-shots; gated by TestCallSteadyStateZeroAlloc
func (k *Kernel) Call(name string, when Tick, fn func()) {
	e := k.events.Get()
	e.pooled = true
	e.name = name
	e.priority = DefaultPriority
	e.callback = fn
	k.Schedule(e, when)
}

// CallIn is Call with a delay relative to the current tick.
func (k *Kernel) CallIn(name string, delay Tick, fn func()) {
	k.Call(name, k.now+delay, fn)
}

// PeekNext returns the tick of the earliest pending event without executing
// anything, and reports whether one exists: no component on this kernel can
// act before this tick, which is what lets a test or an oracle step a kernel
// event by event. It must only be called from the goroutine that owns the
// kernel.
func (k *Kernel) PeekNext() (Tick, bool) {
	if k.n == 0 {
		return 0, false
	}
	return k.q[k.head].when, true
}

// Alone reports whether no event other than e (nil for none) is pending at
// the current tick. A component that would schedule e for now, or whose e is
// already due now, may then act in place instead, inside the event that is
// running: e would have been the kernel's next event, so provided the running
// event has settled its own state first, the outcome is the same with one
// event fewer fired. An event deferred to now (Defer) counts as pending.
func (k *Kernel) Alone(e *Event) bool {
	i := 0
	if k.n > 0 && k.q[k.head].ev == e {
		i = 1
	}
	return (i >= k.n || k.at(i).when > k.now) && (k.deferred == nil || k.deferred == e)
}

// at returns the slot of the i-th pending entry, counted from the head; -1
// and n are the free slots either side of the entries.
func (k *Kernel) at(i int) *qentry { return &k.q[(k.head+i)&(len(k.q)-1)] }

// rank returns how many pending entries fire before ent: its position in the
// ring, counted from the head.
func (k *Kernel) rank(ent qentry) int {
	q, head, mask := k.q, k.head, len(k.q)-1
	lo, hi := 0, k.n
	for lo < hi {
		mid := (lo + hi) / 2
		if q[(head+mid)&mask].before(ent) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// moveHole walks the free slot at position from (counted from the head, like
// at) to position to, sliding every entry it passes one slot the other way.
func (k *Kernel) moveHole(from, to int) {
	q, head, mask := k.q, k.head, len(k.q)-1
	step := 1
	if to < from {
		step = -1
	}
	for i := from; i != to; i += step {
		q[(head+i)&mask] = q[(head+i+step)&mask]
	}
}

// insert puts ent at its rank. One comparison with the middle entry tells
// which end of the ring the rank is nearer to; the free slot beyond that end
// then walks in, sliding each entry it passes one slot outwards, until ent
// belongs in it.
func (k *Kernel) insert(ent qentry) {
	if k.n == len(k.q) {
		k.grow()
	}
	q, head, mask, n := k.q, k.head, len(k.q)-1, k.n
	i := n
	if n > 0 && ent.before(q[(head+n/2)&mask]) {
		// The walk stops at the middle entry at the latest.
		for i = -1; q[(head+i+1)&mask].before(ent); i++ {
			q[(head+i)&mask] = q[(head+i+1)&mask]
		}
		k.head = (head - 1) & mask
	} else {
		for ; i > 0 && ent.before(q[(head+i-1)&mask]); i-- {
			q[(head+i)&mask] = q[(head+i-1)&mask]
		}
	}
	q[(head+i)&mask] = ent
	k.n++
}

// remove takes out ent, which must be pending: the slot it leaves walks out
// to the nearer end of the ring, so the shorter side moves in by one, and is
// zeroed there — the ring never retains an event that is no longer pending.
func (k *Kernel) remove(ent qentry) {
	r := k.rank(ent)
	if r >= k.n || k.at(r).ev != ent.ev {
		panic(fmt.Sprintf("sim: queue corruption, scheduled event %q (%s) is not in the queue (now %s)",
			ent.ev.name, ent.when, k.now))
	}
	if r < k.n-1-r {
		k.moveHole(r, 0)
		k.popHead()
	} else {
		k.moveHole(r, k.n-1)
		*k.at(k.n - 1) = qentry{}
		k.n--
	}
}

// popHead drops the entry at the head, zeroing its slot.
func (k *Kernel) popHead() {
	*k.at(0) = qentry{}
	k.head = (k.head + 1) & (len(k.q) - 1)
	k.n--
}

// grow doubles a full ring, unrolling it so the head lands on slot zero.
func (k *Kernel) grow() {
	//hot:allow ring doubling on exhaustion; a run reaches its deepest queue once
	q := make([]qentry, max(minRing, 2*len(k.q)))
	c := copy(q, k.q[k.head:])
	copy(q[c:], k.q[:k.head])
	k.q, k.head = q, 0
}

// step fires ent, the entry at the head.
//
//hot:path fires one event; run is the loop around it
func (k *Kernel) step(ent qentry) {
	k.popHead()
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
		k.calls[e.name]++
		k.events.Put(e)
	} else {
		if e.fires == 0 {
			e.censusNext, k.fired = k.fired, e
		}
		e.fires++
	}
	cb()
}

// Census returns how many times events of each name have fired on this
// kernel: an event counts toward the kernel that first fired it, and pooled
// one-shots (Call) count under the name they were called by. It is a
// diagnostic of the simulator's own work, read at a run's end; no digest or
// statistic includes it.
func (k *Kernel) Census() map[string]uint64 {
	out := make(map[string]uint64, len(k.calls))
	for name, n := range k.calls {
		out[name] += n
	}
	for e := k.fired; e != nil; e = e.censusNext {
		out[e.name] += e.fires
	}
	return out
}

// run is the one fire loop: it executes events with when <= limit until the
// queue drains or the watchdog trips. The watchdog, when a bound is set, is
// consulted before every event.
func (k *Kernel) run(limit Tick) error {
	for k.n > 0 {
		ent := k.q[k.head]
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

// Run executes events until the queue drains. It returns the tick of the last
// executed event. A tripped watchdog panics with the pending-queue dump;
// embedders that would rather handle the failure use RunErr.
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
