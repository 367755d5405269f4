package sim

import "testing"

// The event hot path must not allocate in steady state: the queue stores
// entries as values in one ring that only grows, and Call/CallIn draw one-shot
// events from the kernel's event pool. These tests gate that property — a regression here shows up as
// GC pressure in every sharded benchmark.

// TestScheduleSteadyStateZeroAlloc drives a named event through the
// schedule/fire cycle the controller hot path uses (Schedule, Reschedule,
// Deschedule and the fire loop) and requires zero allocations per cycle once
// the ring has grown.
func TestScheduleSteadyStateZeroAlloc(t *testing.T) {
	k := NewKernel()
	fired := 0
	ev := NewEvent("hot", func() { fired++ })
	ev2 := NewEvent("churn", func() { fired++ })

	cycle := func() {
		k.Schedule(ev, k.Now()+3)
		k.Schedule(ev2, k.Now()+9)
		k.Reschedule(ev2, k.Now()+5)
		k.RunUntil(k.Now() + 16)
	}
	// Warm up: let the ring reach its steady-state capacity.
	for i := 0; i < 64; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("steady-state schedule/fire cycle allocates %.2f objects, want 0", avg)
	}
	if fired == 0 {
		t.Fatal("events never fired")
	}
}

// TestCallSteadyStateZeroAlloc covers the pooled one-shot path: a fired
// Call event returns to the kernel's event pool and the next Call reuses it,
// so retries/replays/deferred kicks allocate nothing. The callback is
// hoisted out of the loop because capturing closures allocate by their
// nature — the kernel's contribution must still be zero.
func TestCallSteadyStateZeroAlloc(t *testing.T) {
	k := NewKernel()
	fired := 0
	fn := func() { fired++ }

	cycle := func() {
		k.CallIn("oneshot", 2, fn)
		k.CallIn("oneshot", 4, fn)
		k.RunUntil(k.Now() + 8)
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("steady-state Call cycle allocates %.2f objects, want 0", avg)
	}
	if fired == 0 {
		t.Fatal("pooled events never fired")
	}
}

// TestDeferSteadyStateZeroAlloc covers Defer and the uncounted fire: an
// event defers another already pending at its tick, which keeps its entry,
// defers a second that defers a third, and schedules an event for now that
// sorts between the second and the third. The kernel fires the three
// deferred events uncounted, without allocating once its ring has grown.
func TestDeferSteadyStateZeroAlloc(t *testing.T) {
	k := NewKernel()
	fired := 0
	third := NewEvent("third", func() { fired++ })
	pending := NewEventPri("pending", MaxPriority, func() { fired++ })
	mid := NewEvent("mid", func() { fired++ })
	second := NewEvent("second", func() { k.Defer(third) })
	first := NewEvent("first", func() {
		k.Defer(pending)
		k.Defer(second)
		k.Schedule(mid, k.Now())
	})
	cycle := func() {
		k.Schedule(first, k.Now()+4)
		k.Schedule(pending, k.Now()+4)
		k.RunUntil(k.Now() + 8)
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	before := k.EventsExecuted()
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("steady-state defer cycle allocates %.2f objects, want 0", avg)
	}
	if fired != 3*(64+201) || k.EventsExecuted()-before != 2*201 {
		t.Fatalf("%d fires and %d counted events in %d cycles", fired, k.EventsExecuted()-before, 201)
	}
}

// TestPeekNextMatchesRunOrder checks the event-by-event stepping primitive: the
// peeked tick is exactly the tick the next RunUntil executes first, peeking
// does not disturb the schedule, and an empty kernel reports no event.
func TestPeekNextMatchesRunOrder(t *testing.T) {
	k := NewKernel()
	if _, ok := k.PeekNext(); ok {
		t.Fatal("empty kernel claims a pending event")
	}
	var order []Tick
	mk := func(name string, at Tick) {
		ev := NewEvent(name, func() { order = append(order, k.Now()) })
		k.Schedule(ev, at)
	}
	mk("far", 1_000_000)
	mk("near", 7)
	mk("mid", 40)

	for _, want := range []Tick{7, 40, 1_000_000} {
		got, ok := k.PeekNext()
		if !ok || got != want {
			t.Fatalf("PeekNext = %v,%v want %v,true", got, ok, want)
		}
		// Peeking twice is idempotent.
		if again, ok := k.PeekNext(); !ok || again != got {
			t.Fatalf("second PeekNext = %v,%v, first = %v", again, ok, got)
		}
		k.RunUntil(got)
	}
	if len(order) != 3 || order[0] != 7 || order[1] != 40 || order[2] != 1_000_000 {
		t.Fatalf("execution order %v disturbed by peeking", order)
	}
	if _, ok := k.PeekNext(); ok {
		t.Fatal("drained kernel claims a pending event")
	}
}

// TestPeekNextSkipsTombstones: a descheduled event is gone from the queue
// and must not be reported as the next event.
func TestPeekNextSkipsTombstones(t *testing.T) {
	k := NewKernel()
	dead := NewEvent("dead", func() {})
	live := NewEvent("live", func() {})
	k.Schedule(dead, 5)
	k.Schedule(live, 9)
	k.Deschedule(dead)
	if got, ok := k.PeekNext(); !ok || got != 9 {
		t.Fatalf("PeekNext = %v,%v want 9,true (descheduled event still reported)", got, ok)
	}
}
