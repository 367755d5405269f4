package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// Events due far ahead must still interleave correctly with near events
// scheduled later: the order is by tick, whatever the order of scheduling.
func TestQueueFarNearInterleave(t *testing.T) {
	k := NewKernel()
	var got []Tick
	record := func(at Tick) func() { return func() { got = append(got, at) } }

	// Far first, then near, then mid.
	for _, at := range []Tick{Second, 500 * Nanosecond, 5 * Nanosecond, 300 * Nanosecond, Microsecond} {
		k.Schedule(NewEvent("e", record(at)), at)
	}
	k.Run()

	want := []Tick{5 * Nanosecond, 300 * Nanosecond, 500 * Nanosecond, Microsecond, Second}
	if len(got) != len(want) {
		t.Fatalf("fired %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// A run that stops short of a far event leaves it pending at the head; an
// event scheduled afterwards, between the run's limit and the far event, must
// still fire first.
func TestQueueScheduleAheadOfParkedHead(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Schedule(NewEvent("warm", func() { order = append(order, "warm") }), 10*Nanosecond)
	k.Schedule(NewEvent("far", func() { order = append(order, "far") }), 10*Microsecond)

	// Run past the near event; the far event is now the head.
	if now := k.RunUntil(Microsecond); now != Microsecond {
		t.Fatalf("RunUntil left now at %s", now)
	}
	checkRing(t, k)
	// Schedule between runs, earlier than the head.
	k.Schedule(NewEvent("behind", func() { order = append(order, "behind") }), 2*Microsecond)
	k.Schedule(NewEvent("far2", func() { order = append(order, "far2") }), 11*Microsecond)
	checkRing(t, k)
	k.Run()
	checkRing(t, k)

	want := []string{"warm", "behind", "far", "far2"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// Call draws events from the kernel's event pool: steady-state one-shot work
// must reuse fired events rather than growing the pool without bound.
func TestQueueCallPoolReuse(t *testing.T) {
	k := NewKernel()
	fired := 0
	var rearm func()
	rearm = func() {
		fired++
		if fired < 1000 {
			k.CallIn("tick", Nanosecond, rearm)
		}
	}
	k.Call("tick", 0, rearm)
	k.Run()
	if fired != 1000 {
		t.Fatalf("fired = %d", fired)
	}
	if k.events.Len() == 0 || k.events.Len() > 2 {
		t.Fatalf("event pool holds %d released events, want the one-or-two in flight", k.events.Len())
	}

	allocs := testing.AllocsPerRun(100, func() {
		done := false
		k.Call("probe", k.Now(), func() { done = true })
		k.Run()
		if !done {
			t.Fatal("probe did not fire")
		}
	})
	// One closure allocation per run is inherent to the test harness; the
	// event itself must come from the pool.
	if allocs > 2 {
		t.Fatalf("Call+Run allocates %.1f objects/op, want <= 2", allocs)
	}
}

// Under heavy Deschedule/Reschedule churn the queue must keep executing the
// *current* schedule of every event, in order, and hold nothing else.
func TestQueueRescheduleChurn(t *testing.T) {
	k := NewKernel()
	rng := rand.New(rand.NewSource(7))
	const n = 200
	events := make([]*Event, n)
	when := make([]Tick, n)
	var got []int
	for i := range events {
		i := i
		events[i] = NewEvent("e", func() {
			got = append(got, i)
			checkRing(t, k)
		})
		when[i] = Tick(rng.Int63n(int64(2 * Microsecond)))
		k.Schedule(events[i], when[i])
	}
	// Churn: move half of them around several times.
	for round := 0; round < 5; round++ {
		for i := 0; i < n; i += 2 {
			when[i] = Tick(rng.Int63n(int64(2 * Microsecond)))
			k.Reschedule(events[i], when[i])
		}
		checkRing(t, k)
	}
	if k.Pending() != n {
		t.Fatalf("Pending = %d, want %d", k.Pending(), n)
	}
	k.Run()
	if len(got) != n {
		t.Fatalf("fired %d events, want %d", len(got), n)
	}
	// Verify execution respected final (when, seq) order.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if when[idx[a]] != when[idx[b]] {
			return when[idx[a]] < when[idx[b]]
		}
		return events[idx[a]].seq < events[idx[b]].seq
	})
	for i := range got {
		if got[i] != idx[i] {
			t.Fatalf("execution order diverged at %d: got %d, want %d", i, got[i], idx[i])
		}
	}
}

// Descheduling the earlier of two far events then draining must fire the
// later one and leave nothing behind.
func TestQueueDescheduledHeadIsGone(t *testing.T) {
	k := NewKernel()
	far1 := NewEvent("far1", func() {})
	fired := false
	far2 := NewEvent("far2", func() { fired = true })
	k.Schedule(far1, Second)
	k.Schedule(far2, 2*Second)
	k.Deschedule(far1)
	checkRing(t, k)
	k.Run()
	checkRing(t, k)
	if !fired || k.Pending() != 0 {
		t.Fatalf("fired=%v pending=%d", fired, k.Pending())
	}
}

// Same-tick scheduling during execution never lands before what has already
// fired: a MinPriority event scheduled "now" from inside a callback still
// runs after the callback that scheduled it, and before the rest of the tick.
func TestQueueSameTickInsertAfterConsumed(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Schedule(NewEvent("a", func() {
		order = append(order, "a")
		k.Schedule(NewEventPri("injected", MinPriority, func() {
			order = append(order, "injected")
		}), k.Now())
	}), 10*Nanosecond)
	k.Schedule(NewEventPri("b", MaxPriority, func() { order = append(order, "b") }), 10*Nanosecond)
	k.Run()
	want := []string{"a", "injected", "b"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
