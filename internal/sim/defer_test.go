package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// runDeferProgram fires a seeded random programme of events whose callbacks
// schedule, deschedule and defer each other, and returns the (tick, name) log
// of every callback run, the events the kernel fired, and how many of the
// callbacks ran from a Defer. With ring set, Defer is Schedule(e, Now())
// (ScheduleDeferred).
func runDeferProgram(seed int64, ring bool) (log []string, fired, deferred uint64) {
	defer func(was bool) { ScheduleDeferred = was }(ScheduleDeferred)
	ScheduleDeferred = ring
	const events, budget = 8, 3000
	k := NewKernel()
	rng := rand.New(rand.NewSource(seed))
	evs := make([]*Event, events)
	var byDefer [events]bool
	act := func() {
		i := rng.Intn(events)
		e := evs[i]
		switch r := rng.Intn(10); {
		case e.Scheduled() && e.When() == k.Now() && r < 3:
			k.Defer(e) // keeps its key
			byDefer[i] = true
		case e.Scheduled():
			if r < 3 {
				k.Deschedule(e)
				byDefer[i] = false
			}
		case r < 4:
			k.Defer(e)
			byDefer[i] = true
		default:
			k.Schedule(e, k.Now()+Tick([]int{0, 0, 1, 2, 5}[r%5]))
		}
	}
	for i := range evs {
		evs[i] = NewEventPri(fmt.Sprint("e", i), Priority(rng.Intn(3)-1), func() {
			log = append(log, fmt.Sprint(k.Now(), " e", i))
			if byDefer[i] {
				byDefer[i] = false
				deferred++
			}
			if len(log) >= budget {
				return
			}
			for n := rng.Intn(4); n > 0; n-- {
				act()
			}
		})
	}
	for _, e := range evs[:3] {
		k.Schedule(e, 0)
	}
	k.Run()
	return log, k.EventsExecuted(), deferred
}

// TestDeferKeepsScheduleOrder holds Defer to Schedule(e, Now()): over seeded
// programmes the callbacks run in the same order at the same ticks with the
// deferred fires uncounted and with them counted, and the kernel counts
// exactly the deferred fires fewer when they are uncounted.
func TestDeferKeepsScheduleOrder(t *testing.T) {
	uncounted := uint64(0)
	for seed := int64(1); seed <= 200; seed++ {
		held, heldFired, deferred := runDeferProgram(seed, false)
		ring, ringFired, _ := runDeferProgram(seed, true)
		if i := slices.Compare(held, ring); i != 0 {
			for j := range min(len(held), len(ring)) {
				if held[j] != ring[j] {
					t.Fatalf("seed %d: callback %d ran %q deferred, %q scheduled", seed, j, held[j], ring[j])
				}
			}
			t.Fatalf("seed %d: %d callbacks deferred, %d scheduled", seed, len(held), len(ring))
		}
		if heldFired > ringFired || uint64(len(held)) != ringFired {
			t.Fatalf("seed %d: %d events fired deferred, %d scheduled, for %d callbacks", seed, heldFired, ringFired, len(held))
		}
		if heldFired != ringFired-deferred {
			t.Fatalf("seed %d: %d events counted deferred, %d scheduled, for %d deferred fires", seed, heldFired, ringFired, deferred)
		}
		uncounted += ringFired - heldFired
	}
	if uncounted == 0 {
		t.Error("no deferred fire went uncounted")
	}
}

// FuzzDeferKeepsScheduleOrder is TestDeferKeepsScheduleOrder over any seed:
// the runs with deferred fires uncounted and counted log the same callbacks,
// and they count exactly the deferred fires apart.
func FuzzDeferKeepsScheduleOrder(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 1000} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		held, heldFired, deferred := runDeferProgram(seed, false)
		ring, ringFired, _ := runDeferProgram(seed, true)
		if !slices.Equal(held, ring) {
			t.Fatalf("seed %d: deferred and scheduled runs logged different callbacks", seed)
		}
		if heldFired > ringFired {
			t.Fatalf("seed %d: %d events fired deferred, %d scheduled", seed, heldFired, ringFired)
		}
		if heldFired != ringFired-deferred {
			t.Fatalf("seed %d: %d events counted deferred, %d scheduled, for %d deferred fires", seed, heldFired, ringFired, deferred)
		}
	})
}

// TestDeferredRunsInKeyOrderUncounted: a deferred event takes the ring entry
// Schedule(e, Now()) would give it, or keeps the one it has. Run fires every
// event in key order and counts only those Defer did not make due, whatever
// else is due at the tick.
func TestDeferredRunsInKeyOrderUncounted(t *testing.T) {
	type kit struct {
		k   *Kernel
		log []string
		ev  func(name string, then func()) *Event
	}
	newKit := func() *kit {
		x := &kit{k: NewKernel()}
		x.ev = func(name string, then func()) *Event {
			return NewEvent(name, func() {
				x.log = append(x.log, name)
				if then != nil {
					then()
				}
			})
		}
		return x
	}
	check := func(t *testing.T, x *kit, log string, counted uint64) {
		t.Helper()
		if got := strings.Join(x.log, ","); got != log || x.k.EventsExecuted() != counted {
			t.Fatalf("ran %s with %d events counted, want %s with %d", got, x.k.EventsExecuted(), log, counted)
		}
	}

	t.Run("schedule then defer", func(t *testing.T) {
		x := newKit()
		b, c := x.ev("b", nil), x.ev("c", nil)
		x.k.Schedule(x.ev("a", func() {
			x.k.Schedule(b, x.k.Now())
			x.k.Defer(c)
		}), 5)
		x.k.Run()
		check(t, x, "a,b,c", 2)
	})

	t.Run("defer then schedule", func(t *testing.T) {
		x := newKit()
		b, c := x.ev("b", nil), x.ev("c", nil)
		x.k.Schedule(x.ev("a", func() {
			x.k.Defer(c)
			x.k.Schedule(b, x.k.Now())
		}), 5)
		x.k.Run()
		check(t, x, "a,c,b", 2)
	})

	t.Run("defer before run", func(t *testing.T) {
		x := newKit()
		x.k.RunUntil(10)
		x.k.Schedule(x.ev("a", nil), 13)
		x.k.Defer(x.ev("c", nil))
		if next, ok := x.k.PeekNext(); !ok || next != 10 {
			t.Fatalf("PeekNext = %v,%v, want the deferred event at 10", next, ok)
		}
		if p := x.k.PendingEvents(); len(p) != 2 || p[0].Name != "c" || p[1].Name != "a" {
			t.Fatalf("pending %+v, want c then a", p)
		}
		if x.k.RunUntil(5); len(x.log) != 0 {
			t.Fatalf("RunUntil(5) at 10 ran %v", x.log)
		}
		x.k.Run()
		check(t, x, "c,a", 1)
	})

	t.Run("descheduled, then scheduled", func(t *testing.T) {
		x := newKit()
		c := x.ev("c", nil)
		x.k.Schedule(x.ev("a", func() {
			x.k.Defer(c)
			x.k.Deschedule(c)
			x.k.Schedule(c, x.k.Now()+1)
		}), 5)
		x.k.Run()
		check(t, x, "a,c", 2)
	})

	t.Run("pending now, not the head", func(t *testing.T) {
		x := newKit()
		y, w := x.ev("y", nil), x.ev("w", nil)
		x.k.Schedule(x.ev("a", func() {
			x.k.Schedule(w, x.k.Now())
			x.k.Defer(y)
			next, ok := x.k.PeekNext()
			p := x.k.PendingEvents()
			if !ok || next != 5 || x.k.Pending() != 3 || len(p) != 3 || p[0].Name != "x" || p[1].Name != "y" || p[2].Name != "w" {
				t.Errorf("PeekNext = %v,%v, %d pending %+v; want x, y and w at 5, y keeping its entry",
					next, ok, x.k.Pending(), p)
			}
		}), 5)
		x.k.Schedule(x.ev("x", nil), 5)
		x.k.Schedule(y, 5)
		x.k.Run()
		check(t, x, "a,x,y,w", 3)
	})
}

// Two events at one tick that defer each other forever never let time
// advance, and no deferred fire is counted: the same-tick bound still trips,
// stamped with the tick, and its dump lists the deferred event.
func TestWatchdogSeesDeferredRuns(t *testing.T) {
	k := NewKernel()
	var ping, pong *Event
	ping = NewEvent("ping", func() { k.Defer(pong) })
	pong = NewEvent("pong", func() { k.Defer(ping) })
	k.Schedule(ping, 7)
	k.SetWatchdog(Watchdog{MaxSameTick: 1000})
	_, err := k.RunErr()
	var wd *WatchdogError
	if !errors.As(err, &wd) {
		t.Fatalf("RunErr = %v, want a *WatchdogError", err)
	}
	if wd.Now != 7 || wd.SameTick != 1000 || wd.Executed != 1 {
		t.Fatalf("tripped at %s after %d events, %d at the tick; want 7, 1 and 1000", wd.Now, wd.Executed, wd.SameTick)
	}
	// The 999th deferred fire is pong's, which deferred ping.
	if len(wd.Pending) != 1 || wd.Pending[0].Name != "ping" || wd.Pending[0].When != 7 || !strings.Contains(err.Error(), `"ping"`) {
		t.Fatalf("pending dump %+v, want ping, deferred, at 7:\n%v", wd.Pending, err)
	}
	if k.Pending() != 1 || !ping.Scheduled() {
		t.Fatalf("%d events pending after the trip, want ping", k.Pending())
	}
}
