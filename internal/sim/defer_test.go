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
// of every callback run and the events the kernel fired. With ring set, Defer
// is Schedule(e, Now()) (ScheduleDeferred).
func runDeferProgram(seed int64, ring bool) (log []string, fired uint64) {
	defer func(was bool) { ScheduleDeferred = was }(ScheduleDeferred)
	ScheduleDeferred = ring
	const events, budget = 8, 3000
	k := NewKernel()
	rng := rand.New(rand.NewSource(seed))
	evs := make([]*Event, events)
	act := func() {
		e := evs[rng.Intn(events)]
		switch r := rng.Intn(10); {
		case e.Scheduled() && e.When() == k.Now() && r < 3:
			k.Defer(e) // keeps its key
		case e.Scheduled():
			if r < 3 {
				k.Deschedule(e)
			}
		case r < 4:
			k.Defer(e)
		default:
			k.Schedule(e, k.Now()+Tick([]int{0, 0, 1, 2, 5}[r%5]))
		}
	}
	for i := range evs {
		evs[i] = NewEventPri(fmt.Sprint("e", i), Priority(rng.Intn(3)-1), func() {
			log = append(log, fmt.Sprint(k.Now(), " e", i))
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
	return log, k.EventsExecuted()
}

// TestDeferKeepsScheduleOrder holds Defer to Schedule(e, Now()): over seeded
// programmes the callbacks run in the same order at the same ticks with the
// deferred events held out of the ring and with them scheduled into it, and
// the kernel fires fewer events when they are held out, since those that fire
// while nothing in the ring is due are not counted.
func TestDeferKeepsScheduleOrder(t *testing.T) {
	uncounted := uint64(0)
	for seed := int64(1); seed <= 200; seed++ {
		held, heldFired := runDeferProgram(seed, false)
		ring, ringFired := runDeferProgram(seed, true)
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
		uncounted += ringFired - heldFired
	}
	if uncounted == 0 {
		t.Error("no deferred event ran outside the ring")
	}
}

// FuzzDeferKeepsScheduleOrder is TestDeferKeepsScheduleOrder over any seed:
// the held and the scheduled runs log the same callbacks, and holding fires
// no more ring events than scheduling does.
func FuzzDeferKeepsScheduleOrder(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 1000} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		held, heldFired := runDeferProgram(seed, false)
		ring, ringFired := runDeferProgram(seed, true)
		if !slices.Equal(held, ring) {
			t.Fatalf("seed %d: deferred and scheduled runs logged different callbacks", seed)
		}
		if heldFired > ringFired {
			t.Fatalf("seed %d: %d events fired deferred, %d scheduled", seed, heldFired, ringFired)
		}
	})
}

// TestDeferredWaitsBesideTheRing: a deferred event never enters the ring. Run
// fires whichever comes first by key, the ring's head or the first deferred
// event, and counts only ring fires, whatever else is due at the tick.
func TestDeferredWaitsBesideTheRing(t *testing.T) {
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

	t.Run("pending now, not the head", func(t *testing.T) {
		x := newKit()
		y, w := x.ev("y", nil), x.ev("w", nil)
		x.k.Schedule(x.ev("a", func() {
			x.k.Schedule(w, x.k.Now())
			x.k.Defer(y)
			if x.k.n != 2 || x.k.deferredAt(y) != 0 || x.k.Pending() != 3 {
				t.Errorf("%d ring events, y deferred at %d; want x and w in the ring, y beside it",
					x.k.n, x.k.deferredAt(y))
			}
		}), 5)
		x.k.Schedule(x.ev("x", nil), 5)
		x.k.Schedule(y, 5)
		x.k.Run()
		check(t, x, "a,x,y,w", 3)
	})
}

// Two events at one tick that defer each other forever never leave the
// deferred-run loop, and no fire is counted: the same-tick bound still trips,
// stamped with the tick, and its dump lists the deferred event from beside
// the ring.
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
