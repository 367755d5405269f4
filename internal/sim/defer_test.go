package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// runDeferProgram fires a seeded random programme of events whose callbacks
// schedule, deschedule and defer each other, half of them inside a deferral
// window, and returns the (tick, name) log of every callback run and the
// events the kernel fired. With windows off, Defer is Schedule(e, Now()).
func runDeferProgram(seed int64, windows bool) (log []string, fired uint64) {
	const events, budget = 8, 3000
	k := NewKernel()
	rng := rand.New(rand.NewSource(seed))
	evs := make([]*Event, events)
	act := func() {
		e := evs[rng.Intn(events)]
		switch r := rng.Intn(10); {
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
		window := i%2 == 0
		evs[i] = NewEventPri(fmt.Sprint("e", i), Priority(rng.Intn(3)-1), func() {
			log = append(log, fmt.Sprint(k.Now(), " e", i))
			if len(log) >= budget {
				return
			}
			if window && windows {
				k.BeginDefer()
			}
			for n := rng.Intn(4); n > 0; n-- {
				act()
			}
			if window && windows {
				k.EndDefer()
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
// programmes the callbacks run in the same order at the same ticks with
// deferral windows on and off, and the kernel fires fewer events with them
// on, the deferred events run in EndDefer's call.
func TestDeferKeepsScheduleOrder(t *testing.T) {
	inCall := uint64(0)
	for seed := int64(1); seed <= 200; seed++ {
		on, onFired := runDeferProgram(seed, true)
		off, offFired := runDeferProgram(seed, false)
		if i := slices.Compare(on, off); i != 0 {
			for j := range min(len(on), len(off)) {
				if on[j] != off[j] {
					t.Fatalf("seed %d: callback %d ran %q with windows, %q without", seed, j, on[j], off[j])
				}
			}
			t.Fatalf("seed %d: %d callbacks with windows, %d without", seed, len(on), len(off))
		}
		if onFired > offFired || uint64(len(on)) != offFired {
			t.Fatalf("seed %d: %d events fired with windows, %d without, for %d callbacks", seed, onFired, offFired, len(on))
		}
		inCall += offFired - onFired
	}
	if inCall == 0 {
		t.Error("no deferred event ran in EndDefer's call")
	}
}
