package sim

import (
	"errors"
	"strings"
	"testing"
)

// A deliberately self-deadlocking harness: two events endlessly retry each
// other at the same tick, the DES signature of a protocol deadlock. The
// watchdog must catch it, with a queue dump, instead of hanging.
func TestWatchdogCatchesLivelock(t *testing.T) {
	k := NewKernel()
	var a, b *Event
	a = NewEvent("ping", func() { k.Schedule(b, k.Now()) })
	b = NewEvent("pong", func() { k.Schedule(a, k.Now()) })
	k.Schedule(a, 10*Nanosecond)
	k.SetWatchdog(Watchdog{MaxSameTick: 1000})

	_, err := k.RunErr()
	var we *WatchdogError
	if !errors.As(err, &we) {
		t.Fatalf("RunErr = %v, want *WatchdogError", err)
	}
	if we.Now != 10*Nanosecond {
		t.Fatalf("trip at %s, want 10ns", we.Now)
	}
	if we.SameTick < 1000 {
		t.Fatalf("same-tick count = %d", we.SameTick)
	}
	if len(we.Pending) != 1 {
		t.Fatalf("pending = %v", we.Pending)
	}
	msg := err.Error()
	for _, want := range []string{"livelock", "10ns", "ping", "pending"} {
		if !strings.Contains(msg, want) && !strings.Contains(msg, "pong") {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
}

func TestWatchdogMaxEvents(t *testing.T) {
	k := NewKernel()
	var tick *Event
	n := 0
	tick = NewEvent("tick", func() {
		n++
		k.Schedule(tick, k.Now()+Nanosecond)
	})
	k.Schedule(tick, 0)
	k.SetWatchdog(Watchdog{MaxEvents: 50})
	_, err := k.RunErr()
	var we *WatchdogError
	if !errors.As(err, &we) {
		t.Fatalf("RunErr = %v, want *WatchdogError", err)
	}
	if we.Executed != 50 || n != 50 {
		t.Fatalf("executed = %d (fired %d), want 50", we.Executed, n)
	}
	if !strings.Contains(err.Error(), "event limit 50") {
		t.Fatalf("error %q missing reason", err.Error())
	}
}

// RunUntilErr honours the watchdog too, and the panicking Run wrapper
// carries the dump in its message.
func TestWatchdogRunUntilAndPanicPath(t *testing.T) {
	k := NewKernel()
	var spin *Event
	spin = NewEvent("spin", func() { k.Schedule(spin, k.Now()) })
	k.Schedule(spin, 0)
	k.SetWatchdog(Watchdog{MaxSameTick: 100})
	if _, err := k.RunUntilErr(Second); err == nil {
		t.Fatal("RunUntilErr did not trip")
	}

	k2 := NewKernel()
	var spin2 *Event
	spin2 = NewEvent("spin2", func() { k2.Schedule(spin2, k2.Now()) })
	k2.Schedule(spin2, 0)
	k2.SetWatchdog(Watchdog{MaxSameTick: 100})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run did not panic on watchdog trip")
		}
		if !strings.Contains(r.(string), "spin2") {
			t.Fatalf("panic %q missing queue dump", r)
		}
	}()
	k2.Run()
}

// A healthy simulation with many same-tick events below the threshold is
// unaffected by the watchdog.
func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	k := NewKernel()
	k.SetWatchdog(Watchdog{MaxEvents: 10000, MaxSameTick: 100})
	fired := 0
	for i := 0; i < 50; i++ {
		k.Schedule(NewEvent("e", func() { fired++ }), Tick(i%5)*Nanosecond)
	}
	if _, err := k.RunErr(); err != nil {
		t.Fatalf("healthy run tripped: %v", err)
	}
	if fired != 50 {
		t.Fatalf("fired = %d", fired)
	}
	if (Watchdog{}).Enabled() {
		t.Fatal("zero watchdog enabled")
	}
	if !(Watchdog{MaxEvents: 1}).Enabled() {
		t.Fatal("watchdog with MaxEvents not enabled")
	}
}

// PendingEvents snapshots the queue in execution order.
func TestPendingEvents(t *testing.T) {
	k := NewKernel()
	k.Schedule(NewEvent("late", func() {}), 30*Nanosecond)
	k.Schedule(NewEvent("early", func() {}), 10*Nanosecond)
	k.Schedule(NewEventPri("first", MinPriority, func() {}), 10*Nanosecond)
	got := k.PendingEvents()
	want := []string{"first", "early", "late"}
	if len(got) != len(want) {
		t.Fatalf("pending = %v", got)
	}
	for i, name := range want {
		if got[i].Name != name {
			t.Fatalf("pending[%d] = %q, want %q", i, got[i].Name, name)
		}
	}
}

// Descheduled events must not appear in diagnostics dumps.
func TestPendingEventsSkipsTombstones(t *testing.T) {
	k := NewKernel()
	dead := NewEvent("dead", func() {})
	k.Schedule(dead, 20*Nanosecond)
	k.Schedule(NewEvent("alive", func() {}), 10*Nanosecond)
	deadFar := NewEvent("deadFar", func() {})
	k.Schedule(deadFar, Second)
	k.Deschedule(dead)
	k.Deschedule(deadFar)
	got := k.PendingEvents()
	if len(got) != 1 || got[0].Name != "alive" {
		t.Fatalf("pending = %v, want just \"alive\"", got)
	}
	if k.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", k.Pending())
	}
}
