package sim

import (
	"fmt"
	"strings"
)

// Watchdog bounds a simulation run so that a buggy model fails loudly and
// diagnosably instead of hanging the host or spinning forever at one tick.
// The zero value disables both checks; set it on a kernel with SetWatchdog.
//
// A discrete-event simulation cannot "hang" in the conventional sense — it
// can only (a) execute events without bound, or (b) execute events without
// simulated time ever advancing (a same-tick livelock, the DES equivalent of
// a deadlock: two components endlessly retrying each other at one instant).
// MaxEvents catches (a), MaxSameTick catches (b).
type Watchdog struct {
	// MaxEvents trips the watchdog once this many events have executed in
	// total (0 disables). Use it as a hard ceiling on runaway simulations.
	MaxEvents uint64
	// MaxSameTick trips the watchdog when this many consecutive events
	// execute without the simulated tick advancing (0 disables). Real
	// same-tick bursts are bounded by the component count, so a generous
	// threshold (e.g. 100000) only fires on genuine livelock.
	MaxSameTick uint64
}

// Enabled reports whether any check is active.
func (w Watchdog) Enabled() bool { return w.MaxEvents > 0 || w.MaxSameTick > 0 }

// SetWatchdog installs (or, with the zero value, removes) the kernel's
// watchdog. It may be changed between runs.
func (k *Kernel) SetWatchdog(w Watchdog) { k.wd = w }

// QueuedEvent is one pending event in a watchdog dump.
type QueuedEvent struct {
	Name     string
	When     Tick
	Priority Priority
}

// PendingEvents returns a snapshot of the scheduled events in execution
// order (when, priority, schedule order), for diagnostics.
func (k *Kernel) PendingEvents() []QueuedEvent {
	out := make([]QueuedEvent, k.n)
	for i := range out {
		ent := k.at(i)
		out[i] = QueuedEvent{Name: ent.ev.name, When: ent.when, Priority: ent.pri}
	}
	return out
}

// WatchdogError reports a tripped watchdog, carrying enough state to debug
// the stall: what tripped, where simulated time stood, and the pending event
// queue with names and ticks.
type WatchdogError struct {
	// Reason says which bound tripped and its value.
	Reason string
	// Now is the simulated tick at the trip.
	Now Tick
	// Executed is the total number of events fired.
	Executed uint64
	// SameTick is how many consecutive events ran without time advancing.
	SameTick uint64
	// Pending is the event queue at the trip, in execution order.
	Pending []QueuedEvent
}

// dumpLimit bounds how many pending events an error message renders; the
// full queue is still available via the Pending field.
const dumpLimit = 32

// Error formats the failure with the event-queue dump.
func (e *WatchdogError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: watchdog: %s at %s after %d events (%d at this tick); %d pending:",
		e.Reason, e.Now, e.Executed, e.SameTick, len(e.Pending))
	for i, q := range e.Pending {
		if i >= dumpLimit {
			fmt.Fprintf(&b, "\n  ... and %d more", len(e.Pending)-dumpLimit)
			break
		}
		fmt.Fprintf(&b, "\n  %-40q at %s (priority %d)", q.Name, q.When, int(q.Priority))
	}
	return b.String()
}

// checkWatchdog evaluates the bounds before the next event fires.
func (k *Kernel) checkWatchdog() *WatchdogError {
	var reason string
	switch {
	case k.wd.MaxEvents > 0 && k.executed >= k.wd.MaxEvents:
		reason = fmt.Sprintf("event limit %d reached", k.wd.MaxEvents)
	case k.wd.MaxSameTick > 0 && k.sameTick >= k.wd.MaxSameTick:
		reason = fmt.Sprintf("no progress: %d events without time advancing (livelock)", k.sameTick)
	default:
		return nil
	}
	return &WatchdogError{
		Reason:   reason,
		Now:      k.now,
		Executed: k.executed,
		SameTick: k.sameTick,
		Pending:  k.PendingEvents(),
	}
}
