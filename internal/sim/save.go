package sim

import "fmt"

// Checkpoint support. The kernel does not serialize its event queue: closures
// are not serializable, and a raw queue dump would tie the checkpoint format
// to queue internals. Instead each component captures the scheduling state of
// the events it owns (EventState) and re-creates them on restore through a
// Restorer, which commits the re-schedules in saved-seq order so same-tick,
// same-priority ties fire in exactly the order they would have in an
// uninterrupted run.

// EventState is the serializable scheduling state of one event occurrence.
// Seq is the kernel-assigned sequence number the event held at save time; it
// is only used to order deferred re-schedules during restore (restored events
// draw fresh seqs, but in an order isomorphic to the saved one).
type EventState struct {
	When      Tick   `json:"when"`
	Seq       uint64 `json:"seq"`
	Scheduled bool   `json:"scheduled"`
}

// Capture returns the event's current scheduling state for checkpointing.
// When and Seq are only meaningful while Scheduled is true, and an idle event
// captures as the zero state — whatever it last fired at — so that saving,
// restoring and saving again yields the same bytes.
func (e *Event) Capture() EventState {
	if !e.scheduled {
		return EventState{}
	}
	return EventState{When: e.when, Seq: e.seq, Scheduled: true}
}

// Clock is a kernel's serializable clock state: the current tick, the
// executed-event count, the same-tick run length the watchdog tracks, and
// the sequence number the next scheduling will draw.
type Clock struct {
	Now      Tick   `json:"now"`
	Executed uint64 `json:"executed"`
	SameTick uint64 `json:"sametick"`
	NextSeq  uint64 `json:"seq"`
}

// Restorer is handed to components while a checkpoint is being restored.
// Components deschedule any events their constructor armed, then register
// the clock warp for their kernel and defer the re-schedule of every event
// that was pending at save time. Nothing touches the kernel queue until the
// checkpoint manager commits: clocks warp first, then deferred re-schedules
// run ordered by their saved seq, each drawing exactly that seq again — a
// restored kernel is indistinguishable from the one that was saved, so
// saving it again yields the same bytes.
type Restorer interface {
	// WarpClock records that kernel k must resume at the given clock state.
	// Calling it more than once for the same kernel with identical state is
	// allowed (several components may share a kernel); conflicting states are
	// a restore error.
	WarpClock(k *Kernel, c Clock)
	// Defer registers fn to run at commit, ordered by the seq the
	// corresponding event held at save time. fn schedules exactly one event
	// (Schedule or Call) on the already warped kernel.
	Defer(seq uint64, fn func())
}

// ClockState returns the kernel's serializable clock state.
func (k *Kernel) ClockState() Clock {
	return Clock{Now: k.now, Executed: k.executed, SameTick: k.sameTick, NextSeq: k.nextSeq}
}

// RestoreClock warps the kernel to a checkpointed clock state. It requires
// that no events are pending — components must deschedule everything their
// constructors armed before the warp. Re-schedules for checkpointed events
// follow via Restorer.Defer.
func (k *Kernel) RestoreClock(c Clock) {
	if k.n != 0 {
		panic(fmt.Sprintf("sim: RestoreClock with %d events still pending (now %s)", k.n, k.now))
	}
	k.now = c.Now
	k.executed = c.Executed
	k.sameTick = c.SameTick
	k.nextSeq = c.NextSeq
}

// RestoreSeq sets the sequence number the next scheduling draws. Restore
// only: the checkpoint manager uses it so each deferred re-schedule gets its
// saved seq back.
func (k *Kernel) RestoreSeq(seq uint64) { k.nextSeq = seq }
