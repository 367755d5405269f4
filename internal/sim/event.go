package sim

// Priority orders events that are scheduled for the same tick. Lower values
// execute first. The bands below mirror gem5's conventions: component wiring
// and statistics run around the "default" band used by ordinary model events.
type Priority int

// Priority bands for same-tick ordering.
const (
	// MinPriority executes before everything else on a tick.
	MinPriority Priority = -100
	// StatsPriority is used by statistics dump/reset events.
	StatsPriority Priority = -50
	// DefaultPriority is used by ordinary model events.
	DefaultPriority Priority = 0
	// CPUPriority makes CPU ticks run after memory responses delivered on
	// the same tick, so a response arriving "now" is visible "now".
	CPUPriority Priority = 31
	// MaxPriority executes after everything else on a tick.
	MaxPriority Priority = 100
)

// Event is a callback scheduled to run at an absolute tick. Create events
// with NewEvent and schedule them through a Kernel. An Event is not safe for
// concurrent use; the kernel is single-threaded by design (determinism is a
// stated requirement of the model).
type Event struct {
	name     string
	callback func()
	priority Priority

	// Managed by the kernel/queue:
	when      Tick
	seq       uint64 // drawn at every (re)schedule; with when and priority, the queue key
	scheduled bool
	pooled    bool // owned by the kernel's event pool (created via Kernel.Call)
}

// NewEvent returns an event that invokes callback when it fires. The name is
// used in diagnostics only.
func NewEvent(name string, callback func()) *Event {
	return &Event{name: name, callback: callback, priority: DefaultPriority}
}

// NewEventPri returns an event with an explicit same-tick priority.
func NewEventPri(name string, pri Priority, callback func()) *Event {
	return &Event{name: name, callback: callback, priority: pri}
}

// Name returns the diagnostic name given at construction.
func (e *Event) Name() string { return e.name }

// Scheduled reports whether the event currently sits in a kernel's queue.
func (e *Event) Scheduled() bool { return e.scheduled }

// When returns the tick the event is scheduled for; only meaningful while
// Scheduled() is true.
func (e *Event) When() Tick { return e.when }
