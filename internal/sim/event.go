package sim

// Priority orders events that are scheduled for the same tick. Lower values
// execute first. The bands below mirror gem5's conventions: component wiring
// and statistics run around the "default" band used by ordinary model events.
// It is 32 bits wide so that an Event, census fields included, fills one
// 64-byte allocation.
type Priority int32

// Priority bands for same-tick ordering.
const (
	// MinPriority executes before everything else on a tick.
	MinPriority Priority = -100
	// StatsPriority is used by statistics dump/reset events.
	StatsPriority Priority = -50
	// DefaultPriority is used by ordinary model events.
	DefaultPriority Priority = 0
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

	// Managed by the kernel/queue:
	when      Tick
	seq       uint64 // drawn at every (re)schedule; with when and priority, the queue key
	priority  Priority
	scheduled bool
	pooled    bool // owned by the kernel's event pool (created via Kernel.Call)
	uncounted bool // made due by Kernel.Defer: its fire is not counted

	// fires counts the event's firings; censusNext links the events that
	// have fired into their kernel's census list (Kernel.Census).
	fires      uint64
	censusNext *Event
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
