// Package obs is the unified observability layer: one typed event stream
// out of the simulation core, fanned out to any number of probes. It
// replaces the ad-hoc per-hook approach (the old core.Config.CommandListener
// carried exactly one listener and existed only for the event-based
// controller) with a single registration point every model shares — the
// event-based controller, the cycle-based baseline and the crossbar all emit
// the same event vocabulary.
//
// Design constraints, in order:
//
//   - Zero cost when disabled. Components keep a *Hub that is nil when no
//     probe is attached, so the disabled hot path is a single pointer
//     comparison (see BenchmarkNoProbeOverhead at the repository root).
//   - Deterministic. Probes run synchronously on the emitting component's
//     kernel goroutine, in emission order; nothing in this package consults
//     wall-clock time or global randomness, so any probe-derived output can
//     be byte-identical across runs (the tracer's tests assert exactly
//     that).
//   - Composable. A probe is one method; built-ins (Tracer, Sampler,
//     CommandFunc) cover lifecycle tracing, time-series metrics and the
//     DRAMPower-style command-trace analysis without the core knowing any
//     of them.
package obs

import (
	"repro/internal/mem"
	"repro/internal/power"
	"repro/internal/sim"
)

// Queue identifies which controller queue an admission event refers to.
type Queue int

// Controller queues. The cycle-based baseline has a single unified
// transaction queue; it reports reads under QueueRead and writes under
// QueueWrite so probes see one vocabulary.
const (
	QueueRead Queue = iota
	QueueWrite
)

// String names the queue.
func (q Queue) String() string {
	if q == QueueRead {
		return "read"
	}
	return "write"
}

// Event is one instrumented occurrence inside the simulation: one of the
// struct types below. Every one carries the emitting component's instance
// name (Src: "mc", "mc3", "xbar", ...) and the tick it describes;
// command-like events may be stamped with a *future* tick, exactly as the
// event-based controller books DRAM commands ahead of time. The hub only
// passes events on, so the type asks nothing of them: a probe switches on the
// concrete type.
type Event any

// PacketEnqueued reports a system packet accepted into a component's queue:
// the start of the packet's lifecycle inside that component.
type PacketEnqueued struct {
	Src    string
	At     sim.Tick
	Pkt    *mem.Packet
	Queue  Queue
	Bursts int // DRAM bursts the packet decomposed into (0 if fully forwarded)
}

// QueueAdmit reports the queue-level flow-control decision that admitted a
// packet, with the queue depth before admission.
type QueueAdmit struct {
	Src   string
	At    sim.Tick
	Queue Queue
	Depth int
}

// QueueRefuse reports a packet refused for lack of queue space; the
// requestor will be woken by the usual retry handshake.
type QueueRefuse struct {
	Src   string
	At    sim.Tick
	Queue Queue
	Depth int
}

// DRAMCommand reports one DRAM bus command (ACT/PRE/RD/WR/REF) exactly as
// the old CommandListener hook delivered it; Cmd.At may be in the future.
type DRAMCommand struct {
	Src string
	Cmd power.Command
}

// BurstScheduled reports a column access (data transfer) booked on the data
// bus: the command issues at At and the data occupies the bus until DataEnd.
// Pkt links the burst back to the system packet it serves; it is nil for
// traffic with no system packet (event-model writes are decoupled from
// their early-acknowledged request, scrub writebacks are internal).
type BurstScheduled struct {
	Src     string
	At      sim.Tick
	Pkt     *mem.Packet
	Read    bool
	Rank    int
	Bank    int
	Row     uint64
	DataEnd sim.Tick
}

// ResponseSent reports a response leaving the component toward the
// requestor: the end of the packet's lifecycle inside that component. It is
// emitted before the send, while the packet is still the component's (an
// accepted response may be back in its requestor's pool at once), so a
// refused response's span ends at its first attempt.
type ResponseSent struct {
	Src string
	At  sim.Tick
	Pkt *mem.Packet
}

// RefreshStart reports a refresh window opening at At and blocking until
// Until (the controller knows the window length up front, so there is no
// closing event). Bank is -1 for an all-bank refresh.
type RefreshStart struct {
	Src   string
	At    sim.Tick
	Rank  int
	Bank  int
	Until sim.Tick
}

// WriteDrainEnter reports the bus turning around into write-drain mode.
type WriteDrainEnter struct {
	Src      string
	At       sim.Tick
	QueueLen int // write queue length at the switch
}

// WriteDrainExit reports the bus turning back to reads.
type WriteDrainExit struct {
	Src    string
	At     sim.Tick
	Writes int // writes drained during the episode
}

// Probe consumes events. HandleEvent runs synchronously on the emitting
// kernel's goroutine and must not block.
type Probe interface {
	HandleEvent(ev Event)
}

// Hub is the registration point components emit through. Attach every probe
// before handing the hub to a component constructor: constructors snapshot
// the hub via OrNil, so a hub that is still empty at construction time
// costs the component nothing, ever.
type Hub struct {
	probes []Probe
}

// NewHub returns an empty hub.
func NewHub() *Hub { return &Hub{} }

// Attach adds a probe to the fan-out, in order.
func (h *Hub) Attach(p Probe) {
	if p == nil {
		panic("obs: attaching nil probe")
	}
	h.probes = append(h.probes, p)
}

// OrNil normalizes "no observation requested" to a nil hub: components
// store the result and the disabled fast path is one pointer comparison.
func (h *Hub) OrNil() *Hub {
	if h == nil || len(h.probes) == 0 {
		return nil
	}
	return h
}

// Emit fans an event out to every attached probe, in attachment order.
func (h *Hub) Emit(ev Event) {
	for _, p := range h.probes {
		p.HandleEvent(ev)
	}
}

// CommandFunc adapts a plain DRAM-command consumer into a Probe, as in
// hub.Attach(obs.CommandFunc(trace.Record)). It stays for bench/, the power
// study and the command-trace tests until power.CommandTrace is a probe
// itself (ROADMAP item 7).
type CommandFunc func(power.Command)

// HandleEvent forwards DRAMCommand events and ignores the rest.
func (f CommandFunc) HandleEvent(ev Event) {
	if c, ok := ev.(DRAMCommand); ok {
		f(c.Cmd)
	}
}
