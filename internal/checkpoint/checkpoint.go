// Package checkpoint implements versioned, checksummed snapshots of a running
// simulation. Long experiments (the paper's pitch is making DRAM-controller
// simulation fast enough for full-system runs) survive crashes, watchdog
// trips and Ctrl-C only if state can be saved and resumed; gem5-family
// studies lean on checkpoints for exactly this reason.
//
// The design splits responsibility between a Manager and the components:
//
//   - Every stateful component implements Checkpointable: it serializes its
//     own fields and the scheduling state (when/seq) of the kernel events it
//     owns, and on restore re-creates those events itself. The kernel never
//     serializes its queue — closures are not serializable, and components
//     know how to rebuild their callbacks; the queue does not.
//
//   - Packet identity is preserved across components: a request becomes its
//     response in place and several components may hold it, so the Manager
//     owns a packet table. Components refer to packets by table reference
//     during save (mem.PacketTable) and re-link to the shared,
//     once-materialized instance during restore (mem.PacketLookup).
//
//   - Configuration identity is derived the same way: a component built
//     from static configuration states it (Configured), Save records what
//     every component stated, and Restore refuses — before touching any
//     component — a checkpoint whose statements differ from the freshly
//     built system's. No caller describes the configuration a second time.
//
//   - Determinism: restore is two-phase. Components only *register* work —
//     a clock warp for their kernel, and one deferred re-schedule per saved
//     event tagged with the event's saved sequence number. Commit applies
//     the clock warps first, then runs the deferred re-schedules in saved-seq
//     order. Kernel event order is (when, priority, seq); replaying the
//     schedules in saved-seq order makes the fresh seqs order-isomorphic to
//     the saved ones, so same-tick, same-priority ties fire exactly as in an
//     uninterrupted run — which is what makes resume bit-identical.
package checkpoint

import (
	"fmt"
	"sort"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Version is the checkpoint format version; bumped on any incompatible
// change to the framing, the body schema, a component's section schema, or
// the section names (v3: the body carries each component's stated
// configuration in place of a caller-written string; v4: the session states
// {Scope, Step} only; v5: a packet carries its return route through the
// crossbars, which save a count of requests in flight where v4 saved an
// origin table — a v4 file with requests behind a crossbar could not be
// answered, so every v4 file is refused here by version; v6: the controller
// images lost three configuration fields (a per-row access cap, per-rank
// fault scaling, the cycle model's idle skip) and the state carried for them
// and for QoS priorities, so a v5 file is refused at the header rather than
// by a diff against a field this build does not have).
const Version = 6

// Checkpointable is implemented by every component that owns simulation
// state. CheckpointSave returns a JSON-serializable image of the component
// (using pt for any *mem.Packet it holds). CheckpointRestore is called on a
// freshly constructed component: it must deschedule any events its
// constructor armed, parse data (the bytes its CheckpointSave produced),
// rebuild its fields, and register clock warps / deferred re-schedules with
// rs. It must not schedule on the kernel directly — the clock has not been
// warped yet when it runs.
type Checkpointable interface {
	CheckpointSave(pt mem.PacketTable) (any, error)
	CheckpointRestore(pl mem.PacketLookup, rs sim.Restorer, data []byte) error
}

// Configured is optionally implemented by a Checkpointable built from static
// configuration. CheckpointConfig returns that configuration as a plain
// JSON-able value — normally the component's own Config struct, so a field
// added there is covered without anyone listing it again. Save writes the
// image beside the component's section; Restore compares it with the freshly
// built component's and refuses on the first differing field, because
// resuming under a different configuration silently produces garbage. A
// field tagged `json:"-"` (probes, function values) is outside the
// comparison; the tag carries the reason, and TestExcludedConfigFields pins
// the list.
type Configured interface {
	CheckpointConfig() any
}

// Manager holds the registered components of one simulation, in a fixed
// order, and drives save and restore. Registration order must be
// reconstructible from the configuration alone (constructors register in a
// deterministic order), because restore matches sections to components by ID.
type Manager struct {
	ids   []string
	comps map[string]Checkpointable
	// described is configuration stated without a component (Describe).
	described []stated
}

// stated is one configuration image and the ID it is saved under.
type stated struct {
	id  string
	cfg any
}

// NewManager returns an empty manager.
func NewManager() *Manager {
	return &Manager{comps: make(map[string]Checkpointable)}
}

// Describe states configuration that belongs to no stateful component (the
// session's step quantum, the caller's scope label) under an ID of its own;
// it is saved and compared exactly like a Configured component's.
func (m *Manager) Describe(id string, cfg any) {
	m.described = append(m.described, stated{id, cfg})
}

// Register adds a component under a unique ID. Kernels (via WrapKernel)
// should be registered before the components scheduled on them, purely for
// readable section ordering — restore is two-phase, so correctness does not
// depend on it.
func (m *Manager) Register(id string, c Checkpointable) {
	if _, dup := m.comps[id]; dup {
		panic(fmt.Sprintf("checkpoint: duplicate component id %q", id))
	}
	if c == nil {
		panic(fmt.Sprintf("checkpoint: nil component %q", id))
	}
	m.ids = append(m.ids, id)
	m.comps[id] = c
}

// saveCtx implements mem.PacketTable: packets get dense refs in first-use
// order, which is deterministic because components save in registration
// order and each serializes its packets in a deterministic order.
type saveCtx struct {
	refs map[*mem.Packet]int
	pkts []*mem.Packet
}

func (c *saveCtx) PacketRef(p *mem.Packet) int {
	if p == nil {
		return -1
	}
	if ref, ok := c.refs[p]; ok {
		return ref
	}
	ref := len(c.pkts)
	c.refs[p] = ref
	c.pkts = append(c.pkts, p)
	return ref
}

// restoreCtx implements mem.PacketLookup and sim.Restorer.
type restoreCtx struct {
	pkts []*mem.Packet

	kernels []*sim.Kernel // first-warp order
	warps   map[*sim.Kernel]sim.Clock
	defers  []deferred
	err     error
}

type deferred struct {
	seq uint64
	fn  func()
}

func (c *restoreCtx) PacketByRef(ref int) *mem.Packet {
	if ref == -1 {
		return nil
	}
	if ref < 0 || ref >= len(c.pkts) {
		panic(fmt.Sprintf("checkpoint: packet ref %d out of range (table has %d)", ref, len(c.pkts)))
	}
	return c.pkts[ref]
}

func (c *restoreCtx) WarpClock(k *sim.Kernel, w sim.Clock) {
	if prev, ok := c.warps[k]; ok {
		if prev != w && c.err == nil {
			c.err = fmt.Errorf("checkpoint: conflicting clock warps for one kernel (%s/%d vs %s/%d)",
				prev.Now, prev.Executed, w.Now, w.Executed)
		}
		return
	}
	c.warps[k] = w
	c.kernels = append(c.kernels, k)
}

func (c *restoreCtx) Defer(seq uint64, fn func()) {
	c.defers = append(c.defers, deferred{seq: seq, fn: fn})
}

// commit applies the registered clock warps, then replays the deferred
// re-schedules in saved-seq order, handing each its saved seq back (seqs are
// per kernel and a deferred call does not say which kernel it schedules on,
// so every kernel's counter is positioned; the saved counters go back last).
func (c *restoreCtx) commit() error {
	if c.err != nil {
		return c.err
	}
	for _, k := range c.kernels {
		k.RestoreClock(c.warps[k])
	}
	sort.SliceStable(c.defers, func(i, j int) bool { return c.defers[i].seq < c.defers[j].seq })
	for _, d := range c.defers {
		for _, k := range c.kernels {
			k.RestoreSeq(d.seq)
		}
		d.fn()
	}
	for _, k := range c.kernels {
		k.RestoreSeq(c.warps[k].NextSeq)
	}
	return nil
}
