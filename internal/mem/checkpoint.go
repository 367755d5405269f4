package mem

import (
	"encoding/json"
	"fmt"

	"repro/internal/sim"
)

// Checkpoint support for the memory layer. Packet *identity* matters in this
// model — the crossbar routes a response by looking up the same pointer it
// forwarded as a request, and a controller's queues alias the transaction
// they belong to — so a checkpoint cannot serialize packets inline per
// component. Instead the checkpoint manager owns a packet table: during save
// every component refers to packets by table reference (PacketTable), and
// during restore the manager materializes each saved packet exactly once and
// components re-link to the shared instance (PacketLookup).

// PacketTable assigns stable integer references to live packets during a
// checkpoint save. Asking twice for the same packet returns the same ref.
type PacketTable interface {
	PacketRef(p *Packet) int
}

// PacketLookup resolves packet references during a checkpoint restore. Every
// call with the same ref returns the same materialized *Packet.
type PacketLookup interface {
	PacketByRef(ref int) *Packet
}

// PacketState is the serializable image of one Packet.
type PacketState struct {
	Cmd         Cmd      `json:"cmd"`
	Addr        Addr     `json:"addr"`
	Size        uint64   `json:"size"`
	RequestorID int      `json:"requestor"`
	IssueTick   sim.Tick `json:"issue"`
	Poisoned    bool     `json:"poisoned,omitempty"`
}

// SaveState captures the packet for checkpointing. Packets carrying Meta are
// not serializable (Meta is requestor-private and opaque); checkpointing a
// system whose requestors attach Meta is an error, reported cleanly.
func (p *Packet) SaveState() (PacketState, error) {
	if p.Meta != nil {
		return PacketState{}, fmt.Errorf("mem: packet %s carries non-nil Meta; not checkpointable", p)
	}
	return PacketState{
		Cmd: p.Cmd, Addr: p.Addr, Size: p.Size,
		RequestorID: p.RequestorID, IssueTick: p.IssueTick, Poisoned: p.Poisoned,
	}, nil
}

// Materialize rebuilds the packet from its saved image.
func (ps PacketState) Materialize() *Packet {
	return &Packet{
		Cmd: ps.Cmd, Addr: ps.Addr, Size: ps.Size,
		RequestorID: ps.RequestorID, IssueTick: ps.IssueTick, Poisoned: ps.Poisoned,
	}
}

// linkEntryState is one undelivered in-flight packet on a pipe.
type linkEntryState struct {
	At  sim.Tick `json:"at"`
	Pkt int      `json:"pkt"`
}

// linkPipeState is one direction of a ShardLink.
type linkPipeState struct {
	Blocked bool             `json:"blocked,omitempty"`
	Inbox   []linkEntryState `json:"inbox,omitempty"`
	Drain   sim.EventState   `json:"drain"`
}

// linkState is the serializable image of a ShardLink.
type linkState struct {
	Req  linkPipeState `json:"req"`
	Resp linkPipeState `json:"resp"`
}

func (p *pipe) save(pt PacketTable) (linkPipeState, error) {
	if len(p.outbox) != 0 {
		// Checkpoints are taken at quantum barriers after Flush, where every
		// outbox is empty. A populated outbox means the caller broke that rule.
		return linkPipeState{}, fmt.Errorf("mem: link %q checkpointed with %d unflushed packets", p.name, len(p.outbox))
	}
	st := linkPipeState{Blocked: p.blocked, Drain: p.drain.Capture()}
	for _, ent := range p.inbox[p.head:] {
		st.Inbox = append(st.Inbox, linkEntryState{At: ent.at, Pkt: pt.PacketRef(ent.pkt)})
	}
	return st, nil
}

func (p *pipe) restore(pl PacketLookup, rs sim.Restorer, st linkPipeState) {
	// A freshly constructed pipe has nothing scheduled; only state needs
	// rebuilding, plus a deferred re-arm of the drain event if it was pending.
	p.blocked = st.Blocked
	p.outbox = p.outbox[:0]
	p.inbox = p.inbox[:0]
	p.head = 0
	for _, ent := range st.Inbox {
		p.inbox = append(p.inbox, timedPkt{at: ent.At, pkt: pl.PacketByRef(ent.Pkt)})
	}
	if st.Drain.Scheduled {
		when := st.Drain.When
		rs.Defer(st.Drain.Seq, func() { p.dst.Schedule(p.drain, when) })
	}
}

// CheckpointConfig implements checkpoint.Configured: the link's one knob is
// its latency, which is also the sharded session's barrier quantum.
func (l *ShardLink) CheckpointConfig() any {
	return struct{ Latency sim.Tick }{l.latency}
}

// CheckpointSave captures both directions of the link. It must be called at a
// quantum barrier, after Flush, so the outboxes are empty.
func (l *ShardLink) CheckpointSave(pt PacketTable) (any, error) {
	req, err := l.req.save(pt)
	if err != nil {
		return nil, err
	}
	resp, err := l.resp.save(pt)
	if err != nil {
		return nil, err
	}
	return linkState{Req: req, Resp: resp}, nil
}

// CheckpointRestore rebuilds the link's buffered traffic and re-arms its
// delivery events through the restorer.
func (l *ShardLink) CheckpointRestore(pl PacketLookup, rs sim.Restorer, data []byte) error {
	var st linkState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("mem: link restore: %w", err)
	}
	l.req.restore(pl, rs, st.Req)
	l.resp.restore(pl, rs, st.Resp)
	return nil
}
