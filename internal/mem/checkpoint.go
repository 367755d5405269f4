package mem

import (
	"fmt"

	"repro/internal/sim"
)

// Checkpoint support for the memory layer. Packet *identity* matters in this
// model — a request becomes its response in place, and a controller's queues
// alias the transaction they belong to — so a checkpoint cannot serialize
// packets inline per component. Instead the checkpoint manager owns a packet
// table: during save every component refers to packets by table reference
// (PacketTable), and during restore the manager materializes each saved
// packet exactly once, return route included, and components re-link to the
// shared instance (PacketLookup).

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
	// Route is empty unless the packet is behind a crossbar.
	Route []RouteHop `json:"route,omitempty"`
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
		Route: append([]RouteHop(nil), p.Route()...),
	}, nil
}

// Materialize rebuilds the packet from its saved image. A route deeper than
// a packet can hold is an error; whether its hops name a real crossbar side
// is for the crossbar to judge.
func (ps PacketState) Materialize() (*Packet, error) {
	p := &Packet{
		Cmd: ps.Cmd, Addr: ps.Addr, Size: ps.Size,
		RequestorID: ps.RequestorID, IssueTick: ps.IssueTick, Poisoned: ps.Poisoned,
	}
	for _, h := range ps.Route {
		if !p.PushRoute(h) {
			return nil, fmt.Errorf("mem: packet %s: saved route has %d hops, a packet holds %d", p, len(ps.Route), RouteDepth)
		}
	}
	return p, nil
}
