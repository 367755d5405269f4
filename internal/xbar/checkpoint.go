package xbar

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Checkpoint support for the crossbar. The crossbar routes responses by
// packet identity, so its origin map is serialized as (packet ref, side)
// pairs; the checkpoint manager's shared packet table guarantees the same
// *mem.Packet instance is rematerialized for the crossbar and for whichever
// controller or generator also holds it.

// queuedState is a serialized outQueue entry.
type queuedState struct {
	Pkt     int      `json:"pkt"`
	ReadyAt sim.Tick `json:"readyAt"`
}

// outQueueState mirrors outQueue.
type outQueueState struct {
	Items    []queuedState  `json:"items,omitempty"`
	Blocked  bool           `json:"blocked,omitempty"`
	NextSend sim.Tick       `json:"nextSend,omitempty"`
	Send     sim.EventState `json:"send"`
}

// originState is one in-flight request: which requestor side its response
// returns to.
type originState struct {
	Pkt  int `json:"pkt"`
	Side int `json:"side"`
}

// xbarState is the crossbar's full serialized image.
type xbarState struct {
	Origin   []originState   `json:"origin,omitempty"`
	ReqSides []reqSideState  `json:"reqSides"`
	MemSides []outQueueState `json:"memSides"`
}

// reqSideState mirrors reqSide.
type reqSideState struct {
	RespQ        outQueueState `json:"respQ"`
	WaitingRetry bool          `json:"waitingRetry,omitempty"`
}

func (q *outQueue) save(pt mem.PacketTable) outQueueState {
	st := outQueueState{Blocked: q.blocked, NextSend: q.nextSend, Send: q.sendEv.Capture()}
	// Oldest first, wherever the ring's head sits: the image does not depend
	// on how far the ring has wrapped.
	for i := 0; i < q.items.Len(); i++ {
		pkt, readyAt := q.items.At(i)
		st.Items = append(st.Items, queuedState{Pkt: pt.PacketRef(pkt), ReadyAt: readyAt})
	}
	return st
}

func (q *outQueue) restore(pl mem.PacketLookup, rs sim.Restorer, st outQueueState) {
	if q.sendEv.Scheduled() {
		q.k.Deschedule(q.sendEv)
	}
	for q.items.Len() > 0 {
		q.items.Pop()
	}
	for _, it := range st.Items {
		q.items.Push(pl.PacketByRef(it.Pkt), it.ReadyAt)
	}
	q.blocked = st.Blocked
	q.nextSend = st.NextSend
	if st.Send.Scheduled {
		when := st.Send.When
		rs.Defer(st.Send.Seq, func() { q.k.Schedule(q.sendEv, when) })
	}
}

// CheckpointConfig implements checkpoint.Configured: the crossbar's Config
// plus how many ports were attached to each side.
func (x *Crossbar) CheckpointConfig() any {
	return struct {
		Config
		Requestors, Memories int
	}{x.cfg, len(x.reqSides), len(x.memSides)}
}

// CheckpointSave implements checkpoint.Checkpointable.
func (x *Crossbar) CheckpointSave(pt mem.PacketTable) (any, error) {
	st := xbarState{}
	for pkt, side := range x.origin {
		st.Origin = append(st.Origin, originState{Pkt: pt.PacketRef(pkt), Side: side})
	}
	// Map iteration order is random; sort by packet ref so identical state
	// always serializes to identical bytes.
	sort.Slice(st.Origin, func(i, j int) bool { return st.Origin[i].Pkt < st.Origin[j].Pkt })
	for _, rs := range x.reqSides {
		st.ReqSides = append(st.ReqSides, reqSideState{RespQ: rs.respQ.save(pt), WaitingRetry: rs.waitingRetry})
	}
	for _, ms := range x.memSides {
		st.MemSides = append(st.MemSides, ms.reqQ.save(pt))
	}
	return st, nil
}

// CheckpointRestore implements checkpoint.Checkpointable on a freshly
// constructed crossbar with the same attachment order.
func (x *Crossbar) CheckpointRestore(pl mem.PacketLookup, rst sim.Restorer, data []byte) error {
	var st xbarState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("xbar: %s restore: %w", x.name, err)
	}
	if len(st.ReqSides) != len(x.reqSides) || len(st.MemSides) != len(x.memSides) {
		return fmt.Errorf("xbar: %s: checkpoint has %d/%d sides, crossbar has %d/%d",
			x.name, len(st.ReqSides), len(st.MemSides), len(x.reqSides), len(x.memSides))
	}
	x.origin = make(map[*mem.Packet]int, len(st.Origin))
	for _, o := range st.Origin {
		if o.Side < 0 || o.Side >= len(x.reqSides) {
			return fmt.Errorf("xbar: %s: origin references side %d of %d", x.name, o.Side, len(x.reqSides))
		}
		x.origin[pl.PacketByRef(o.Pkt)] = o.Side
	}
	for i, rs := range x.reqSides {
		rs.respQ.restore(pl, rst, st.ReqSides[i].RespQ)
		rs.waitingRetry = st.ReqSides[i].WaitingRetry
	}
	for i, ms := range x.memSides {
		ms.reqQ.restore(pl, rst, st.MemSides[i])
	}
	return nil
}
