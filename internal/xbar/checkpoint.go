package xbar

import (
	"encoding/json"
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Checkpoint support for the crossbar. The way back travels in each packet
// (mem.PacketState.Route), so the crossbar saves its queues, its retry flags
// (requestors waiting to send, memory sides refused a response) and how many
// requests it has in flight; the checkpoint manager's shared packet table
// guarantees the same *mem.Packet instance is rematerialized for the crossbar
// and for whichever controller or generator also holds it.

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

// xbarState is the crossbar's full serialized image.
type xbarState struct {
	InFlight int            `json:"inFlight,omitempty"`
	ReqSides []reqSideState `json:"reqSides"`
	MemSides []memSideState `json:"memSides"`
}

// reqSideState mirrors reqSide.
type reqSideState struct {
	RespQ        outQueueState `json:"respQ"`
	WaitingRetry bool          `json:"waitingRetry,omitempty"`
}

// memSideState mirrors memSide. The queue's fields are embedded, so an image
// with no refused side reads as the bare queue.
type memSideState struct {
	outQueueState
	RespRefused bool `json:"respRefused,omitempty"`
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
	st := xbarState{InFlight: x.inFlight}
	for _, rs := range x.reqSides {
		st.ReqSides = append(st.ReqSides, reqSideState{RespQ: rs.respQ.save(pt), WaitingRetry: rs.waitingRetry})
	}
	for _, ms := range x.memSides {
		st.MemSides = append(st.MemSides, memSideState{ms.reqQ.save(pt), ms.respRefused})
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
	for i, rs := range x.reqSides {
		rs.respQ.restore(pl, rst, st.ReqSides[i].RespQ)
		rs.waitingRetry = st.ReqSides[i].WaitingRetry
	}
	queued := 0
	for i, ms := range x.memSides {
		ms.reqQ.restore(pl, rst, st.MemSides[i].outQueueState)
		ms.respRefused = st.MemSides[i].RespRefused
		// A queued request was routed by this crossbar: its route must lead
		// back out of one of its sides. (A request parked in a controller is
		// out of sight here; RecvTimingResp makes the same check.)
		for j := 0; j < ms.reqQ.items.Len(); j++ {
			pkt, _ := ms.reqQ.items.At(j)
			if _, ok := x.returnSide(pkt); !ok {
				return fmt.Errorf("xbar: %s: queued request %s has return route %v: want a last hop of tag %d naming one of %d requestor sides",
					x.name, pkt, pkt.Route(), x.tag, len(x.reqSides))
			}
			queued++
		}
	}
	if st.InFlight < queued {
		return fmt.Errorf("xbar: %s: checkpoint counts %d requests in flight, its request queues alone hold %d", x.name, st.InFlight, queued)
	}
	x.inFlight = st.InFlight
	return nil
}
