package mem

import (
	"math/bits"

	"repro/internal/sim"
)

// A Sender owns a SendQueue and sends what it holds.
type Sender interface {
	// Send offers pkt, pushed with word, to the peer and reports whether the
	// peer took it; when it did, Send also does what follows an accepted send
	// (one call per packet: the loop is shared by every owner, so each call
	// is an indirect branch). The packet is off the queue during the call,
	// since the peer may push into the same queue inside it; once taken, it
	// may already be back in its owner's pool.
	Send(pkt *Packet, word int) bool
}

// A Finisher is a Sender that acts once a loop has sent everything due.
type Finisher interface {
	Sender
	// Done runs after a loop that sent everything due.
	Done()
}

// sendEntry is one queued packet: the tick it is due at and its owner's word.
type sendEntry struct {
	at   sim.Tick
	pkt  *Packet
	word int
}

// SendQueue holds packets until their due tick and sends them to a peer in
// (due tick, push order), waiting for the peer's retry after a refusal —
// gem5's PacketQueue. One event drives it: armed for the first packet when
// the queue is idle, and by the send loop at its tail for the first packet
// still to come, never while the loop runs. A packet pushed inside a send and
// due now leaves in the same loop; a refused packet goes back to the head and
// keeps its place, and the retry sends it and the rest due, in the call.
//
// The packets sit in a ring sorted by due tick. Owners push at now plus a
// latency that rarely shrinks, so an insert walks in from the tail past few
// entries, nearly always none.
type SendQueue struct {
	k        *sim.Kernel
	ev       *sim.Event
	owner    Sender
	finisher Finisher    // the owner, when it is one
	buf      []sendEntry // power-of-two length
	head     int
	n        int
	// sending is set while the send loop runs: Push leaves the event to the
	// loop's tail. blocked is set from a refusal to the peer's retry; the
	// event is idle meanwhile.
	sending, blocked bool
}

// Init readies q, empty, to send through owner, with room for capacity
// packets before it grows; name names its event. An owner embeds its queue.
func (q *SendQueue) Init(k *sim.Kernel, name string, capacity int, owner Sender) {
	q.k, q.owner = k, owner
	q.finisher, _ = owner.(Finisher)
	q.buf = make([]sendEntry, 1<<bits.Len(uint(max(capacity, 1)-1)))
	q.ev = sim.NewEvent(name, q.drain)
}

// Len returns the number of queued packets.
func (q *SendQueue) Len() int { return q.n }

// At returns the i-th queued packet in sending order (0 is the next), its due
// tick and its word; i must be below Len.
func (q *SendQueue) At(i int) (pkt *Packet, at sim.Tick, word int) {
	e := q.at(i)
	return e.pkt, e.at, e.word
}

// at returns the slot of the i-th entry in sending order.
func (q *SendQueue) at(i int) *sendEntry { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

// Push queues pkt to leave at tick at (not before now), after every packet
// due no later, with a word handed back to Send; the event is armed
// for it if it is now the first and no loop or refusal owns the event, and
// deferred (sim.Kernel.Defer) if the packet is due now, so that a packet
// pushed from the event it answers leaves as that event returns.
//
//hot:path every response a controller or cache sends and every crossbar hop; gated by TestSendQueueSteadyStateZeroAlloc
func (q *SendQueue) Push(pkt *Packet, at sim.Tick, word int) {
	if q.n == len(q.buf) {
		q.grow()
	}
	i := q.n
	for ; i > 0 && q.at(i-1).at > at; i-- {
		*q.at(i) = *q.at(i - 1)
	}
	*q.at(i) = sendEntry{at: at, pkt: pkt, word: word}
	q.n++
	// Outside a loop and a refusal the event is pending exactly while the
	// queue holds packets, at the first one's tick; only a new first moves it.
	if i == 0 && !q.sending && !q.blocked {
		if at > q.k.Now() {
			q.k.Reschedule(q.ev, at)
		} else {
			if q.ev.Scheduled() {
				q.k.Deschedule(q.ev)
			}
			q.k.Defer(q.ev)
		}
	}
}

// Retry resumes a queue the peer refused: it sends, in the call, what is due.
func (q *SendQueue) Retry() {
	if q.blocked {
		q.blocked = false
		q.drain()
	}
}

// drain is the send loop: it sends every packet due now, in order, then arms
// the event for the first later one. On a refusal it puts the packet back and
// waits for Retry.
//
//hot:path
func (q *SendQueue) drain() {
	now := q.k.Now()
	q.sending = true
	for q.n > 0 {
		e := *q.at(0)
		if e.at > now {
			break
		}
		*q.at(0) = sendEntry{}
		q.head = (q.head + 1) & (len(q.buf) - 1)
		q.n--
		if !q.owner.Send(e.pkt, e.word) {
			if q.n == len(q.buf) {
				q.grow()
			}
			q.head = (q.head - 1) & (len(q.buf) - 1)
			q.n++
			*q.at(0) = e
			q.sending, q.blocked = false, true
			return
		}
	}
	q.sending = false
	if q.n > 0 {
		q.k.Schedule(q.ev, q.at(0).at)
	}
	if q.finisher != nil {
		q.finisher.Done()
	}
}

// grow doubles a full ring, unrolling it so the head lands on slot zero.
func (q *SendQueue) grow() {
	//hot:allow growth to the high-water mark; steady state reuses the ring
	buf := make([]sendEntry, 2*len(q.buf))
	c := copy(buf, q.buf[q.head:])
	copy(buf[c:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}
