package mem

import "repro/internal/sim"

// timedPkt is a packet with the tick it may leave (or is due) at.
type timedPkt struct {
	at  sim.Tick
	pkt *Packet
}

// PacketQueue is a FIFO of packets, each stamped with a tick (when it is
// due, for a shard link; a plain FIFO — cache.wbQueue — pushes 0 and ignores
// it), over a ring buffer; a timed sender is a SendQueue instead. A
// pop-front slice (q = q[1:] … append) strands its capacity and reallocates
// on almost every push; the ring reuses its slots, so a queue that has
// reached its high-water mark — or was sized with Reserve — pushes and pops
// without allocating. The zero value is an empty queue.
type PacketQueue struct {
	buf  []timedPkt
	head int // index of the oldest entry
	n    int // entries in use
}

// Len returns the number of queued packets.
func (q *PacketQueue) Len() int { return q.n }

// slot maps the i-th oldest entry to its index in buf.
func (q *PacketQueue) slot(i int) int {
	i += q.head
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	return i
}

// Reserve makes room for n entries, keeping the queued ones in order.
func (q *PacketQueue) Reserve(n int) {
	if n <= len(q.buf) {
		return
	}
	//hot:allow growth to the high-water mark; steady state reuses the ring
	buf := make([]timedPkt, n)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[q.slot(i)]
	}
	q.buf, q.head = buf, 0
}

// Push appends pkt with its tick at the tail. A full ring doubles, from 16
// entries.
//
//hot:path every cache fill and shard-link crossing; gated by TestPacketQueueSteadyStateZeroAlloc
func (q *PacketQueue) Push(pkt *Packet, at sim.Tick) {
	if q.n == len(q.buf) {
		q.Reserve(max(2*q.n, 16))
	}
	q.buf[q.slot(q.n)] = timedPkt{at: at, pkt: pkt}
	q.n++
}

// At returns the i-th oldest entry (0 is the head); i must be below Len.
func (q *PacketQueue) At(i int) (*Packet, sim.Tick) {
	e := q.buf[q.slot(i)]
	return e.pkt, e.at
}

// PushFront puts pkt back at the head with its tick: it undoes a Pop whose
// packet the peer refused, for a drain that takes a packet off its queue
// before sending it.
func (q *PacketQueue) PushFront(pkt *Packet, at sim.Tick) {
	if q.n == len(q.buf) {
		q.Reserve(max(2*q.n, 16))
	}
	q.head = q.slot(len(q.buf) - 1)
	q.buf[q.head] = timedPkt{at: at, pkt: pkt}
	q.n++
}

// Pop removes the head; the queue must not be empty.
//
//hot:path
func (q *PacketQueue) Pop() {
	q.buf[q.head].pkt = nil
	q.head = q.slot(1)
	q.n--
}
