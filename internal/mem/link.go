package mem

import (
	"fmt"

	"repro/internal/sim"
)

// ShardLink splices the timing-port protocol across a kernel boundary. In a
// sharded simulation each DRAM channel runs on its own kernel; the crossbar
// stays on the frontend kernel and every request crosses to the channel's
// kernel — and every response crosses back — through one of these links,
// paying a fixed one-way latency.
//
// The link is the conservative-lookahead device that keeps sharded runs
// deterministic. Within a time quantum each kernel only appends to its side's
// outbox; nothing crosses until the barrier, where the session calls Flush,
// once every kernel has reached the quantum's end, to publish outboxes and
// arm delivery events on the destination kernels. Because the quantum never
// exceeds the link latency, a packet offered at source time s is due at
// s+latency, which is at or after the barrier tick — delivery is always in
// the destination's future, so the destination's event order (and therefore
// every statistic) does not depend on the order the kernels ran the quantum
// in.
//
// Buffering: offers always succeed. The link does not propagate back
// pressure across the boundary (that would require a second barrier round
// per quantum); instead the destination's own queues push back locally via
// the usual retry handshake, delaying delivery, while the link buffers. The
// buffer is bounded in practice by the requestors' outstanding-request
// windows, exactly like a credit-based channel interconnect sized for the
// sum of its clients.

// pipe is one direction of a ShardLink.
type pipe struct {
	name    string
	dst     *sim.Kernel
	deliver func(*Packet) bool

	outbox  PacketQueue // appended by the source kernel during a quantum
	inbox   PacketQueue // drained by the destination kernel
	blocked bool        // destination refused; waiting for its retry
	drain   *sim.Event
}

func newPipe(name string, dst *sim.Kernel) *pipe {
	p := &pipe{name: name, dst: dst}
	p.drain = sim.NewEvent(name+".drain", p.pump)
	return p
}

// offer queues pkt for delivery at destination tick at. Due order must be
// nondecreasing: arm relies on the inbox head never changing while the drain
// event is armed, so a scheduler change that reordered offers would silently
// reorder deliveries. Enforce it here rather than trusting the comment.
func (p *pipe) offer(pkt *Packet, at sim.Tick) {
	if n := p.outbox.Len(); n > 0 {
		if _, last := p.outbox.At(n - 1); at < last {
			panic(fmt.Sprintf("mem: link %q offered out of order: packet due %s after packet due %s",
				p.name, at, last))
		}
	}
	p.outbox.Push(pkt, at)
}

// flush publishes the outbox to the destination kernel and arms delivery.
// Between quanta only: it touches both sides' state and schedules on the
// destination kernel.
func (p *pipe) flush() {
	n := p.outbox.Len()
	if n == 0 {
		return
	}
	// Lookahead check: every published packet must be due at or after the
	// destination clock. Offers are nondecreasing, so the head alone would
	// do while every caller keeps the quantum within the link latency; the
	// link does not get to assume that, so validate every entry — a violated
	// entry anywhere means the packet is due in the destination's past and
	// determinism is already lost. Fail loudly.
	for i := 0; i < n; i++ {
		if _, at := p.outbox.At(i); at < p.dst.Now() {
			panic(fmt.Sprintf("mem: link %q lookahead violated: packet %d/%d due %s, destination at %s",
				p.name, i, n, at, p.dst.Now()))
		}
	}
	for ; n > 0; n-- {
		p.inbox.Push(p.outbox.At(0))
		p.outbox.Pop()
	}
	p.arm()
}

// arm schedules the drain event for the head of the inbox. Source shards
// offer in nondecreasing due order, so the head never changes while armed.
func (p *pipe) arm() {
	if p.blocked || p.drain.Scheduled() || p.inbox.Len() == 0 {
		return
	}
	_, at := p.inbox.At(0)
	p.dst.Schedule(p.drain, at)
}

// pump delivers every due packet in order, stopping on refusal (the
// destination's retry resumes it) and re-arming for packets due later.
func (p *pipe) pump() {
	now := p.dst.Now()
	for p.inbox.Len() > 0 {
		pkt, at := p.inbox.At(0)
		if at > now {
			break
		}
		// Off the inbox before the delivery; a refusal puts it back in front.
		p.inbox.Pop()
		if !p.deliver(pkt) {
			p.inbox.PushFront(pkt, at)
			p.blocked = true
			return
		}
	}
	p.arm()
}

// resume is the destination component's retry signal.
func (p *pipe) resume() {
	if !p.blocked {
		return
	}
	p.blocked = false
	p.pump()
}

// empty reports whether no packet is buffered in this direction.
func (p *pipe) empty() bool {
	return p.outbox.Len() == 0 && p.inbox.Len() == 0
}

// linkFront is the link's responder face on the frontend kernel: the
// crossbar's memory-side request port connects to it.
type linkFront struct {
	l    *ShardLink
	k    *sim.Kernel
	port *ResponsePort
}

// linkBack is the link's requestor face on the channel kernel: it connects
// to the controller's response port.
type linkBack struct {
	l    *ShardLink
	k    *sim.Kernel
	port *RequestPort
}

// ShardLink carries requests front-to-back and responses back-to-front
// between two kernels. See the package comment above for the determinism
// argument. Only the benchmark builds links, and a sharded session is never
// supervised.
type ShardLink struct {
	latency sim.Tick
	front   *linkFront
	back    *linkBack
	req     *pipe // front -> back (requests)
	resp    *pipe // back -> front (responses)
}

// NewShardLink builds a link between the frontend kernel and a channel
// kernel with the given one-way latency (which is also the lookahead bound:
// the coordinator's quantum must not exceed it).
func NewShardLink(name string, frontK, backK *sim.Kernel, latency sim.Tick) *ShardLink {
	if latency <= 0 {
		panic(fmt.Sprintf("mem: link %q needs positive latency for lookahead", name))
	}
	l := &ShardLink{latency: latency}
	l.front = &linkFront{l: l, k: frontK}
	l.back = &linkBack{l: l, k: backK}
	l.front.port = NewResponsePort(name+".front", l.front, frontK)
	l.back.port = NewRequestPort(name+".back", l.back, backK)
	l.req = newPipe(name+".req", backK)
	l.resp = newPipe(name+".resp", frontK)
	l.req.deliver = l.back.port.SendTimingReq
	l.resp.deliver = l.front.port.SendTimingResp
	return l
}

// FrontPort is the responder endpoint on the frontend kernel; connect the
// requestor (e.g. a crossbar memory-side port) to it.
func (l *ShardLink) FrontPort() *ResponsePort { return l.front.port }

// BackPort is the requestor endpoint on the channel kernel; connect it to
// the controller's response port.
func (l *ShardLink) BackPort() *RequestPort { return l.back.port }

// Flush publishes both directions' pending traffic. Call it between quanta,
// once every kernel has reached the barrier.
func (l *ShardLink) Flush() {
	l.req.flush()
	l.resp.flush()
}

// Quiescent reports whether no packet is buffered in either direction. Only
// meaningful between quanta.
func (l *ShardLink) Quiescent() bool { return l.req.empty() && l.resp.empty() }

// RecvTimingReq implements Responder on the frontend side: requests are
// always absorbed and cross at front-now + latency.
func (f *linkFront) RecvTimingReq(pkt *Packet) bool {
	f.l.req.offer(pkt, f.k.Now()+f.l.latency)
	return true
}

// RecvRespRetry implements Responder: the frontend requestor has space for
// the response it refused.
func (f *linkFront) RecvRespRetry() { f.l.resp.resume() }

// RecvTimingResp implements Requestor on the channel side: responses are
// always absorbed and cross at back-now + latency.
func (b *linkBack) RecvTimingResp(pkt *Packet) bool {
	b.l.resp.offer(pkt, b.k.Now()+b.l.latency)
	return true
}

// RecvReqRetry implements Requestor: the controller freed queue space.
func (b *linkBack) RecvReqRetry() { b.l.req.resume() }
