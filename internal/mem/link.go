package mem

import (
	"fmt"

	"repro/internal/sim"
)

// ShardLink splices the timing-port protocol across a kernel boundary. In a
// sharded (parallel) simulation each DRAM channel runs on its own kernel;
// the crossbar stays on the frontend kernel and every request crosses to the
// channel shard — and every response crosses back — through one of these
// links, paying a fixed one-way latency.
//
// The link is the conservative-lookahead device that makes parallel runs
// deterministic. Within a time quantum each shard only appends to its side's
// outbox; nothing crosses until the barrier, where the single-threaded
// coordinator calls Flush to publish outboxes and arm delivery events on the
// destination kernels. Because the quantum never exceeds the link latency, a
// packet offered at source time s is due at s+latency, which is at or after
// the barrier tick — delivery is always in the destination's future, so the
// destination shard's event order (and therefore every statistic) is
// independent of how many worker threads ran the quantum.
//
// Buffering: offers always succeed. The link does not propagate back
// pressure across the boundary (that would require a second barrier round
// per quantum); instead the destination's own queues push back locally via
// the usual retry handshake, delaying delivery, while the link buffers. The
// buffer is bounded in practice by the requestors' outstanding-request
// windows, exactly like a credit-based channel interconnect sized for the
// sum of its clients.

// timedPkt is a packet due for delivery at a destination-shard tick.
type timedPkt struct {
	at  sim.Tick
	pkt *Packet
}

// pipe is one direction of a ShardLink.
type pipe struct {
	name    string
	dst     *sim.Kernel
	deliver func(*Packet) bool

	outbox  []timedPkt // appended by the source shard during a quantum
	inbox   []timedPkt // drained by the destination shard
	head    int        // consumed prefix of inbox
	blocked bool       // destination refused; waiting for its retry
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
	if n := len(p.outbox); n > 0 && at < p.outbox[n-1].at {
		panic(fmt.Sprintf("mem: link %q offered out of order: packet due %s after packet due %s",
			p.name, at, p.outbox[n-1].at))
	}
	p.outbox = append(p.outbox, timedPkt{at: at, pkt: pkt})
}

// flush publishes the outbox to the destination shard and arms delivery.
// Barrier-section only: it touches both sides' state and schedules on the
// destination kernel.
//
//shard:barrier touches both shards' state and the destination kernel
func (p *pipe) flush() {
	n := len(p.outbox)
	if n == 0 {
		return
	}
	// Lookahead check: every published packet must be due at or after the
	// destination clock. Offers are nondecreasing, so the head alone would
	// do while every caller keeps the quantum within the link latency; the
	// link does not get to assume that, so validate every entry — a violated
	// entry anywhere means the packet is due in the destination's past and
	// determinism is already lost. Fail loudly.
	for i := range p.outbox {
		if p.outbox[i].at < p.dst.Now() {
			panic(fmt.Sprintf("mem: link %q lookahead violated: packet %d/%d due %s, destination at %s",
				p.name, i, n, p.outbox[i].at, p.dst.Now()))
		}
	}
	p.inbox = append(p.inbox, p.outbox...)
	p.outbox = p.outbox[:0]
	p.arm()
}

// arm schedules the drain event for the head of the inbox. Source shards
// offer in nondecreasing due order, so the head never changes while armed.
func (p *pipe) arm() {
	if p.blocked || p.drain.Scheduled() || p.head == len(p.inbox) {
		return
	}
	p.dst.Schedule(p.drain, p.inbox[p.head].at)
}

// pump delivers every due packet in order, stopping on refusal (the
// destination's retry resumes it) and re-arming for packets due later.
func (p *pipe) pump() {
	now := p.dst.Now()
	for p.head < len(p.inbox) {
		ent := p.inbox[p.head]
		if ent.at > now {
			break
		}
		if !p.deliver(ent.pkt) {
			p.blocked = true
			return
		}
		p.inbox[p.head].pkt = nil
		p.head++
	}
	if p.head == len(p.inbox) {
		p.inbox = p.inbox[:0]
		p.head = 0
		return
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
	return len(p.outbox) == 0 && p.head == len(p.inbox)
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
// argument. It has no checkpoint hooks: only the benchmark builds links, and
// a sharded session is never supervised.
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

// Flush publishes both directions' pending traffic. Barrier-section only.
//
//shard:barrier the rig calls this with every worker parked
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
