// Package xbar provides the on-chip crossbar that sits between requestors
// (CPUs, caches, traffic generators) and the per-channel DRAM controllers.
// As in the paper (§II-F and Figure 1), channel interleaving happens here —
// each controller is independent and the crossbar decodes which channel an
// address belongs to, at cache-line or row granularity depending on the
// address mapping. The crossbar models latency and finite buffering with
// full retry-based back pressure in both directions.
package xbar

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Route decides which memory-side port an address goes to.
type Route func(mem.Addr) int

// InterleaveRoute builds a Route that stripes addresses across n ports at
// the given granularity, which must be a power of two: a route runs twice
// per request, so the divide by the granularity is a shift and, where n
// allows, the modulo a mask or nothing.
func InterleaveRoute(n int, granularity uint64) Route {
	if n < 1 || bits.OnesCount64(granularity) != 1 {
		panic(fmt.Sprintf("xbar: InterleaveRoute(%d, %d): need a port and a power-of-two granularity", n, granularity))
	}
	shift := uint(bits.TrailingZeros64(granularity))
	switch {
	case n == 1:
		return func(mem.Addr) int { return 0 }
	case n&(n-1) == 0:
		mask := uint64(n - 1)
		return func(a mem.Addr) int { return int(uint64(a) >> shift & mask) }
	}
	return func(a mem.Addr) int { return int(uint64(a) >> shift % uint64(n)) }
}

// AddrRange is a half-open address interval mapped to one memory port.
type AddrRange struct {
	Start, End mem.Addr
	Port       int
}

// Contains reports whether a falls inside the range.
func (r AddrRange) Contains(a mem.Addr) bool { return r.Start <= a && a < r.End }

// RangeRoute builds a Route from address ranges — the NUMA/tiered-memory
// arrangement of the paper's §II-F ("multi-channel UMA and NUMA
// configurations, or emerging heterogeneous memory systems"): each range is
// a memory tier or node. Ranges must be non-overlapping and cover every
// address the system will issue; an unmatched address panics at routing
// time with a clear message.
func RangeRoute(ranges []AddrRange) (Route, error) {
	if len(ranges) == 0 {
		return nil, fmt.Errorf("xbar: no ranges")
	}
	for i, r := range ranges {
		if r.End <= r.Start {
			return nil, fmt.Errorf("xbar: empty range %d [%#x, %#x)", i, uint64(r.Start), uint64(r.End))
		}
		if r.Port < 0 {
			return nil, fmt.Errorf("xbar: negative port in range %d", i)
		}
		for j := 0; j < i; j++ {
			o := ranges[j]
			if r.Start < o.End && o.Start < r.End {
				return nil, fmt.Errorf("xbar: ranges %d and %d overlap", j, i)
			}
		}
	}
	rs := make([]AddrRange, len(ranges))
	copy(rs, ranges)
	return func(a mem.Addr) int {
		for _, r := range rs {
			if r.Contains(a) {
				return r.Port
			}
		}
		// No kernel in scope here: a routing table is pure configuration.
		// The crossbar stamps the tick when it reports routing failures.
		panic(fmt.Sprintf("xbar: address %#x outside every configured range", uint64(a)))
	}, nil
}

// Config shapes the crossbar.
type Config struct {
	// Latency is added to every packet crossing the crossbar, each way.
	Latency sim.Tick
	// QueueDepth bounds each internal queue (per memory port for requests,
	// per requestor port for responses).
	QueueDepth int
	// PacketInterval optionally throttles each output to one packet per
	// interval, modelling finite crossbar throughput (0 = unlimited).
	PacketInterval sim.Tick
	// Probes, when non-nil and non-empty, receives the crossbar's
	// observability events (see internal/obs). Outside the checkpoint
	// identity: probes only observe.
	Probes *obs.Hub `json:"-"`
}

// DefaultConfig returns a modest single-cycle-ish crossbar.
func DefaultConfig() Config {
	return Config{Latency: 5 * sim.Nanosecond, QueueDepth: 16}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Latency < 0 || c.PacketInterval < 0 {
		return fmt.Errorf("xbar: negative timing")
	}
	if c.QueueDepth <= 0 {
		return fmt.Errorf("xbar: queue depth must be positive")
	}
	return nil
}

// outQueue is a latency+capacity queue in front of one output port (either
// direction), draining in order with retry flow control. A request queue
// (toward memory) has req set and a response queue (toward a requestor) resp;
// a freed slot wakes the upstreams of that direction.
type outQueue struct {
	k    *sim.Kernel
	cfg  Config
	x    *Crossbar
	req  *mem.RequestPort
	resp *mem.ResponsePort
	// items holds each packet with the tick it is ready to leave; the ring
	// is sized to QueueDepth once and never grows (full() gates every push).
	items    mem.PacketQueue
	sendEv   *sim.Event
	blocked  bool // downstream refused; waiting for its retry
	nextSend sim.Tick
}

func newOutQueue(x *Crossbar, name string, req *mem.RequestPort, resp *mem.ResponsePort) *outQueue {
	q := &outQueue{k: x.k, cfg: x.cfg, x: x, req: req, resp: resp}
	q.items.Reserve(x.cfg.QueueDepth)
	q.sendEv = sim.NewEvent(name+".send", q.drain)
	return q
}

func (q *outQueue) full() bool { return q.items.Len() >= q.cfg.QueueDepth }

// push enqueues a packet; the caller must have checked full().
//
//hot:path every packet crossing the crossbar, each way; gated by TestCrossbarRoundTripZeroAlloc
func (q *outQueue) push(pkt *mem.Packet) {
	q.items.Push(pkt, q.k.Now()+q.cfg.Latency)
	q.schedule()
}

func (q *outQueue) schedule() {
	if q.blocked || q.items.Len() == 0 || q.sendEv.Scheduled() {
		return
	}
	_, at := q.items.At(0)
	if q.nextSend > at {
		at = q.nextSend
	}
	if now := q.k.Now(); at < now {
		at = now
	}
	q.k.Schedule(q.sendEv, at)
}

// drain sends every ready packet in order. A packet accepted by send may
// already be back in its owner's pool, so it is not touched afterwards.
//
//hot:path
func (q *outQueue) drain() {
	now := q.k.Now()
	for q.items.Len() > 0 && !q.blocked {
		pkt, readyAt := q.items.At(0)
		if readyAt > now || q.nextSend > now {
			break
		}
		var ok bool
		if q.req != nil {
			ok = q.req.SendTimingReq(pkt)
		} else {
			ok = q.resp.SendTimingResp(pkt)
		}
		if !ok {
			q.blocked = true
			return
		}
		q.items.Pop()
		if q.cfg.PacketInterval > 0 {
			q.nextSend = now + q.cfg.PacketInterval
		}
		if q.req != nil {
			q.x.wakeRequestors()
		} else {
			q.x.wakeMemSides()
		}
	}
	q.schedule()
}

// retry is called when the downstream signals readiness.
func (q *outQueue) retry() {
	q.blocked = false
	q.drain()
}

// maxRequestors is how many requestor ports one crossbar takes: a return
// route names the side in a byte.
const maxRequestors = math.MaxUint8

// Crossbar routes requests from any number of requestor-side ports to
// memory-side ports and responses back, by the return route each request
// carries (mem.Packet.PushRoute).
type Crossbar struct {
	name string
	k    *sim.Kernel
	cfg  Config //ckpt:skip static configuration, compared by the manager (CheckpointConfig)
	rt   Route  //ckpt:skip routing function, rebuilt by the constructor
	// tag marks this crossbar's hops in a return route. It is a hash of the
	// name, so it is the same in the run that saves a checkpoint and the run
	// that resumes it.
	tag uint8

	// Requestor side: one response port per attached requestor.
	reqSides []*reqSide
	// Memory side: one request port + request queue per channel.
	memSides []*memSide

	// inFlight counts requests routed but not yet answered.
	inFlight int

	reqRouted  *stats.Scalar //ckpt:skip persisted by the stats registry adapter
	respRouted *stats.Scalar //ckpt:skip persisted by the stats registry adapter
	blockedReq *stats.Scalar //ckpt:skip persisted by the stats registry adapter

	// hub fans observability events out to attached probes; nil when no
	// probe is configured.
	hub *obs.Hub //ckpt:skip observation fan-out, rebuilt by the constructor
}

// reqSide is the crossbar's face toward one requestor.
type reqSide struct {
	x     *Crossbar
	index int
	port  *mem.ResponsePort
	// respQ carries responses back to this requestor.
	respQ *outQueue
	// waitingRetry marks that this requestor was refused and must be woken
	// when the target queue frees.
	waitingRetry bool
}

// memSide is the crossbar's face toward one memory channel.
type memSide struct {
	x     *Crossbar
	index int
	port  *mem.RequestPort
	reqQ  *outQueue
	// respRefused marks that this channel's controller was refused a
	// response and must be woken when a response queue frees.
	respRefused bool
}

// New builds a crossbar with the given route function.
func New(k *sim.Kernel, cfg Config, rt Route, reg *stats.Registry, name string) (*Crossbar, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rt == nil {
		return nil, fmt.Errorf("xbar: nil route")
	}
	x := &Crossbar{name: name, k: k, cfg: cfg, rt: rt, tag: nameTag(name), hub: cfg.Probes.OrNil()}
	r := reg.Child(name)
	x.reqRouted = r.NewScalar("reqRouted", "requests routed")
	x.respRouted = r.NewScalar("respRouted", "responses routed")
	x.blockedReq = r.NewScalar("blockedReqs", "requests refused due to full queues")
	return x, nil
}

// nameTag folds the FNV-1a hash of a crossbar's name into a byte.
func nameTag(name string) uint8 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return uint8(h ^ h>>8 ^ h>>16 ^ h>>24)
}

// AttachRequestor adds a requestor-side port; connect the requestor's
// request port to the returned response port. A crossbar takes at most
// maxRequestors of them.
func (x *Crossbar) AttachRequestor(name string) *mem.ResponsePort {
	if len(x.reqSides) == maxRequestors {
		panic(fmt.Sprintf("xbar: %s: requestor port %q is one too many: a return route addresses %d",
			x.name, name, maxRequestors))
	}
	rs := &reqSide{x: x, index: len(x.reqSides)}
	rs.port = mem.NewResponsePort(fmt.Sprintf("%s.cpu%d", x.name, rs.index), rs, x.k)
	rs.respQ = newOutQueue(x, rs.port.Name()+".respq", nil, rs.port)
	x.reqSides = append(x.reqSides, rs)
	return rs.port
}

// AttachMemory adds a memory-side port; connect it to a controller's
// response port. Route indices refer to attachment order.
func (x *Crossbar) AttachMemory(name string) *mem.RequestPort {
	ms := &memSide{x: x, index: len(x.memSides)}
	ms.port = mem.NewRequestPort(fmt.Sprintf("%s.mem%d", x.name, ms.index), ms, x.k)
	ms.reqQ = newOutQueue(x, ms.port.Name()+".reqq", ms.port, nil)
	x.memSides = append(x.memSides, ms)
	return ms.port
}

// wakeRequestors retries every requestor blocked on a full request queue.
func (x *Crossbar) wakeRequestors() {
	for _, rs := range x.reqSides {
		if rs.waitingRetry {
			rs.waitingRetry = false
			rs.port.SendReqRetry()
		}
	}
}

// wakeMemSides retries every controller that was refused a response. One
// that was not has nothing to send, and a cycle-model controller would spend
// an event on the retry.
func (x *Crossbar) wakeMemSides() {
	for _, ms := range x.memSides {
		if ms.respRefused {
			ms.respRefused = false
			ms.port.SendRespRetry()
		}
	}
}

// RecvTimingReq implements mem.Responder for a requestor-side port.
func (rs *reqSide) RecvTimingReq(pkt *mem.Packet) bool {
	x := rs.x
	ch := x.rt(pkt.Addr)
	if ch < 0 || ch >= len(x.memSides) {
		panic(fmt.Sprintf("xbar: route(%#x) = %d with %d memory ports at %s",
			uint64(pkt.Addr), ch, len(x.memSides), x.k.Now()))
	}
	if last := x.rt(pkt.End() - 1); last != ch {
		// A packet must fit inside one interleave unit: the route
		// granularity has to be at least the largest request size.
		panic(fmt.Sprintf("xbar: %s straddles channels %d and %d at %s — increase the interleave granularity",
			pkt, ch, last, x.k.Now()))
	}
	q := x.memSides[ch].reqQ
	if q.full() {
		rs.waitingRetry = true
		x.blockedReq.Inc()
		if x.hub != nil {
			x.hub.Emit(obs.QueueRefuse{Src: x.name, At: x.k.Now(), Queue: xbarQueue(pkt), Depth: q.items.Len()})
		}
		return false
	}
	if !pkt.PushRoute(mem.RouteHop{Xbar: x.tag, Side: uint8(rs.index)}) {
		panic(fmt.Sprintf("xbar: %s on %s has crossed %d crossbars (route %v), as many as a packet records, at %s",
			pkt, rs.port.Name(), mem.RouteDepth, pkt.Route(), x.k.Now()))
	}
	x.inFlight++
	x.reqRouted.Inc()
	q.push(pkt)
	if x.hub != nil {
		queue := xbarQueue(pkt)
		x.hub.Emit(obs.PacketEnqueued{Src: x.name, At: x.k.Now(), Pkt: pkt, Queue: queue, Bursts: 1})
		x.hub.Emit(obs.QueueAdmit{Src: x.name, At: x.k.Now(), Queue: queue, Depth: q.items.Len() - 1})
	}
	return true
}

// xbarQueue classifies a routed packet for queue observability events.
func xbarQueue(pkt *mem.Packet) obs.Queue {
	if pkt.Cmd == mem.ReadReq {
		return obs.QueueRead
	}
	return obs.QueueWrite
}

// RecvRespRetry implements mem.Responder: the requestor can take responses
// again.
func (rs *reqSide) RecvRespRetry() { rs.respQ.retry() }

// RecvTimingResp implements mem.Requestor for a memory-side port: send the
// response back out of the side its route names.
func (ms *memSide) RecvTimingResp(pkt *mem.Packet) bool {
	x := ms.x
	side, ok := x.returnSide(pkt)
	if !ok || x.inFlight == 0 {
		panic(x.badResponse(ms, pkt))
	}
	q := x.reqSides[side].respQ
	if q.full() {
		ms.respRefused = true
		return false
	}
	pkt.PopRoute()
	x.inFlight--
	x.respRouted.Inc()
	q.push(pkt)
	if x.hub != nil {
		x.hub.Emit(obs.ResponseSent{Src: x.name, At: x.k.Now(), Pkt: pkt})
	}
	return true
}

// returnSide reads the requestor side a packet's route leads back to; ok is
// false unless the last hop is this crossbar's and names a side it has.
func (x *Crossbar) returnSide(pkt *mem.Packet) (side int, ok bool) {
	hop, ok := pkt.RouteTop()
	return int(hop.Side), ok && hop.Xbar == x.tag && int(hop.Side) < len(x.reqSides)
}

// badResponse says why a response cannot be routed back. An empty route is
// a request this crossbar never took, or one already answered (the hop went
// with the first response).
func (x *Crossbar) badResponse(ms *memSide, pkt *mem.Packet) string {
	where := fmt.Sprintf("on %s at %s", ms.port.Name(), x.k.Now())
	hop, ok := pkt.RouteTop()
	switch {
	case !ok:
		return fmt.Sprintf("xbar: response %s with unknown origin (empty return route: never routed, or answered twice) %s", pkt, where)
	case hop.Xbar != x.tag:
		return fmt.Sprintf("xbar: response %s belongs to another crossbar: its route %v ends at tag %d, %s is tag %d, %s",
			pkt, pkt.Route(), hop.Xbar, x.name, x.tag, where)
	case int(hop.Side) >= len(x.reqSides):
		return fmt.Sprintf("xbar: response %s names requestor side %d of %d %s", pkt, hop.Side, len(x.reqSides), where)
	}
	return fmt.Sprintf("xbar: response %s with unknown origin (no request in flight) %s", pkt, where)
}

// RecvReqRetry implements mem.Requestor: the controller freed queue space.
func (ms *memSide) RecvReqRetry() { ms.reqQ.retry() }

// InFlight returns the number of requests routed but not yet answered.
func (x *Crossbar) InFlight() int { return x.inFlight }

// Quiescent reports whether no packets sit in any internal queue.
func (x *Crossbar) Quiescent() bool {
	for _, ms := range x.memSides {
		if ms.reqQ.items.Len() > 0 {
			return false
		}
	}
	for _, rs := range x.reqSides {
		if rs.respQ.items.Len() > 0 {
			return false
		}
	}
	return true
}
