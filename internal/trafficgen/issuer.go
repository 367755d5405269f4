package trafficgen

import (
	"math"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Feed is what a requestor adds to its Issuer: the requests and their
// accounting. NextRequest returns the request to issue at now and moves the
// engine's Due on to the tick the one after it may issue at; Answered accounts
// a response by direction and latency in nanoseconds. They are the only
// dynamic calls the engine makes per request.
type Feed interface {
	NextRequest(now sim.Tick) (addr mem.Addr, isRead bool, size uint64)
	Answered(isRead bool, latNs float64)
}

// Issuer is the closed-loop request engine that the generator, the trace
// player and cpu.Core embed, as gem5's traffic generators and cores share one
// request-port state machine (paper §II-E/F). It owns the port, the packet
// pool, the tick, the window of requests in flight and the refused packet,
// and it holds the one rule each for issuing, re-arming, retrying and taking
// a response.
type Issuer struct {
	k    *sim.Kernel
	feed Feed
	port *mem.RequestPort
	tick *sim.Event
	// Due is the earliest tick the next request may issue at.
	Due           sim.Tick
	window, id    int
	issued, limit uint64
	outstanding   int
	blocked       *mem.Packet
	// pool recycles the requestor's packets: a request is drawn on issue and
	// released when its response is consumed, so a closed loop allocates
	// nothing in steady state. The pool is single-threaded with the kernel;
	// packets in flight are never in it.
	pool mem.PacketPool

	// Refusals counts the requests the port refused. StallTicks sums the
	// ticks from a refusal or a full window to the response or retry that
	// ends it. Each is nil unless the requestor reports it.
	Refusals, StallTicks *stats.Scalar
	stalled              bool
	stallSince           sim.Tick
}

// Init wires the engine into the requestor that embeds it: a port and a tick
// named after name, the tick at same-tick priority pri; feed supplies the
// requests, at most window of them in flight and limit in all
// (math.MaxUint64: no limit), their packets tagged id.
func (e *Issuer) Init(k *sim.Kernel, name string, pri sim.Priority, feed Feed, window int, limit uint64, id int) {
	e.k, e.feed, e.window, e.limit, e.id = k, feed, window, limit, id
	e.port = mem.NewRequestPort(name+".port", e, k)
	e.tick = sim.NewEventPri(name+".tick", pri, e.fire)
}

// Port returns the memory-side request port.
func (e *Issuer) Port() *mem.RequestPort { return e.port }

// Start arms the first issue, at Due or now, whichever is later.
func (e *Issuer) Start() { e.rearm() }

// Done reports whether every request was issued and answered.
func (e *Issuer) Done() bool {
	return e.issued >= e.limit && e.outstanding == 0 && e.blocked == nil
}

// Unbounded reports a requestor with no limit: it issues until stopped, so
// Done never holds and a run that waits for it cannot finish.
func (e *Issuer) Unbounded() bool { return e.limit == math.MaxUint64 }

// Issued returns the number of requests injected so far.
func (e *Issuer) Issued() uint64 { return e.issued }

// Outstanding returns the number of in-flight requests.
func (e *Issuer) Outstanding() int { return e.outstanding }

// fire is the tick event: it issues inside a deferral window of the kernel,
// so a responder that a request makes due now may defer that work to the
// tick's end (sim.Kernel.Defer), where it runs in the call when it would be
// the next event.
func (e *Issuer) fire() {
	e.k.BeginDefer()
	e.issue()
	e.k.EndDefer()
}

// issue sends requests while the window, the limit and Due allow, then
// re-arms the tick.
//
//hot:path one packet per request; gated by cpu.TestCoreSteadyStateZeroAlloc
func (e *Issuer) issue() {
	now := e.k.Now()
	e.unstall(now)
	for e.blocked == nil && e.outstanding < e.window && e.issued < e.limit && now >= e.Due {
		addr, isRead, size := e.feed.NextRequest(now)
		var pkt *mem.Packet
		if isRead {
			pkt = e.pool.NewRead(addr, size, e.id, now)
		} else {
			pkt = e.pool.NewWrite(addr, size, e.id, now)
		}
		e.issued++
		e.outstanding++
		if !e.port.SendTimingReq(pkt) {
			e.blocked = pkt
			if e.Refusals != nil {
				e.Refusals.Inc()
			}
			e.stall(now)
			return
		}
	}
	if e.outstanding >= e.window {
		e.stall(now)
	}
	e.rearm()
}

// rearm arms the tick for Due, or now if later, unless no request could
// issue then: one is refused (a retry wakes the engine), the limit is reached,
// or the window is full (a response wakes it).
func (e *Issuer) rearm() {
	if e.blocked != nil || e.tick.Scheduled() || e.issued >= e.limit || e.outstanding >= e.window {
		return
	}
	e.k.Schedule(e.tick, max(e.Due, e.k.Now()))
}

// stall and unstall bracket the ticks the requestor cannot issue for a
// refusal or a full window. A refused packet keeps it stalled until the retry
// clears it, whatever responses come meanwhile.
func (e *Issuer) stall(now sim.Tick) {
	if !e.stalled {
		e.stalled, e.stallSince = true, now
	}
}

func (e *Issuer) unstall(now sim.Tick) {
	if e.blocked != nil {
		return
	}
	if e.stalled && e.StallTicks != nil {
		e.StallTicks.Add(float64(now - e.stallSince))
	}
	e.stalled = false
}

// RecvTimingResp implements mem.Requestor: the feed accounts the response and
// its packet returns to the pool. When the tick would be the kernel's next
// event — it is pending now and alone there, or it is idle and nothing else
// is due now (sim.Kernel.Alone) — the engine issues in this call instead of
// firing it.
//
//hot:path
func (e *Issuer) RecvTimingResp(pkt *mem.Packet) bool {
	now := e.k.Now()
	e.feed.Answered(pkt.Cmd == mem.ReadResp, (now - pkt.IssueTick).Nanoseconds())
	e.pool.Put(pkt)
	e.outstanding--
	if t := e.tick; t.Scheduled() && t.When() == now && e.k.Alone(t) {
		e.k.Deschedule(t)
		e.issue()
	} else if !t.Scheduled() && e.k.Alone(nil) {
		e.issue()
	} else {
		e.unstall(now)
		e.rearm()
	}
	return true
}

// RecvReqRetry implements mem.Requestor: resend the refused packet in the
// call, then re-arm.
func (e *Issuer) RecvReqRetry() {
	pkt := e.blocked
	if pkt == nil {
		return
	}
	e.blocked = nil
	if !e.port.SendTimingReq(pkt) {
		e.blocked = pkt
		return
	}
	if e.outstanding < e.window {
		e.unstall(e.k.Now())
	}
	e.rearm()
}
