package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trafficgen"
	"repro/internal/xbar"
)

// The isolation pass drives each layer alone against benchmark-owned stubs
// and subtracts a stub-to-stub run, so every layer's cost is had by
// substitution:
//
//	S = stubRequestor <-> stubResponder
//	G = real generator <-> stubResponder
//	C = stubRequestor  <-> real controller
//	X = stubRequestor  <-> real crossbar/cache <-> stubResponder
//
// Each run's time is kernel + the two ends (+ the middle). With the kernel's
// part taken as events x the isolated ns/event, a middle layer costs
// X - S, an end layer G - S (or C - S) plus the stub it replaced, and the
// stubs' own cost, S minus its kernel part, is split evenly between the two
// stubs. The sum over layers does not depend on that split.

// stubResponder answers every request after a fixed latency. Responses are
// FIFO (one latency for all), so one bound callback and a ring of accepted
// packets suffice: nothing is allocated per request.
type stubResponder struct {
	k       *sim.Kernel
	port    *mem.ResponsePort
	latency sim.Tick
	fire    func()

	ring    []*mem.Packet // accepted, not yet delivered
	head, n int
	ready   int // packets whose latency has elapsed
	blocked bool
}

func newStubResponder(k *sim.Kernel, name string, latency sim.Tick) *stubResponder {
	s := &stubResponder{k: k, latency: latency, ring: make([]*mem.Packet, 64)}
	s.port = mem.NewResponsePort(name, s, k)
	s.fire = func() {
		s.ready++
		s.deliver()
	}
	return s
}

// RecvTimingReq implements mem.Responder: always accept.
func (s *stubResponder) RecvTimingReq(pkt *mem.Packet) bool {
	if s.n == len(s.ring) {
		grown := make([]*mem.Packet, 2*len(s.ring))
		for i := 0; i < s.n; i++ {
			grown[i] = s.ring[(s.head+i)%len(s.ring)]
		}
		s.ring, s.head = grown, 0
	}
	pkt.MakeResponse()
	s.ring[(s.head+s.n)%len(s.ring)] = pkt
	s.n++
	s.k.CallIn("stub.resp", s.latency, s.fire)
	return true
}

// RecvRespRetry implements mem.Responder.
func (s *stubResponder) RecvRespRetry() {
	s.blocked = false
	s.deliver()
}

func (s *stubResponder) deliver() {
	for s.ready > 0 && !s.blocked {
		if !s.port.SendTimingResp(s.ring[s.head]) {
			s.blocked = true
			return
		}
		s.ring[s.head] = nil
		s.head = (s.head + 1) % len(s.ring)
		s.n--
		s.ready--
	}
}

// stubRequestor replays an array of requests under the generator's closed
// loop: a window of outstanding requests, an optional inter-transaction
// time, and the retry handshake. It follows trafficgen.Generator's issue and
// re-arm rules, so a layer behind it sees the load shape the real generator
// produces, without the generator's pattern, pool and statistics work.
type stubRequestor struct {
	k    *sim.Kernel
	port *mem.RequestPort
	reqs []capturedReq

	window      int
	itt         sim.Tick
	next        int
	outstanding int
	blocked     *mem.Packet
	nextAllowed sim.Tick
	tick        *sim.Event
	free        []*mem.Packet
}

func newStubRequestor(k *sim.Kernel, name string, reqs []capturedReq, window int, itt sim.Tick) *stubRequestor {
	s := &stubRequestor{k: k, reqs: reqs, window: window, itt: itt}
	s.port = mem.NewRequestPort(name, s, k)
	s.tick = sim.NewEvent(name+".tick", s.issue)
	return s
}

func (s *stubRequestor) start() { s.k.Schedule(s.tick, s.k.Now()) }

func (s *stubRequestor) done() bool {
	return s.next == len(s.reqs) && s.outstanding == 0 && s.blocked == nil
}

func (s *stubRequestor) issue() {
	now := s.k.Now()
	for s.blocked == nil && s.outstanding < s.window && s.next < len(s.reqs) && now >= s.nextAllowed {
		r := &s.reqs[s.next]
		var pkt *mem.Packet
		if n := len(s.free); n > 0 {
			pkt = s.free[n-1]
			s.free = s.free[:n-1]
		} else {
			pkt = &mem.Packet{}
		}
		*pkt = mem.Packet{Cmd: mem.WriteReq, Addr: r.addr, Size: r.size, IssueTick: now}
		if r.isRead {
			pkt.Cmd = mem.ReadReq
		}
		s.next++
		s.outstanding++
		s.nextAllowed = now + s.itt
		if !s.port.SendTimingReq(pkt) {
			s.blocked = pkt
			return
		}
		if s.itt > 0 {
			break
		}
	}
	s.rearm()
}

func (s *stubRequestor) rearm() {
	if s.blocked != nil || s.tick.Scheduled() || s.next == len(s.reqs) || s.outstanding >= s.window {
		return
	}
	when := s.nextAllowed
	if now := s.k.Now(); when < now {
		when = now
	}
	s.k.Schedule(s.tick, when)
}

// RecvTimingResp implements mem.Requestor.
func (s *stubRequestor) RecvTimingResp(pkt *mem.Packet) bool {
	s.outstanding--
	s.free = append(s.free, pkt)
	s.rearm()
	return true
}

// RecvReqRetry implements mem.Requestor.
func (s *stubRequestor) RecvReqRetry() {
	if s.blocked == nil {
		return
	}
	pkt := s.blocked
	s.blocked = nil
	if !s.port.SendTimingReq(pkt) {
		s.blocked = pkt
		return
	}
	s.rearm()
}

// wallNs is the host time fn takes, in ns.
func wallNs(fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0).Nanoseconds())
}

// isoSystem is one isolated arrangement on one kernel.
type isoSystem struct {
	k     *sim.Kernel
	start func()
	done  func() bool
	reqs  uint64
}

// isoResult is the median cost of an isolated arrangement.
type isoResult struct {
	nsPerReq     float64
	eventsPerReq float64
}

// effort sizes the isolation pass: how many requests an isolated arrangement
// replays, how often it is built and run (the median is reported), and the
// rounds and loop lengths of the micro-drivers.
type effort struct {
	isoReqs     int
	isoReps     int
	microRounds int
	microDiv    int // micro-driver loop lengths are divided by this
}

var (
	fullEffort  = effort{isoReqs: 30000, isoReps: 7, microRounds: 9, microDiv: 1}
	quickEffort = effort{isoReqs: 2000, isoReps: 3, microRounds: 3, microDiv: 20}
)

// timeIso builds and runs an arrangement e.isoReps times, stepping the
// kernel in the rigs' 1 us quanta.
func (e effort) timeIso(build func() (*isoSystem, error)) (isoResult, error) {
	var ns, ev []float64
	for i := 0; i < e.isoReps; i++ {
		s, err := build()
		if err != nil {
			return isoResult{}, err
		}
		runtime.GC()
		complete := true
		wall := wallNs(func() {
			s.start()
			limit := s.k.Now() + maxSim
			for !s.done() && complete {
				complete = s.k.Now() < limit
				s.k.RunUntil(s.k.Now() + sim.Microsecond)
			}
		})
		if !complete {
			return isoResult{}, fmt.Errorf("isolated run did not complete")
		}
		ns = append(ns, wall/float64(s.reqs))
		ev = append(ev, float64(s.k.EventsExecuted())/float64(s.reqs))
	}
	return isoResult{nsPerReq: median(ns), eventsPerReq: median(ev)}, nil
}

// loadShape is the closed loop the stubs reproduce.
type loadShape struct {
	window  int
	itt     sim.Tick
	latency sim.Tick // stub responder's fixed latency
}

// isoStubs is S: stub requestor against stub responder.
func (e effort) isoStubs(reqs []capturedReq, ls loadShape) (isoResult, error) {
	return e.timeIso(func() (*isoSystem, error) {
		k := sim.NewKernel()
		rq := newStubRequestor(k, "sreq", reqs, ls.window, ls.itt)
		rs := newStubResponder(k, "sresp", ls.latency)
		mem.Connect(rq.port, rs.port)
		return &isoSystem{k: k, start: rq.start, done: rq.done, reqs: uint64(len(reqs))}, nil
	})
}

// isoGenerator is G: the workload's own generator against the stub responder.
func (e effort) isoGenerator(w *workload, seed int64, reqs uint64, ls loadShape) (isoResult, error) {
	return e.timeIso(func() (*isoSystem, error) {
		k := sim.NewKernel()
		cfg := w.genConfig(reqs*uint64(w.units()), 0)
		gen, err := trafficgen.New(k, cfg, w.newPattern(seed, 0), stats.NewRegistry("iso"), "gen")
		if err != nil {
			return nil, err
		}
		rs := newStubResponder(k, "sresp", ls.latency)
		mem.Connect(gen.Port(), rs.port)
		return &isoSystem{k: k, start: gen.Start, done: gen.Done, reqs: cfg.Count}, nil
	})
}

// isoController is C: the captured request stream replayed into a real
// event-model controller.
func (e effort) isoController(w *workload, reqs []capturedReq, ls loadShape) (isoResult, error) {
	return e.timeIso(func() (*isoSystem, error) {
		k := sim.NewKernel()
		ctrl, err := core.NewController(k, matchedEventConfig(w), stats.NewRegistry("iso"), "mc")
		if err != nil {
			return nil, err
		}
		rq := newStubRequestor(k, "sreq", reqs, ls.window, ls.itt)
		mem.Connect(rq.port, ctrl.Port())
		done := func() bool {
			if !rq.done() {
				return false
			}
			if !ctrl.Quiescent() {
				ctrl.Drain()
				return false
			}
			return true
		}
		return &isoSystem{k: k, start: rq.start, done: done, reqs: uint64(len(reqs))}, nil
	})
}

// isoCrossbar is the stub requestor through a real crossbar to one stub
// responder per memory port.
func (e effort) isoCrossbar(cfg xbar.Config, route xbar.Route, ports int, reqs []capturedReq, ls loadShape) (isoResult, error) {
	return e.timeIso(func() (*isoSystem, error) {
		k := sim.NewKernel()
		xb, err := xbar.New(k, cfg, route, stats.NewRegistry("iso"), "xbar")
		if err != nil {
			return nil, err
		}
		for i := 0; i < ports; i++ {
			rs := newStubResponder(k, fmt.Sprintf("sresp%d", i), ls.latency)
			mem.Connect(xb.AttachMemory("mem"), rs.port)
		}
		rq := newStubRequestor(k, "sreq", reqs, ls.window, ls.itt)
		mem.Connect(rq.port, xb.AttachRequestor("sreq"))
		return &isoSystem{k: k, start: rq.start, done: rq.done, reqs: uint64(len(reqs))}, nil
	})
}

// isoCache is the stub requestor through a real cache to the stub responder.
func (e effort) isoCache(cfg cache.Config, reqs []capturedReq, ls loadShape) (isoResult, error) {
	return e.timeIso(func() (*isoSystem, error) {
		k := sim.NewKernel()
		c, err := cache.New(k, cfg, stats.NewRegistry("iso"), "cache")
		if err != nil {
			return nil, err
		}
		rs := newStubResponder(k, "sresp", ls.latency)
		mem.Connect(c.MemPort(), rs.port)
		rq := newStubRequestor(k, "sreq", reqs, ls.window, ls.itt)
		mem.Connect(rq.port, c.CPUPort())
		done := func() bool { return rq.done() && c.Quiescent() }
		return &isoSystem{k: k, start: rq.start, done: done, reqs: uint64(len(reqs))}, nil
	})
}

// isoCore is one core of the workload against the stub responder.
func (e effort) isoCore(w *workload, seed int64, memOps uint64, ls loadShape) (isoResult, error) {
	return e.timeIso(func() (*isoSystem, error) {
		k := sim.NewKernel()
		cfg := w.coreConfig(memOps * uint64(w.units()))
		c, err := cpu.New(k, cfg, w.newPattern(seed, 0), stats.NewRegistry("iso"), "core")
		if err != nil {
			return nil, err
		}
		rs := newStubResponder(k, "sresp", ls.latency)
		mem.Connect(c.Port(), rs.port)
		return &isoSystem{k: k, start: c.Start, done: c.Done, reqs: cfg.MemOps}, nil
	})
}

// isoLink is the stub requestor on one kernel and the stub responder on
// another, joined by a mem.ShardLink and stepped the way the sharded rig
// steps its shards: both kernels to the barrier, then Flush. Its time
// includes the quantum stepping of two kernels.
func (e effort) isoLink(reqs []capturedReq, ls loadShape, latency sim.Tick) (isoResult, error) {
	var ns, ev []float64
	for i := 0; i < e.isoReps; i++ {
		front, back := sim.NewKernel(), sim.NewKernel()
		rq := newStubRequestor(front, "sreq", reqs, ls.window, ls.itt)
		rs := newStubResponder(back, "sresp", ls.latency)
		link := mem.NewShardLink("link", front, back, latency)
		mem.Connect(rq.port, link.FrontPort())
		mem.Connect(link.BackPort(), rs.port)
		runtime.GC()
		wall := wallNs(func() {
			rq.start()
			for !(rq.done() && link.Quiescent()) && front.Now() < maxSim {
				limit := front.Now() + latency
				front.RunUntil(limit)
				back.RunUntil(limit)
				link.Flush()
			}
		})
		if !rq.done() {
			return isoResult{}, fmt.Errorf("isolated link run did not complete")
		}
		n := float64(len(reqs))
		ns = append(ns, wall/n)
		ev = append(ev, float64(front.EventsExecuted()+back.EventsExecuted())/n)
	}
	return isoResult{nsPerReq: median(ns), eventsPerReq: median(ev)}, nil
}

// Micro-drivers: one call in a tight loop, median of several rounds. sink
// variables keep the compiler from dropping the measured call.

var (
	sinkAddr  mem.Addr
	sinkBool  bool
	sinkCoord uint64
)

// timeLoop returns the median over e.microRounds of the ns one iteration of
// body takes, body being run n/e.microDiv times per round.
func (e effort) timeLoop(n int, body func(i int)) float64 {
	n = max(1, n/e.microDiv)
	per := make([]float64, 0, e.microRounds)
	for r := 0; r < e.microRounds; r++ {
		wall := wallNs(func() {
			for i := 0; i < n; i++ {
				body(i)
			}
		})
		per = append(per, wall/float64(n))
	}
	return median(per)
}

// kernelNsPerEvent schedules no-op events that re-arm themselves gap ticks
// ahead, three in flight like the generator/arbitrate/respond triple of a
// request, and runs them in 1 us quanta: the schedule-plus-fire cost of one
// event at that spacing.
func (e effort) kernelNsPerEvent(gap sim.Tick) float64 {
	events := 60000 / e.microDiv
	const inFlight = 3
	if gap < 1 {
		gap = 1
	}
	per := make([]float64, 0, e.microRounds)
	for r := 0; r < e.microRounds; r++ {
		k := sim.NewKernel()
		fired := 0
		evs := make([]*sim.Event, inFlight)
		for i := range evs {
			i := i
			evs[i] = sim.NewEvent("iso", func() {
				fired++
				if fired+inFlight <= events {
					k.Schedule(evs[i], k.Now()+gap*inFlight)
				}
			})
		}
		for i, e := range evs {
			k.Schedule(e, sim.Tick(i)*gap)
		}
		wall := wallNs(func() {
			for k.Pending() > 0 {
				k.RunUntil(k.Now() + sim.Microsecond)
			}
		})
		per = append(per, wall/float64(fired))
	}
	return median(per)
}

// kernelNsPerCall is the cost of one pooled one-shot event (Kernel.CallIn
// plus its firing) at ns-scale spacing.
func (e effort) kernelNsPerCall() float64 {
	calls := 60000 / e.microDiv
	per := make([]float64, 0, e.microRounds)
	for r := 0; r < e.microRounds; r++ {
		k := sim.NewKernel()
		fired := 0
		var fn func()
		fn = func() {
			fired++
			if fired < calls {
				k.CallIn("iso", 5*sim.Nanosecond, fn)
			}
		}
		k.CallIn("iso", 0, fn)
		wall := wallNs(func() {
			for k.Pending() > 0 {
				k.RunUntil(k.Now() + sim.Microsecond)
			}
		})
		per = append(per, wall/float64(fired))
	}
	return median(per)
}

// nullPeer accepts everything and does nothing: the far end of the port-hop
// micro-driver.
type nullPeer struct{}

func (nullPeer) RecvTimingReq(*mem.Packet) bool  { return true }
func (nullPeer) RecvRespRetry()                  {}
func (nullPeer) RecvTimingResp(*mem.Packet) bool { return true }
func (nullPeer) RecvReqRetry()                   {}

// portNsPerHop is one SendTimingReq through a connected port pair into a
// responder that does nothing.
func (e effort) portNsPerHop() float64 {
	req := mem.NewRequestPort("iso.req", nullPeer{}, nil)
	resp := mem.NewResponsePort("iso.resp", nullPeer{}, nil)
	mem.Connect(req, resp)
	pkt := mem.NewRead(0, 64, 0, 0)
	return e.timeLoop(200000, func(int) { sinkBool = req.SendTimingReq(pkt) })
}

// poolNsPerPkt is one PacketPool NewRead/Put pair in steady state.
func (e effort) poolNsPerPkt() float64 {
	var pool mem.PacketPool
	return e.timeLoop(200000, func(i int) {
		pool.Put(pool.NewRead(mem.Addr(i), 64, 0, 0))
	})
}

func (e effort) statsNsPerInc() float64 {
	s := stats.NewRegistry("iso").NewScalar("s", "isolation scalar")
	return e.timeLoop(400000, func(int) { s.Inc() })
}

func (e effort) statsNsPerHistSample() float64 {
	// The generator's read-latency histogram shape.
	h := stats.NewRegistry("iso").NewHistogram("h", "isolation histogram", 0, 2000, 1000)
	return e.timeLoop(400000, func(i int) { h.Sample(float64(i % 300)) })
}

// decodeNs is one address decode with the workload's mapping, over the
// workload's own addresses.
func (e effort) decodeNs(w *workload, reqs []capturedReq) (float64, error) {
	dec, err := routeDecoder(w)
	if err != nil {
		return 0, err
	}
	return e.timeLoop(len(reqs), func(i int) { sinkCoord = dec.Decode(reqs[i].addr).Row }), nil
}

// patternNsPerAddr is one Next() of the workload's own pattern.
func (e effort) patternNsPerAddr(w *workload, seed int64) float64 {
	p := w.newPattern(seed, 0)
	return e.timeLoop(100000, func(int) { sinkAddr, sinkBool = p.Next() })
}

// patternReqs draws n requests of size bytes from requestor 0's pattern.
func patternReqs(w *workload, seed int64, n int, size uint64) []capturedReq {
	p := w.newPattern(seed, 0)
	out := make([]capturedReq, n)
	for i := range out {
		a, rd := p.Next()
		out[i] = capturedReq{addr: a.AlignDown(size), size: size, isRead: rd}
	}
	return out
}
