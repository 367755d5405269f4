package core

import (
	"math/rand"
	"testing"

	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// writePairs writes at even multiples of 64 bytes from paced events, and
// answers each of their acknowledgements by writing the next 64 bytes inside
// it.
type writePairs struct {
	k             *sim.Kernel
	port          *mem.RequestPort
	acks, refused int
	// ticks counts the ticks acknowledgements arrived at; last is the latest.
	ticks int
	last  sim.Tick
}

func (w *writePairs) write(addr mem.Addr) {
	if !w.port.SendTimingReq(mem.NewWrite(addr, 64, 0, w.k.Now())) {
		w.refused++
	}
}

func (w *writePairs) RecvTimingResp(pkt *mem.Packet) bool {
	w.acks++
	if w.ticks == 0 || w.last != w.k.Now() {
		w.ticks, w.last = w.ticks+1, w.k.Now()
	}
	if pkt.Addr%128 == 0 {
		w.write(pkt.Addr + 64)
	}
	return true
}

func (w *writePairs) RecvReqRetry() {}

// With no frontend latency a write issued inside an acknowledgement is
// acknowledged at the same tick. The respond loop sends that one too and arms
// its event only at its tail, so the event never fires to send nothing. With
// deferred events scheduled into the ring (sim.ScheduleDeferred) every
// acknowledgement leaves in a respond event, so the event fires once per tick
// an acknowledgement arrives at: an empty or a second firing at a tick would
// make it fire more often. Deferred, a loop due as the write that queued it
// returns fires uncounted, so the census counts it less often still, for the
// same acknowledgements.
func TestRespondLoopArmsItsEventOnce(t *testing.T) {
	const pairs = 200
	run := func(ring bool) (w *writePairs, fires int) {
		defer func(was bool) { sim.ScheduleDeferred = was }(sim.ScheduleDeferred)
		sim.ScheduleDeferred = ring
		k := sim.NewKernel()
		cfg := DefaultConfig(dram.DDR3_1600_x64())
		cfg.FrontendLatency = 0
		c, err := NewController(k, cfg, stats.NewRegistry("t"), "mc")
		if err != nil {
			t.Fatal(err)
		}
		w = &writePairs{k: k}
		w.port = mem.NewRequestPort("w", w, k)
		mem.Connect(w.port, c.Port())
		for i := 0; i < pairs; i++ {
			k.Call("w", sim.Tick(i)*20*sim.Nanosecond, func() { w.write(mem.Addr(i) * 128) })
		}
		k.RunUntil(pairs * 20 * sim.Nanosecond)
		if w.acks != 2*pairs || w.refused != 0 {
			t.Fatalf("%d of %d writes acknowledged, %d refused", w.acks, 2*pairs, w.refused)
		}
		return w, int(k.Census()["mc.respond"])
	}
	w, fires := run(true)
	t.Logf("%d acknowledgements in %d respond events", w.acks, fires)
	if fires != w.ticks {
		t.Fatalf("%d respond events for acknowledgements at %d ticks", fires, w.ticks)
	}
	held, heldFires := run(false)
	t.Logf("deferred sends uncounted: %d respond events", heldFires)
	if heldFires > held.ticks || held.ticks != w.ticks {
		t.Fatalf("%d respond events for acknowledgements at %d ticks with the deferred sends uncounted", heldFires, held.ticks)
	}
}

// bufferProbe is a closed-loop requestor, mostly reads of one or two bursts,
// that issues inside the responses it takes and refuses a seeded share of
// them, wherever they fall in a batch, asking for them again after a seeded
// delay: the responses due meanwhile then leave together in the retry's
// call. It records the controller's read-buffer occupancy at every send;
// its test records it between events too.
type bufferProbe struct {
	k    *sim.Kernel
	c    *Controller
	port *mem.RequestPort
	rng  *rand.Rand

	left, outstanding int
	blocked           *mem.Packet
	maxEntries        int

	taken, refusedResps, batched int
	lastTaken                    sim.Tick
}

func (p *bufferProbe) issue() {
	for p.blocked == nil && p.outstanding < 8 && p.left > 0 {
		p.left--
		p.outstanding++
		addr, size := mem.Addr(p.rng.Intn(1<<14))*64, uint64(64*(1+p.rng.Intn(2)))
		pkt := mem.NewRead(addr, size, 0, p.k.Now())
		if p.rng.Intn(5) == 0 {
			pkt = mem.NewWrite(addr, size, 0, p.k.Now())
		}
		if !p.port.SendTimingReq(pkt) {
			p.blocked = pkt
			return
		}
	}
}

func (p *bufferProbe) RecvTimingResp(*mem.Packet) bool {
	now := p.k.Now()
	p.maxEntries = max(p.maxEntries, p.c.readEntries)
	if p.rng.Intn(4) == 0 {
		p.refusedResps++
		p.k.Call("probe.respRetry", now+sim.Tick(p.rng.Intn(3))*30*sim.Nanosecond, p.port.SendRespRetry)
		return false
	}
	if p.taken > 0 && p.lastTaken == now {
		p.batched++
	}
	p.taken++
	p.lastTaken = now
	p.outstanding--
	p.issue()
	return true
}

func (p *bufferProbe) RecvReqRetry() {
	pkt := p.blocked
	p.blocked = nil
	if !p.port.SendTimingReq(pkt) {
		p.blocked = pkt
		return
	}
	p.issue()
}

// A requestor that issues inside the responses it takes, and refuses some
// of them wherever they fall in a batch, never finds the read buffer holding
// more than ReadBufferSize bursts, at a send or between events, and every
// request is answered: a response frees its entries only once it is taken.
func TestRespondKeepsReadBufferBound(t *testing.T) {
	const requests = 600
	batched, refused := 0, 0
	for seed := int64(1); seed <= 6; seed++ {
		k := sim.NewKernel()
		cfg := DefaultConfig(dram.DDR3_1600_x64())
		cfg.FrontendLatency, cfg.BackendLatency, cfg.ReadBufferSize = 0, 0, 4
		c, err := NewController(k, cfg, stats.NewRegistry("t"), "mc")
		if err != nil {
			t.Fatal(err)
		}
		p := &bufferProbe{k: k, c: c, rng: rand.New(rand.NewSource(seed)), left: requests, lastTaken: -1}
		p.port = mem.NewRequestPort("probe", p, k)
		mem.Connect(p.port, c.Port())
		k.Call("start", 0, p.issue)
		run := func(limit sim.Tick) {
			for next, ok := k.PeekNext(); ok && next <= limit; next, ok = k.PeekNext() {
				k.RunUntil(next)
				p.maxEntries = max(p.maxEntries, c.readEntries)
			}
		}
		run(500 * sim.Microsecond)
		c.Drain()
		run(501 * sim.Microsecond)
		if p.maxEntries > cfg.ReadBufferSize {
			t.Errorf("seed %d: %d read-buffer entries held at a send or between events, in a buffer of %d", seed, p.maxEntries, cfg.ReadBufferSize)
		}
		if p.taken != requests || !c.Quiescent() || c.readEntries != 0 {
			t.Fatalf("seed %d: %d of %d requests answered; controller quiescent %v with %d read-buffer entries held",
				seed, p.taken, requests, c.Quiescent(), c.readEntries)
		}
		batched += p.batched
		refused += p.refusedResps
	}
	t.Logf("%d responses refused, %d taken behind another at their tick", refused, batched)
	if batched < 100 || refused < 100 {
		t.Fatalf("%d batched responses, %d refusals; want at least 100 each", batched, refused)
	}
}
