package xbar

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// delayMem answers every request after a fixed delay, retries a refused
// response when told to, and allocates nothing per request (echoMem builds
// an event and a closure for each one).
type delayMem struct {
	k     *sim.Kernel
	port  *mem.ResponsePort
	delay sim.Tick
	q     mem.PacketQueue
	ev    *sim.Event
	// refused counts responses the crossbar would not take.
	refused int
}

func newDelayMem(k *sim.Kernel, delay sim.Tick) *delayMem {
	m := &delayMem{k: k, delay: delay}
	m.port = mem.NewResponsePort("mem", m, k)
	m.ev = sim.NewEvent("mem.resp", m.respond)
	return m
}

func (m *delayMem) RecvTimingReq(pkt *mem.Packet) bool {
	pkt.MakeResponse()
	m.q.Push(pkt, m.k.Now()+m.delay)
	if m.q.Len() == 1 {
		m.k.Schedule(m.ev, m.k.Now()+m.delay)
	}
	return true
}

func (m *delayMem) respond() {
	for m.q.Len() > 0 {
		pkt, at := m.q.At(0)
		if at > m.k.Now() {
			m.k.Schedule(m.ev, at)
			return
		}
		if !m.port.SendTimingResp(pkt) {
			m.refused++
			return // RecvRespRetry resumes
		}
		m.q.Pop()
	}
}

func (m *delayMem) RecvRespRetry() { m.respond() }

// pooledRequestor sends from its own pool, parks a refused request until the
// crossbar's retry, and releases packets on response.
type pooledRequestor struct {
	port    *mem.RequestPort
	pool    mem.PacketPool
	blocked *mem.Packet
	refused int
	got     int
}

func (r *pooledRequestor) send(pkt *mem.Packet) {
	if !r.port.SendTimingReq(pkt) {
		r.blocked = pkt
		r.refused++
	}
}

func (r *pooledRequestor) RecvTimingResp(pkt *mem.Packet) bool {
	r.pool.Put(pkt)
	r.got++
	return true
}

func (r *pooledRequestor) RecvReqRetry() {
	pkt := r.blocked
	r.blocked = nil
	r.send(pkt)
}

// TestCrossbarRoundTripZeroAlloc gates the crossbar's share of the request
// path: with ring queues, a request and its response cross without
// allocating — including a request refused on a full queue and pushed on the
// retry, and a response refused the same way on the way back.
func TestCrossbarRoundTripZeroAlloc(t *testing.T) {
	k := sim.NewKernel()
	cfg := Config{Latency: 2 * sim.Nanosecond, QueueDepth: 1}
	x, err := New(k, cfg, InterleaveRoute(2, 64), stats.NewRegistry("t"), "xbar")
	if err != nil {
		t.Fatal(err)
	}
	r := &pooledRequestor{}
	r.port = mem.NewRequestPort("cpu", r, k)
	mem.Connect(r.port, x.AttachRequestor("cpu"))
	var mems [2]*delayMem
	for i := range mems {
		mems[i] = newDelayMem(k, 10*sim.Nanosecond)
		mem.Connect(x.AttachMemory("mem"), mems[i].port)
	}

	// Three requests on one tick into queues of depth one: the two for
	// memory 0 collide on its request queue (the second is refused, then
	// pushed on the retry), and the first responses of both memories
	// collide on the response queue the same way.
	var addr mem.Addr
	cycle := func() {
		addr += 256
		for _, off := range []mem.Addr{0, 64, 128} {
			r.send(r.pool.NewRead(addr+off, 64, 0, k.Now()))
		}
		k.RunUntil(k.Now() + 100*sim.Nanosecond)
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	respRefused := func() int { return mems[0].refused + mems[1].refused }
	got, reqRefusedBefore, respRefusedBefore := r.got, r.refused, respRefused()
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("crossbar round trip allocates %.2f objects, want 0", avg)
	}
	if r.got-got < 600 || r.refused-reqRefusedBefore < 200 || respRefused()-respRefusedBefore < 200 ||
		x.InFlight() != 0 || !x.Quiescent() {
		t.Fatalf("gate missed its path: %d responses, %d refused requests, %d refused responses, %d in flight",
			r.got-got, r.refused-reqRefusedBefore, respRefused()-respRefusedBefore, x.InFlight())
	}
}
