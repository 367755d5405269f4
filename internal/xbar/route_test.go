package xbar

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// fickleRequestor issues a fixed number of reads, one per tick while the
// crossbar takes them, and refuses responses at random; every response it
// accepts must be one of its own, unanswered so far, with nothing left on
// its return route.
type fickleRequestor struct {
	t        *testing.T
	k        *sim.Kernel
	rng      *rand.Rand
	id       int
	port     *mem.RequestPort
	toSend   int
	blocked  *mem.Packet
	sendEv   *sim.Event
	retryEv  *sim.Event
	awaiting map[*mem.Packet]bool
	got      int
	refused  int
}

func newFickleRequestor(t *testing.T, k *sim.Kernel, seed int64, id, n int) *fickleRequestor {
	r := &fickleRequestor{t: t, k: k, rng: rand.New(rand.NewSource(seed)), id: id, toSend: n, awaiting: map[*mem.Packet]bool{}}
	r.port = mem.NewRequestPort(fmt.Sprintf("req%d", id), r, k)
	r.sendEv = sim.NewEvent(r.port.Name()+".send", r.sendNext)
	r.retryEv = sim.NewEvent(r.port.Name()+".respRetry", r.port.SendRespRetry)
	return r
}

func (r *fickleRequestor) sendNext() {
	if r.toSend == 0 || r.blocked != nil {
		return
	}
	r.toSend--
	pkt := mem.NewRead(mem.Addr(r.rng.Intn(1<<16))*64, 64, r.id, r.k.Now())
	r.awaiting[pkt] = true
	if !r.port.SendTimingReq(pkt) {
		r.blocked = pkt
		return
	}
	r.k.Schedule(r.sendEv, r.k.Now()+sim.Tick(r.rng.Intn(3))*sim.Nanosecond)
}

func (r *fickleRequestor) RecvReqRetry() {
	pkt := r.blocked
	if pkt == nil {
		return
	}
	r.blocked = nil
	if !r.port.SendTimingReq(pkt) {
		r.blocked = pkt
		return
	}
	if !r.sendEv.Scheduled() {
		r.k.Schedule(r.sendEv, r.k.Now())
	}
}

func (r *fickleRequestor) RecvTimingResp(pkt *mem.Packet) bool {
	if r.rng.Intn(4) == 0 {
		r.refused++
		if !r.retryEv.Scheduled() {
			r.k.Schedule(r.retryEv, r.k.Now()+sim.Tick(1+r.rng.Intn(20))*sim.Nanosecond)
		}
		return false
	}
	switch {
	case pkt.RequestorID != r.id || !r.awaiting[pkt]:
		r.t.Errorf("requestor %d was handed %s at %s, which it is not waiting for", r.id, pkt, r.k.Now())
	case len(pkt.Route()) != 0:
		r.t.Errorf("requestor %d: %s delivered with route %v still on it", r.id, pkt, pkt.Route())
	}
	delete(r.awaiting, pkt)
	r.got++
	return true
}

// fickleMem refuses requests at random, answers the ones it takes after a
// random delay in arrival order, and holds a refused response for the retry.
type fickleMem struct {
	t         *testing.T
	k         *sim.Kernel
	rng       *rand.Rand
	port      *mem.ResponsePort
	q         mem.PacketQueue
	respEv    *sim.Event
	retryEv   *sim.Event
	lastReady sim.Tick
	wantDepth int
	served    int
	refused   int
	respBack  int
}

func newFickleMem(t *testing.T, k *sim.Kernel, seed int64, name string, wantDepth int) *fickleMem {
	m := &fickleMem{t: t, k: k, rng: rand.New(rand.NewSource(seed)), wantDepth: wantDepth}
	m.port = mem.NewResponsePort(name, m, k)
	m.respEv = sim.NewEvent(name+".resp", m.respond)
	m.retryEv = sim.NewEvent(name+".reqRetry", m.port.SendReqRetry)
	return m
}

func (m *fickleMem) RecvTimingReq(pkt *mem.Packet) bool {
	if m.rng.Intn(3) == 0 {
		m.refused++
		if !m.retryEv.Scheduled() {
			m.k.Schedule(m.retryEv, m.k.Now()+sim.Tick(1+m.rng.Intn(15))*sim.Nanosecond)
		}
		return false
	}
	if len(pkt.Route()) != m.wantDepth {
		m.t.Errorf("%s reached %s with route %v, want %d hops", pkt, m.port.Name(), pkt.Route(), m.wantDepth)
	}
	m.served++
	pkt.MakeResponse()
	ready := m.k.Now() + sim.Tick(1+m.rng.Intn(30))*sim.Nanosecond
	if ready < m.lastReady {
		ready = m.lastReady
	}
	m.lastReady = ready
	m.q.Push(pkt, ready)
	if !m.respEv.Scheduled() {
		m.k.Schedule(m.respEv, ready)
	}
	return true
}

func (m *fickleMem) respond() {
	for m.q.Len() > 0 {
		pkt, at := m.q.At(0)
		if at > m.k.Now() {
			if !m.respEv.Scheduled() {
				m.k.Schedule(m.respEv, at)
			}
			return
		}
		if !m.port.SendTimingResp(pkt) {
			m.respBack++
			return // RecvRespRetry resumes
		}
		m.q.Pop()
	}
}

// RecvRespRetry may come unprompted: the crossbar wakes every memory side
// when any response queue frees a slot.
func (m *fickleMem) RecvRespRetry() { m.respond() }

// TestTwoCrossbarRouteProperty drives the topology no shipped system builds:
// one packet through two crossbars, so its route is two deep. Requestors and
// memories refuse at random in both directions and the crossbars' queues are
// shallow, so every refusal and retry path runs with hops on the packet.
func TestTwoCrossbarRouteProperty(t *testing.T) {
	const perRequestor = 400
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nReq, nMid, nMem := 2+rng.Intn(4), 1+rng.Intn(3), 1+rng.Intn(4)
		k := sim.NewKernel()
		reg := stats.NewRegistry("t")
		cfg := Config{Latency: sim.Tick(rng.Intn(4)) * sim.Nanosecond, QueueDepth: 1 + rng.Intn(3)}
		outer, err := New(k, cfg, InterleaveRoute(nMid, 64), reg, "outer")
		if err != nil {
			t.Fatal(err)
		}
		inner, err := New(k, cfg, InterleaveRoute(nMem, 256), reg, "inner")
		if err != nil {
			t.Fatal(err)
		}
		if outer.tag == inner.tag {
			t.Fatalf("crossbars %q and %q share tag %d: the test cannot tell them apart", outer.name, inner.name, outer.tag)
		}
		var reqs []*fickleRequestor
		for i := 0; i < nReq; i++ {
			r := newFickleRequestor(t, k, seed*100+int64(i), i, perRequestor)
			mem.Connect(r.port, outer.AttachRequestor(r.port.Name()))
			reqs = append(reqs, r)
		}
		for i := 0; i < nMid; i++ {
			mem.Connect(outer.AttachMemory("mid"), inner.AttachRequestor("mid"))
		}
		var mems []*fickleMem
		for i := 0; i < nMem; i++ {
			m := newFickleMem(t, k, seed*1000+int64(i), fmt.Sprintf("mem%d", i), 2)
			mem.Connect(inner.AttachMemory(m.port.Name()), m.port)
			mems = append(mems, m)
		}
		for _, r := range reqs {
			k.Schedule(r.sendEv, 0)
		}
		k.Run()

		where := fmt.Sprintf("seed %d (%d requestors, %d links, %d memories, depth %d)", seed, nReq, nMid, nMem, cfg.QueueDepth)
		reqRefused, respRefused := 0, 0
		for _, r := range reqs {
			if r.got != perRequestor || len(r.awaiting) != 0 || r.blocked != nil {
				t.Errorf("%s: requestor %d got %d of %d responses, %d unanswered", where, r.id, r.got, perRequestor, len(r.awaiting))
			}
			respRefused += r.refused
		}
		for _, m := range mems {
			reqRefused += m.refused
			respRefused += m.respBack
		}
		if reqRefused < perRequestor/4 || respRefused < perRequestor/4 {
			t.Errorf("%s: %d refused requests, %d refused responses: the retry paths were not exercised", where, reqRefused, respRefused)
		}
		for _, x := range []*Crossbar{outer, inner} {
			if x.InFlight() != 0 || !x.Quiescent() {
				t.Errorf("%s: %s has %d in flight, quiescent %v, with nothing left to run", where, x.name, x.InFlight(), x.Quiescent())
			}
		}
		if t.Failed() {
			return
		}
	}
}

// panicMessage runs f and returns what it panicked with ("" if it returned).
func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestAttachRequestorRefusesOneTooMany: a route names the side in a byte, so
// the port that would not fit is refused when it is attached, by name.
func TestAttachRequestorRefusesOneTooMany(t *testing.T) {
	x, err := New(sim.NewKernel(), DefaultConfig(), InterleaveRoute(1, 64), stats.NewRegistry("t"), "wide")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxRequestors; i++ {
		x.AttachRequestor(fmt.Sprintf("cpu%d", i))
	}
	msg := panicMessage(func() { x.AttachRequestor("straw") })
	if !strings.Contains(msg, `wide: requestor port "straw" is one too many`) {
		t.Fatalf("attaching port %d: %q", maxRequestors+1, msg)
	}
}
