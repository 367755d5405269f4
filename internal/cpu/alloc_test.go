package cpu

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// delayMem answers every request after a fixed delay and allocates nothing
// per request (instantMem builds an event and a closure for each one).
type delayMem struct {
	k     *sim.Kernel
	port  *mem.ResponsePort
	delay sim.Tick
	q     mem.PacketQueue
	ev    *sim.Event
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

// respond sends every due response. The core may issue inside a send (its
// next request joins the queue), so the event is armed once, afterwards.
func (m *delayMem) respond() {
	for m.q.Len() > 0 {
		pkt, at := m.q.At(0)
		if at > m.k.Now() {
			break
		}
		m.q.Pop()
		m.port.SendTimingResp(pkt)
	}
	if m.q.Len() > 0 && !m.ev.Scheduled() {
		_, at := m.q.At(0)
		m.k.Schedule(m.ev, at)
	}
}

func (m *delayMem) RecvRespRetry() {}

// TestCoreSteadyStateZeroAlloc gates the core's share of the request path:
// packets are drawn from the core's pool on issue and return to it when the
// response is consumed, so a warm core issues, stalls on its window and
// retires without allocating.
func TestCoreSteadyStateZeroAlloc(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig() // MemOps 0: runs until the test stops stepping
	c, err := New(k, cfg, CannealWorkload(64<<20, 1), stats.NewRegistry("t"), "core")
	if err != nil {
		t.Fatal(err)
	}
	m := newDelayMem(k, 40*sim.Nanosecond)
	mem.Connect(c.Port(), m.port)
	c.Start()
	step := func() { k.RunUntil(k.Now() + sim.Microsecond) }
	// Long enough for the kernel's event ring and the event pool behind Call to
	// have reached their peak (both grow on demand, then are reused).
	for i := 0; i < 300; i++ {
		step()
	}
	before, events := c.memOps.Value(), k.EventsExecuted()
	if avg := testing.AllocsPerRun(100, step); avg != 0 {
		t.Fatalf("core issue/response cycle allocates %.2f objects per microsecond, want 0", avg)
	}
	// A stalled core answered at a tick issues inside the response, so the
	// memory's event is about the only one fired per operation.
	ops := c.memOps.Value() - before
	if perOp := float64(k.EventsExecuted()-events) / ops; ops < 1000 || c.StallFraction() == 0 || perOp > 1.1 {
		t.Fatalf("gate missed its path: %v memory operations, stall fraction %v, %.2f events per operation",
			ops, c.StallFraction(), perOp)
	}
}
