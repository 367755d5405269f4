package cache

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// delayMem answers every request after a fixed delay and allocates nothing
// per request (the fakeMem of cache_test.go builds an event and a closure for
// each one, which would count against the cache under AllocsPerRun).
type delayMem struct {
	k      *sim.Kernel
	port   *mem.ResponsePort
	delay  sim.Tick
	q      mem.PacketQueue
	ev     *sim.Event
	writes int
}

func newDelayMem(k *sim.Kernel, delay sim.Tick) *delayMem {
	m := &delayMem{k: k, delay: delay}
	m.port = mem.NewResponsePort("mem", m, k)
	m.ev = sim.NewEvent("mem.resp", m.respond)
	return m
}

func (m *delayMem) RecvTimingReq(pkt *mem.Packet) bool {
	if pkt.Cmd == mem.WriteReq {
		m.writes++
	}
	m.q.Push(pkt, m.k.Now()+m.delay)
	if m.q.Len() == 1 && !m.ev.Scheduled() {
		m.k.Schedule(m.ev, m.k.Now()+m.delay)
	}
	return true
}

func (m *delayMem) respond() {
	for m.q.Len() > 0 {
		pkt, at := m.q.At(0)
		if at > m.k.Now() {
			if !m.ev.Scheduled() { // else a request taken mid-send armed it for this head
				m.k.Schedule(m.ev, at)
			}
			return
		}
		m.q.Pop()
		pkt.MakeResponse()
		if !m.port.SendTimingResp(pkt) {
			panic("cache refused a memory response")
		}
	}
}

func (m *delayMem) RecvRespRetry() {}

// pooledCPU issues one request at a time from its own pool and releases it
// on response, like cpu.Core.
type pooledCPU struct {
	port *mem.RequestPort
	pool mem.PacketPool
	got  int
}

func (c *pooledCPU) RecvTimingResp(pkt *mem.Packet) bool {
	c.pool.Put(pkt)
	c.got++
	return true
}

func (c *pooledCPU) RecvReqRetry() {}

// TestCacheSteadyStateZeroAlloc gates the cache's share of the full-system
// request path: with fills and writebacks drawn from the cache's pool, the
// MSHR file reusing its slots and both queues rings, neither a hit nor a
// whole miss -> fill -> dirty eviction -> writeback -> ack cycle allocates
// once the cache is warm.
func TestCacheSteadyStateZeroAlloc(t *testing.T) {
	k := sim.NewKernel()
	cfg := Config{ // the L1 of the Fig. 8 system, shrunk to 8 sets
		SizeBytes: 1024, Assoc: 2, LineBytes: 64,
		HitLatency: 2 * sim.Nanosecond, MSHRs: 6, WriteBufferDepth: 8,
	}
	c, err := New(k, cfg, stats.NewRegistry("t"), "l1")
	if err != nil {
		t.Fatal(err)
	}
	u := &pooledCPU{}
	u.port = mem.NewRequestPort("cpu", u, k)
	m := newDelayMem(k, 30*sim.Nanosecond)
	mem.Connect(u.port, c.CPUPort())
	mem.Connect(c.MemPort(), m.port)

	// Every write lands in set 0 with a fresh tag: a write-allocate miss
	// whose fill evicts the line dirtied two cycles earlier.
	var addr mem.Addr
	missCycle := func() {
		addr += mem.Addr(cfg.SizeBytes / uint64(cfg.Assoc))
		if !u.port.SendTimingReq(u.pool.NewWrite(addr, 8, 0, k.Now())) {
			t.Fatal("single outstanding write refused")
		}
		k.RunUntil(k.Now() + 200*sim.Nanosecond) // fill, response and writeback ack
	}
	for i := 0; i < 100; i++ {
		missCycle()
	}
	wbBefore, gotBefore := m.writes, u.got
	if avg := testing.AllocsPerRun(200, missCycle); avg != 0 {
		t.Fatalf("miss/fill/eviction/writeback cycle allocates %.2f objects, want 0", avg)
	}
	if n := u.got - gotBefore; m.writes-wbBefore != n || n < 200 {
		t.Fatalf("%d cycles produced %d writebacks: the gate missed the eviction path", n, m.writes-wbBefore)
	}
	if !c.Quiescent() {
		t.Fatal("cache not quiescent after the miss cycles")
	}

	hitCycle := func() {
		if !u.port.SendTimingReq(u.pool.NewRead(addr, 8, 0, k.Now())) {
			t.Fatal("single outstanding read refused")
		}
		k.RunUntil(k.Now() + 10*sim.Nanosecond)
	}
	hitsBefore := c.st.hits.Value()
	if avg := testing.AllocsPerRun(200, hitCycle); avg != 0 {
		t.Fatalf("hit cycle allocates %.2f objects, want 0", avg)
	}
	if c.st.hits.Value()-hitsBefore < 200 {
		t.Fatal("the hit cycles did not hit")
	}
}
