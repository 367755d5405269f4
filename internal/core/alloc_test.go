package core

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// allocRequestor is a minimal closed-loop requestor for allocation gating:
// it records nothing per response (the harness type appends to slices, which
// would count against the controller).
type allocRequestor struct {
	port *mem.RequestPort
	got  int
}

func (r *allocRequestor) RecvTimingResp(*mem.Packet) bool { r.got++; return true }
func (r *allocRequestor) RecvReqRetry()                   {}

// TestControllerSteadyStateZeroAlloc gates the hot-path memory work: with
// packet, burst-descriptor and transaction pools in place — and the queue
// slices holding their capacity — a read/write request serviced end to end
// allocates nothing once the controller is warm. A regression here is GC
// pressure multiplied by every request of every experiment.
func TestControllerSteadyStateZeroAlloc(t *testing.T) {
	h := newHarness(t, nil)
	r := &allocRequestor{}
	// Rewire to the silent requestor (newHarness connected its own).
	k := sim.NewKernel()
	cfg := h.c.cfg
	c, err := NewController(k, cfg, stats.NewRegistry("t"), "mc")
	if err != nil {
		t.Fatal(err)
	}
	r.port = mem.NewRequestPort("gen", r, k)
	mem.Connect(r.port, c.Port())

	var pool mem.PacketPool
	addr := mem.Addr(0)
	cycle := func() {
		before := r.got
		pkt := pool.NewRead(addr, 64, 0, k.Now())
		addr = (addr + 64) % (1 << 20)
		if !r.port.SendTimingReq(pkt) {
			t.Fatal("single outstanding read refused")
		}
		for r.got == before {
			k.RunUntil(k.Now() + 100*sim.Nanosecond)
		}
		pool.Put(pkt)
	}
	// Warm everything: queue capacities, pools, the kernel's event ring, the
	// activation window, and enough refreshes to size their paths too.
	for i := 0; i < 2000; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(300, cycle); avg != 0 {
		t.Fatalf("steady-state read cycle allocates %.2f objects, want 0", avg)
	}

	wcycle := func() {
		before := r.got
		pkt := pool.NewWrite(addr, 64, 0, k.Now())
		addr = (addr + 64) % (1 << 20)
		if !r.port.SendTimingReq(pkt) {
			t.Fatal("single outstanding write refused")
		}
		for r.got == before {
			k.RunUntil(k.Now() + 100*sim.Nanosecond)
		}
		pool.Put(pkt)
	}
	for i := 0; i < 500; i++ {
		wcycle()
	}
	if avg := testing.AllocsPerRun(300, wcycle); avg != 0 {
		t.Fatalf("steady-state write cycle allocates %.2f objects, want 0", avg)
	}
}

// TestDescriptorPoolsRecycle checks the pools actually recycle: after a
// request completes, its burst descriptor and transaction are reused by the
// next request instead of growing the pools.
func TestDescriptorPoolsRecycle(t *testing.T) {
	h := newHarness(t, nil)
	h.at(0, func() { h.send(mem.NewRead(0, 64, 0, 0)) })
	h.run(10 * sim.Microsecond)
	if len(h.responses) != 1 {
		t.Fatalf("got %d responses, want 1", len(h.responses))
	}
	if h.c.dps.Len() == 0 || h.c.txns.Len() == 0 {
		t.Fatalf("pools empty after completion: dp=%d tr=%d", h.c.dps.Len(), h.c.txns.Len())
	}
	dpBefore, trBefore := h.c.dps.Len(), h.c.txns.Len()
	h.at(h.k.Now()+sim.Nanosecond, func() { h.send(mem.NewRead(4096, 64, 0, 0)) })
	h.run(10 * sim.Microsecond)
	if h.c.dps.Len() != dpBefore || h.c.txns.Len() != trBefore {
		t.Fatalf("pools grew across a request: dp %d->%d tr %d->%d",
			dpBefore, h.c.dps.Len(), trBefore, h.c.txns.Len())
	}
}
