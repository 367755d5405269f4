package core

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// refusingRequestor refuses the first N responses and signals retry later,
// exercising the controller's response-retry path.
type refusingRequestor struct {
	k         *sim.Kernel
	port      *mem.RequestPort
	refuse    int
	delivered []*mem.Packet
}

func (r *refusingRequestor) RecvTimingResp(pkt *mem.Packet) bool {
	if r.refuse > 0 {
		r.refuse--
		r.k.Schedule(sim.NewEvent("respRetry", func() { r.port.SendRespRetry() }),
			r.k.Now()+10*sim.Nanosecond)
		return false
	}
	r.delivered = append(r.delivered, pkt)
	return true
}

func (r *refusingRequestor) RecvReqRetry() {}

// A requestor that refuses responses gets them redelivered after signalling
// readiness; nothing is lost or reordered.
func TestControllerResponseRetry(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig(dram.DDR3_1600_x64())
	cfg.FrontendLatency = 0
	cfg.BackendLatency = 0
	reg := stats.NewRegistry("t")
	c, err := NewController(k, cfg, reg, "mc")
	if err != nil {
		t.Fatal(err)
	}
	r := &refusingRequestor{k: k, refuse: 2}
	r.port = mem.NewRequestPort("gen", r, k)
	mem.Connect(r.port, c.Port())

	k.Schedule(sim.NewEvent("inject", func() {
		for i := 0; i < 4; i++ {
			r.port.SendTimingReq(mem.NewRead(mem.Addr(i*64), 64, 0, k.Now()))
		}
	}), 0)
	k.RunUntil(10 * sim.Microsecond)
	if len(r.delivered) != 4 {
		t.Fatalf("delivered = %d, want 4 (refusals must be retried)", len(r.delivered))
	}
	// Order preserved (sequential same-row reads complete in order).
	for i, pkt := range r.delivered {
		if pkt.Addr != mem.Addr(i*64) {
			t.Fatalf("response %d out of order: %s", i, pkt)
		}
	}
	if !c.Quiescent() {
		t.Fatal("controller not quiescent after retries")
	}
	// Spurious retry with nothing pending is harmless.
	c.RecvRespRetry()
}

// Trivial accessors still deserve pinning.
func TestAccessors(t *testing.T) {
	h := newHarness(t, nil)
	if h.c.Name() != "mc" {
		t.Fatalf("Name = %q", h.c.Name())
	}
	if h.c.Config().Device.Name != dram.DDR3_1600_x64().Name {
		t.Fatal("Config accessor wrong")
	}
}
