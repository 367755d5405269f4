package cache

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/xbar"
)

// poisonMem answers fills after a delay, poisoning the first n read
// responses (an uncorrectable-ECC memory stand-in).
type poisonMem struct {
	k      *sim.Kernel
	port   *mem.ResponsePort
	poison int
}

func newPoisonMem(k *sim.Kernel, poison int) *poisonMem {
	p := &poisonMem{k: k, poison: poison}
	p.port = mem.NewResponsePort("pmem", p, k)
	return p
}

func (p *poisonMem) RecvTimingReq(pkt *mem.Packet) bool {
	taint := false
	if pkt.Cmd == mem.ReadReq && p.poison > 0 {
		p.poison--
		taint = true
	}
	p.k.Schedule(sim.NewEvent("pmemResp", func() {
		pkt.MakeResponse()
		pkt.Poisoned = taint
		p.port.SendTimingResp(pkt)
	}), p.k.Now()+50*sim.Nanosecond)
	return true
}

func (p *poisonMem) RecvRespRetry() {}

// A poisoned fill is delivered to every waiter with the flag intact and the
// line is NOT installed — the next access misses again and a clean refill
// heals the set.
func TestPoisonedFillNotInstalled(t *testing.T) {
	k := sim.NewKernel()
	reg := stats.NewRegistry("t")
	c, err := New(k, defaultCfg(), reg, "l1")
	if err != nil {
		t.Fatal(err)
	}
	u := newCPU(k)
	m := newPoisonMem(k, 1)
	mem.Connect(u.port, c.CPUPort())
	mem.Connect(c.MemPort(), m.port)

	k.Schedule(sim.NewEvent("go", func() {
		u.send(mem.NewRead(0x1000, 64, 0, 0))
		u.send(mem.NewRead(0x1010, 8, 0, 0)) // merges into the same MSHR
	}), 0)
	runChecked(t, k, c, 10*sim.Microsecond)

	if len(u.responses) != 2 {
		t.Fatalf("responses = %d, want 2", len(u.responses))
	}
	for i, r := range u.responses {
		if !r.Poisoned {
			t.Fatalf("waiter %d response not poisoned: %s", i, r)
		}
	}
	if got := reg.Get("t.l1.poisonedFills").(*stats.Scalar).Value(); got != 1 {
		t.Fatalf("poisonedFills = %v, want 1", got)
	}
	if !c.Quiescent() {
		t.Fatal("cache not quiescent after poisoned fill")
	}

	// Re-access: the poisoned line must not have been installed, so this is
	// a fresh miss, and the (now clean) refill is delivered unpoisoned.
	k.Schedule(sim.NewEvent("again", func() {
		u.send(mem.NewRead(0x1000, 64, 0, 0))
	}), k.Now()+sim.Nanosecond)
	runChecked(t, k, c, k.Now()+10*sim.Microsecond)
	if len(u.responses) != 3 {
		t.Fatalf("responses = %d, want 3", len(u.responses))
	}
	if u.responses[2].Poisoned {
		t.Fatal("clean refill still poisoned")
	}
	if got := c.st.misses.Value(); got != 3 {
		t.Fatalf("misses = %v, want 3 (poisoned line not cached)", got)
	}
}

// End-to-end poisoned-packet contract: an uncorrectable error injected in
// the DRAM controller completes the request and the poison flag survives the
// controller → crossbar → cache → CPU response path without any panic.
func TestPoisonPropagatesThroughXbarAndCache(t *testing.T) {
	k := sim.NewKernel()
	reg := stats.NewRegistry("t")

	ctrlCfg := core.DefaultConfig(dram.DDR3_1600_x64())
	ctrlCfg.Faults = faults.Config{Seed: 1, UncorrectablePerBurst: 1.0}
	ctrl, err := core.NewController(k, ctrlCfg, reg, "mc")
	if err != nil {
		t.Fatal(err)
	}

	xb, err := xbar.New(k, xbar.DefaultConfig(), xbar.InterleaveRoute(1, 1<<30), reg, "xbar")
	if err != nil {
		t.Fatal(err)
	}
	mem.Connect(xb.AttachMemory("mem0"), ctrl.Port())

	l1, err := New(k, defaultCfg(), reg, "l1")
	if err != nil {
		t.Fatal(err)
	}
	mem.Connect(l1.MemPort(), xb.AttachRequestor("l1"))
	u := newCPU(k)
	mem.Connect(u.port, l1.CPUPort())

	k.Schedule(sim.NewEvent("go", func() {
		u.send(mem.NewRead(0x2000, 64, 0, 0))
	}), 0)
	runChecked(t, k, l1, 50*sim.Microsecond)

	if len(u.responses) != 1 {
		t.Fatalf("responses = %d, want 1", len(u.responses))
	}
	if !u.responses[0].Poisoned {
		t.Fatalf("response survived unpoisoned: %s", u.responses[0])
	}
	if got := reg.Get("t.mc.uncorrectedErrors").(*stats.Scalar).Value(); got == 0 {
		t.Fatal("controller recorded no uncorrectable error")
	}
}
