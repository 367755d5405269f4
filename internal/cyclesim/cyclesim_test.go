package cyclesim

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// harness mirrors the event-model test harness for the cycle-based baseline.
type harness struct {
	k    *sim.Kernel
	c    *Controller
	port *mem.RequestPort

	responses []*mem.Packet
	respTicks []sim.Tick
	blocked   *mem.Packet
	retries   int
}

func (h *harness) RecvTimingResp(pkt *mem.Packet) bool {
	h.responses = append(h.responses, pkt)
	h.respTicks = append(h.respTicks, h.k.Now())
	return true
}

func (h *harness) RecvReqRetry() {
	h.retries++
	if h.blocked != nil {
		pkt := h.blocked
		h.blocked = nil
		if !h.port.SendTimingReq(pkt) {
			h.blocked = pkt
		}
	}
}

func (h *harness) send(pkt *mem.Packet) bool {
	pkt.IssueTick = h.k.Now()
	if !h.port.SendTimingReq(pkt) {
		h.blocked = pkt
		return false
	}
	return true
}

func (h *harness) at(when sim.Tick, fn func()) {
	h.k.Schedule(sim.NewEvent("test", fn), when)
}

func (h *harness) run(maxTicks sim.Tick) {
	limit := h.k.Now() + maxTicks
	for h.k.Now() < limit {
		h.k.RunUntil(h.k.Now() + 100*sim.Nanosecond)
		if h.c.Quiescent() && h.blocked == nil {
			return
		}
	}
}

func newHarness(t *testing.T, mutate func(*Config)) *harness {
	t.Helper()
	k := sim.NewKernel()
	cfg := DefaultConfig(dram.DDR3_1600_x64())
	if mutate != nil {
		mutate(&cfg)
	}
	reg := stats.NewRegistry("test")
	c, err := NewController(k, cfg, reg, "dramsim")
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{k: k, c: c}
	h.port = mem.NewRequestPort("gen", h, k)
	mem.Connect(h.port, c.Port())
	return h
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(dram.DDR3_1600_x64()).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.TransQueueSize = 0 },
		func(c *Config) { c.Page = PagePolicy(9) },
		func(c *Config) { c.Scheduling = Scheduling(9) },
		func(c *Config) { c.Channels = 5 },
		func(c *Config) { *c = Config{} }, // zero value: no device
	}
	for i, mut := range bad {
		cfg := DefaultConfig(dram.DDR3_1600_x64())
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		} else if cfg.Device == (dram.Spec{}) && !strings.Contains(err.Error(), "no device model") {
			t.Errorf("mutation %d: error %q does not name the missing device", i, err)
		}
	}
}

func TestPolicyStrings(t *testing.T) {
	if OpenPage.String() != "open" || ClosedPage.String() != "closed" {
		t.Error("page policy names wrong")
	}
}

// A single read completes within a few cycles of the analytic
// tRCD + tCL + tBURST (cycle quantisation adds at most a few tCK).
func TestSingleReadLatency(t *testing.T) {
	h := newHarness(t, nil)
	tm := h.c.spec.Timing
	h.at(0, func() { h.send(mem.NewRead(0, 64, 0, 0)) })
	h.run(10 * sim.Microsecond)
	if len(h.responses) != 1 {
		t.Fatalf("responses = %d", len(h.responses))
	}
	analytic := tm.TRCD + tm.TCL + tm.TBURST
	got := h.respTicks[0]
	if got < analytic || got > analytic+5*tm.TCK {
		t.Fatalf("latency = %s, want within [%s, %s+5tCK]", got, analytic, analytic)
	}
}

// Writes are acknowledged immediately, like the event-based model (§III-C2).
func TestImmediateWriteAck(t *testing.T) {
	h := newHarness(t, nil)
	h.at(0, func() { h.send(mem.NewWrite(0, 64, 0, 0)) })
	h.run(10 * sim.Microsecond)
	if len(h.responses) != 1 || h.responses[0].Cmd != mem.WriteResp {
		t.Fatalf("responses = %v", h.responses)
	}
	if h.respTicks[0] > 2*h.c.spec.Timing.TCK {
		t.Fatalf("write ack at %s, want within two cycles", h.respTicks[0])
	}
	// The write still drains to the DRAM.
	if h.c.st.bytesWritten.Value() != 64 {
		t.Fatalf("bytesWritten = %v", h.c.st.bytesWritten.Value())
	}
}

// Row hits are recognised and pipelined.
func TestRowHitCounting(t *testing.T) {
	h := newHarness(t, nil)
	h.at(0, func() {
		for i := 0; i < 4; i++ {
			h.send(mem.NewRead(mem.Addr(i*64), 64, 0, 0))
		}
	})
	h.run(10 * sim.Microsecond)
	if h.c.st.activations.Value() != 1 {
		t.Fatalf("activations = %v, want 1", h.c.st.activations.Value())
	}
	if h.c.st.readRowHits.Value() != 3 {
		t.Fatalf("hits = %v, want 3", h.c.st.readRowHits.Value())
	}
}

// Closed page auto-precharges after every access.
func TestClosedPage(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.Page = ClosedPage })
	h.at(0, func() {
		for i := 0; i < 4; i++ {
			h.send(mem.NewRead(mem.Addr(i*64), 64, 0, 0))
		}
	})
	h.run(10 * sim.Microsecond)
	if h.c.st.activations.Value() != 4 || h.c.st.readRowHits.Value() != 0 {
		t.Fatalf("activations=%v hits=%v", h.c.st.activations.Value(), h.c.st.readRowHits.Value())
	}
	if h.c.st.precharges.Value() != 4 {
		t.Fatalf("precharges = %v", h.c.st.precharges.Value())
	}
}

// The unified queue interleaves reads and writes in arrival order — the
// architectural difference from the event-based model's write drain.
func TestInterleavedReadsWrites(t *testing.T) {
	h := newHarness(t, nil)
	h.at(0, func() {
		h.send(mem.NewWrite(0, 64, 0, 0))
		h.send(mem.NewRead(64, 64, 0, 0))
		h.send(mem.NewWrite(128, 64, 0, 0))
		h.send(mem.NewRead(192, 64, 0, 0))
	})
	h.run(10 * sim.Microsecond)
	if h.c.st.bytesWritten.Value() != 128 || h.c.st.bytesRead.Value() != 128 {
		t.Fatalf("rw bytes = %v/%v", h.c.st.bytesRead.Value(), h.c.st.bytesWritten.Value())
	}
	// All four to the same row: one activation, three hits.
	if h.c.st.activations.Value() != 1 {
		t.Fatalf("activations = %v", h.c.st.activations.Value())
	}
}

// Queue-full refusals retry once space frees.
func TestQueueFullRetry(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.TransQueueSize = 1 })
	h.at(0, func() {
		if !h.send(mem.NewRead(0, 64, 0, 0)) {
			t.Error("first refused")
		}
		if h.send(mem.NewRead(1<<20, 64, 0, 0)) {
			t.Error("second accepted beyond capacity")
		}
	})
	h.run(20 * sim.Microsecond)
	if h.retries == 0 || len(h.responses) != 2 {
		t.Fatalf("retries=%d responses=%d", h.retries, len(h.responses))
	}
}

// Refresh happens roughly every tREFI and delays colliding reads.
func TestRefresh(t *testing.T) {
	h := newHarness(t, nil)
	tm := h.c.spec.Timing
	h.k.RunUntil(10 * tm.TREFI)
	got := h.c.st.refreshes.Value()
	if got < 9 || got > 11 {
		t.Fatalf("refreshes = %v", got)
	}
}

// Multi-burst requests are chopped and produce one response.
func TestChopping(t *testing.T) {
	h := newHarness(t, nil)
	h.at(0, func() { h.send(mem.NewRead(32, 128, 0, 0)) }) // unaligned, 3 bursts
	h.run(10 * sim.Microsecond)
	if len(h.responses) != 1 {
		t.Fatalf("responses = %d", len(h.responses))
	}
	if h.c.st.readBursts.Value() != 3 {
		t.Fatalf("bursts = %v, want 3", h.c.st.readBursts.Value())
	}
}

// The cycle counter demonstrates the per-cycle cost: simulating N busy
// cycles executes ~N tick events, far more than the event-based model needs.
func TestCycleCounting(t *testing.T) {
	h := newHarness(t, nil)
	h.at(0, func() {
		for i := 0; i < 32; i++ {
			h.send(mem.NewRead(mem.Addr(i*64), 64, 0, 0))
		}
	})
	h.run(10 * sim.Microsecond)
	if h.c.CyclesTicked() < 50 {
		t.Fatalf("cycles ticked = %d, implausibly few for 32 bursts", h.c.CyclesTicked())
	}
}

func TestReportingHelpers(t *testing.T) {
	h := newHarness(t, nil)
	h.at(0, func() {
		for i := 0; i < 8; i++ {
			h.send(mem.NewRead(mem.Addr(i*64), 64, 0, 0))
		}
	})
	h.run(10 * sim.Microsecond)
	if u := h.c.BusUtilisation(); u <= 0 || u > 1 {
		t.Fatalf("util = %v", u)
	}
	if h.c.Bandwidth() <= 0 {
		t.Fatal("no bandwidth")
	}
	if hr := h.c.RowHitRate(); hr != 7.0/8 {
		t.Fatalf("hit rate = %v", hr)
	}
	if h.c.AvgReadLatencyNs() <= 0 {
		t.Fatal("no latency")
	}
	ps := h.c.PowerStats()
	if ps.ReadBursts != 8 || ps.Activations != 1 || ps.Elapsed <= 0 {
		t.Fatalf("power stats = %+v", ps)
	}
}

// FCFS serves strictly in order even when a younger row hit is ready.
func TestFCFSOrder(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.Scheduling = FCFS })
	org := h.c.spec.Org
	conflict := mem.Addr(org.RowBufferBytes * uint64(org.BanksPerRank))
	h.at(0, func() { h.send(mem.NewRead(0, 64, 0, 0)) })
	h.at(sim.Nanosecond, func() {
		h.send(mem.NewRead(conflict, 64, 0, 0)) // older, conflict
		h.send(mem.NewRead(64, 64, 0, 0))       // younger, hit
	})
	h.run(20 * sim.Microsecond)
	if len(h.responses) != 3 {
		t.Fatalf("responses = %d", len(h.responses))
	}
	if h.responses[1].Addr != conflict {
		t.Fatalf("FCFS order violated: second response %v", h.responses[1].Addr)
	}
}

// FR-FCFS prefers the ready row hit.
func TestFRFCFSPrefersHit(t *testing.T) {
	h := newHarness(t, nil)
	org := h.c.spec.Org
	conflict := mem.Addr(org.RowBufferBytes * uint64(org.BanksPerRank))
	h.at(0, func() { h.send(mem.NewRead(0, 64, 0, 0)) })
	h.at(sim.Nanosecond, func() {
		h.send(mem.NewRead(conflict, 64, 0, 0))
		h.send(mem.NewRead(64, 64, 0, 0))
	})
	h.run(20 * sim.Microsecond)
	if h.responses[1].Addr != 64 {
		t.Fatalf("FR-FCFS did not prefer the hit: %v", h.responses[1].Addr)
	}
}

// Property: random traffic conserves requests and leaves no residue.
func TestRandomTrafficConservation(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := sim.NewKernel()
		cfg := DefaultConfig(dram.DDR3_1600_x64())
		if rng.Intn(2) == 0 {
			cfg.Page = ClosedPage
		}
		reg := stats.NewRegistry("t")
		c, err := NewController(k, cfg, reg, "dramsim")
		if err != nil {
			return false
		}
		h := &harness{k: k, c: c}
		h.port = mem.NewRequestPort("gen", h, k)
		mem.Connect(h.port, c.Port())

		n := 80
		sent := 0
		var inject func()
		inject = func() {
			if sent >= n {
				return
			}
			if h.blocked == nil {
				addr := mem.Addr(rng.Intn(1<<26)) &^ 63
				if rng.Intn(2) == 0 {
					h.send(mem.NewRead(addr, 64, 0, k.Now()))
				} else {
					h.send(mem.NewWrite(addr, 64, 0, k.Now()))
				}
				sent++
			}
			k.Schedule(sim.NewEvent("inject", inject), k.Now()+sim.Tick(rng.Intn(30))*sim.Nanosecond)
		}
		k.Schedule(sim.NewEvent("inject", inject), 0)
		for i := 0; i < 10000 && !(sent >= n && c.Quiescent() && h.blocked == nil); i++ {
			k.RunUntil(k.Now() + sim.Microsecond)
		}
		return len(h.responses) == n && c.Quiescent()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Determinism of the cycle-based model.
func TestDeterminism(t *testing.T) {
	runOnce := func() []sim.Tick {
		k := sim.NewKernel()
		cfg := DefaultConfig(dram.DDR3_1600_x64())
		reg := stats.NewRegistry("t")
		c, _ := NewController(k, cfg, reg, "dramsim")
		h := &harness{k: k, c: c}
		h.port = mem.NewRequestPort("gen", h, k)
		mem.Connect(h.port, c.Port())
		rng := rand.New(rand.NewSource(11))
		h.at(0, func() {
			for i := 0; i < 30; i++ {
				addr := mem.Addr(rng.Intn(1<<22) &^ 63)
				if rng.Intn(2) == 0 {
					h.send(mem.NewRead(addr, 64, 0, 0))
				} else {
					h.send(mem.NewWrite(addr, 64, 0, 0))
				}
			}
		})
		h.run(100 * sim.Microsecond)
		return h.respTicks
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d", i)
		}
	}
}

func TestToCycles(t *testing.T) {
	tm := dram.DDR3_1600_x64().Timing // tCK = 1.25 ns
	c := toCycles(tm)
	if c.tBURST != 4 { // 5 ns / 1.25 ns
		t.Fatalf("tBURST = %d cycles, want 4", c.tBURST)
	}
	if c.tRCD != 11 { // ceil(13.75/1.25) = 11
		t.Fatalf("tRCD = %d cycles, want 11", c.tRCD)
	}
	if c.tREFI != 6240 {
		t.Fatalf("tREFI = %d cycles, want 6240", c.tREFI)
	}
}

// refusingHarness refuses the first responses, exercising the cycle model's
// response-retry path.
func TestResponseRetryPath(t *testing.T) {
	h := newHarness(t, nil)
	refuse := 2
	orig := h.c
	_ = orig
	// Wrap: intercept via a custom requestor.
	k := sim.NewKernel()
	cfg := DefaultConfig(dram.DDR3_1600_x64())
	reg := stats.NewRegistry("t2")
	c, err := NewController(k, cfg, reg, "dramsim")
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	var port *mem.RequestPort
	r := &funcRequestor{
		onResp: func(pkt *mem.Packet) bool {
			if refuse > 0 {
				refuse--
				k.Schedule(sim.NewEvent("retry", func() { port.SendRespRetry() }), k.Now()+20*sim.Nanosecond)
				return false
			}
			delivered++
			return true
		},
	}
	port = mem.NewRequestPort("gen", r, k)
	mem.Connect(port, c.Port())
	k.Schedule(sim.NewEvent("inject", func() {
		for i := 0; i < 3; i++ {
			port.SendTimingReq(mem.NewRead(mem.Addr(i*64), 64, 0, k.Now()))
		}
	}), 0)
	k.RunUntil(10 * sim.Microsecond)
	if delivered != 3 {
		t.Fatalf("delivered = %d, want 3", delivered)
	}
	if c.Name() != "dramsim" {
		t.Fatalf("Name = %q", c.Name())
	}
	// Energy accessors exercised.
	e := c.Energy()
	if e.TotalPJ() <= 0 {
		t.Fatal("no energy integrated")
	}
}

// funcRequestor adapts closures to mem.Requestor.
type funcRequestor struct {
	onResp func(*mem.Packet) bool
}

func (f *funcRequestor) RecvTimingResp(pkt *mem.Packet) bool { return f.onResp(pkt) }
func (f *funcRequestor) RecvReqRetry()                       {}
