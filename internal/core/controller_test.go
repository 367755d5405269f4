package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// harness wires a controller to a scripted requestor for white-box tests.
type harness struct {
	k    *sim.Kernel
	c    *Controller
	reg  *stats.Registry
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

// send issues a packet, tracking refusals like a real requestor.
func (h *harness) send(pkt *mem.Packet) bool {
	pkt.IssueTick = h.k.Now()
	if !h.port.SendTimingReq(pkt) {
		h.blocked = pkt
		return false
	}
	return true
}

// at schedules fn at an absolute tick.
func (h *harness) at(when sim.Tick, fn func()) {
	h.k.Schedule(sim.NewEvent("test", fn), when)
}

func newHarness(t *testing.T, mutate func(*Config)) *harness {
	t.Helper()
	k := sim.NewKernel()
	cfg := DefaultConfig(dram.DDR3_1600_x64())
	cfg.FrontendLatency = 0
	cfg.BackendLatency = 0
	if mutate != nil {
		mutate(&cfg)
	}
	reg := stats.NewRegistry("test")
	c, err := NewController(k, cfg, reg, "mc")
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{k: k, c: c, reg: reg}
	h.port = mem.NewRequestPort("gen", h, k)
	mem.Connect(h.port, c.Port())
	return h
}

// statValues dumps the harness registry — the controller's statistics and
// nothing else — as short name -> rendered value.
func (h *harness) statValues(t *testing.T) map[string]string {
	t.Helper()
	var buf bytes.Buffer
	if err := h.reg.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	vals := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		f := strings.Fields(line)
		vals[strings.TrimPrefix(f[0], "test.mc.")] = f[1]
	}
	return vals
}

// requireCounted fails if any of the named controller statistics reads
// zero: the run did not exercise it.
func (h *harness) requireCounted(t *testing.T, names ...string) {
	t.Helper()
	vals := h.statValues(t)
	for _, name := range names {
		if vals[name] == "0" {
			t.Fatalf("%s = 0: the run did not exercise it", name)
		}
	}
}

// run processes events until the controller is quiescent or maxTicks passes.
func (h *harness) run(maxTicks sim.Tick) {
	// Refresh events keep the queue alive forever, so run in bounded steps
	// and stop once the controller has no work left.
	limit := h.k.Now() + maxTicks
	for h.k.Now() < limit {
		h.k.RunUntil(h.k.Now() + 100*sim.Nanosecond)
		if h.c.Quiescent() && h.blocked == nil {
			return
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(dram.DDR3_1600_x64())
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.ReadBufferSize = 0 },
		func(c *Config) { c.WriteBufferSize = -1 },
		func(c *Config) { c.WriteHighThresh = 1.5 },
		func(c *Config) { c.WriteLowThresh = 0.9 }, // above high
		func(c *Config) { c.MinWritesPerSwitch = 0 },
		func(c *Config) { c.FrontendLatency = -1 },
		func(c *Config) { c.Scheduling = SchedulingPolicy(99) },
		func(c *Config) { c.Page = PagePolicy(99) },
		func(c *Config) { c.Channels = 3 },
		func(c *Config) { *c = Config{} }, // zero value: no device
		// More banks than a bank mask has bits: banks 64 and up would never
		// be scheduled.
		func(c *Config) { c.Device.Org.BanksPerRank = 2 * maxBanksPerRank },
	}
	for i, mut := range bad {
		cfg := DefaultConfig(dram.DDR3_1600_x64())
		mut(&cfg)
		err := cfg.Validate()
		switch {
		case err == nil:
			t.Errorf("mutation %d accepted", i)
		case cfg.Device == (dram.Spec{}) && !strings.Contains(err.Error(), "no device model"):
			t.Errorf("mutation %d: error %q does not name the missing device", i, err)
		case cfg.Device.Org.BanksPerRank > maxBanksPerRank && !strings.Contains(err.Error(), "at most 64"):
			t.Errorf("mutation %d: error %q does not name the 64-bank limit", i, err)
		}
	}
	wide := DefaultConfig(dram.DDR3_1600_x64())
	wide.Device.Org.BanksPerRank = maxBanksPerRank
	if err := wide.Validate(); err != nil {
		t.Errorf("%d banks per rank refused: %v", maxBanksPerRank, err)
	}
}

func TestPolicyStrings(t *testing.T) {
	if FCFS.String() != "FCFS" || FRFCFS.String() != "FRFCFS" {
		t.Error("scheduling names wrong")
	}
	names := map[PagePolicy]string{
		Open: "open", OpenAdaptive: "open-adaptive",
		Closed: "closed", ClosedAdaptive: "closed-adaptive",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d = %q, want %q", int(p), p.String(), want)
		}
	}
}

// A single read to a closed bank takes exactly tRCD + tCL + tBURST with zero
// static latencies — the fundamental timing identity of the model.
func TestSingleReadLatency(t *testing.T) {
	h := newHarness(t, nil)
	tm := h.c.tim
	h.at(0, func() { h.send(mem.NewRead(0, 64, 0, 0)) })
	h.run(sim.Microsecond)
	if len(h.responses) != 1 {
		t.Fatalf("responses = %d", len(h.responses))
	}
	want := tm.TRCD + tm.TCL + tm.TBURST
	if h.respTicks[0] != want {
		t.Fatalf("read latency = %s, want %s", h.respTicks[0], want)
	}
}

// Static frontend/backend latencies add to DRAM reads.
func TestStaticLatencies(t *testing.T) {
	h := newHarness(t, func(c *Config) {
		c.FrontendLatency = 10 * sim.Nanosecond
		c.BackendLatency = 20 * sim.Nanosecond
	})
	tm := h.c.tim
	h.at(0, func() { h.send(mem.NewRead(0, 64, 0, 0)) })
	h.run(sim.Microsecond)
	want := tm.TRCD + tm.TCL + tm.TBURST + 30*sim.Nanosecond
	if h.respTicks[0] != want {
		t.Fatalf("latency = %s, want %s", h.respTicks[0], want)
	}
}

// Two reads to the same row: the second is a row hit and its data follows
// the first back-to-back on the bus.
func TestRowHitPipelining(t *testing.T) {
	h := newHarness(t, nil)
	tm := h.c.tim
	h.at(0, func() {
		h.send(mem.NewRead(0, 64, 0, 0))
		h.send(mem.NewRead(64, 64, 0, 0))
	})
	h.run(sim.Microsecond)
	if len(h.responses) != 2 {
		t.Fatalf("responses = %d", len(h.responses))
	}
	first := tm.TRCD + tm.TCL + tm.TBURST
	if h.respTicks[0] != first {
		t.Fatalf("first = %s, want %s", h.respTicks[0], first)
	}
	if h.respTicks[1] != first+tm.TBURST {
		t.Fatalf("second = %s, want %s (seamless burst)", h.respTicks[1], first+tm.TBURST)
	}
	if h.c.st.readRowHits.Value() != 1 {
		t.Fatalf("row hits = %v, want 1", h.c.st.readRowHits.Value())
	}
	if h.c.st.activations.Value() != 1 {
		t.Fatalf("activations = %v, want 1", h.c.st.activations.Value())
	}
}

// Writes are acknowledged at the frontend latency, long before the DRAM
// access happens (early write response, §II-A).
func TestEarlyWriteResponse(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.FrontendLatency = 5 * sim.Nanosecond })
	h.at(0, func() { h.send(mem.NewWrite(0, 64, 0, 0)) })
	h.run(sim.Microsecond)
	if len(h.responses) != 1 || h.responses[0].Cmd != mem.WriteResp {
		t.Fatalf("responses = %v", h.responses)
	}
	if h.respTicks[0] != 5*sim.Nanosecond {
		t.Fatalf("write ack at %s, want 5ns", h.respTicks[0])
	}
}

// A read that hits a buffered write is serviced from the write queue with
// only the frontend latency.
func TestReadForwardedFromWriteQueue(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.FrontendLatency = 4 * sim.Nanosecond })
	h.at(0, func() {
		h.send(mem.NewWrite(128, 64, 0, 0))
		h.send(mem.NewRead(128, 64, 0, 0))
	})
	h.run(sim.Microsecond)
	if h.c.st.servicedByWrQ.Value() != 1 {
		t.Fatalf("servicedByWrQ = %v", h.c.st.servicedByWrQ.Value())
	}
	// Both write ack and read response at the frontend latency.
	for i, tick := range h.respTicks {
		if tick != 4*sim.Nanosecond {
			t.Fatalf("response %d at %s", i, tick)
		}
	}
	// A partial read inside the written range also forwards.
	h2 := newHarness(t, nil)
	h2.at(0, func() {
		h2.send(mem.NewWrite(0, 64, 0, 0))
		h2.send(mem.NewRead(16, 8, 0, 0))
	})
	h2.run(sim.Microsecond)
	if h2.c.st.servicedByWrQ.Value() != 1 {
		t.Fatal("contained read not forwarded")
	}
	// A read not covered by the write must access DRAM.
	h3 := newHarness(t, nil)
	h3.at(0, func() {
		h3.send(mem.NewWrite(0, 32, 0, 0))
		h3.send(mem.NewRead(32, 32, 0, 0)) // same burst, bytes not written
	})
	h3.run(sim.Microsecond)
	if h3.c.st.servicedByWrQ.Value() != 0 {
		t.Fatal("uncovered read wrongly forwarded")
	}
}

// Sub-burst writes to the same burst merge into one write-queue entry.
func TestWriteMerging(t *testing.T) {
	h := newHarness(t, nil)
	h.at(0, func() {
		h.send(mem.NewWrite(0, 32, 0, 0))
		h.send(mem.NewWrite(32, 32, 0, 0)) // adjacent: merges
	})
	h.run(sim.Microsecond)
	if h.c.st.mergedWrBursts.Value() != 1 {
		t.Fatalf("merged = %v, want 1", h.c.st.mergedWrBursts.Value())
	}
	if h.c.st.writeBursts.Value() != 1 {
		t.Fatalf("writeBursts = %v, want 1", h.c.st.writeBursts.Value())
	}
	// After the merge the whole burst is covered, so a full-burst read
	// forwards.
	h2 := newHarness(t, nil)
	h2.at(0, func() {
		h2.send(mem.NewWrite(0, 32, 0, 0))
		h2.send(mem.NewWrite(32, 32, 0, 0))
		h2.send(mem.NewRead(0, 64, 0, 0))
	})
	h2.run(sim.Microsecond)
	if h2.c.st.servicedByWrQ.Value() != 1 {
		t.Fatal("merged write did not cover read")
	}
	// Disjoint sub-burst writes stay separate entries.
	h3 := newHarness(t, nil)
	h3.at(0, func() {
		h3.send(mem.NewWrite(0, 8, 0, 0))
		h3.send(mem.NewWrite(48, 8, 0, 0))
	})
	h3.run(sim.Microsecond)
	if h3.c.st.writeBursts.Value() != 2 || h3.c.st.mergedWrBursts.Value() != 0 {
		t.Fatalf("disjoint writes: bursts=%v merged=%v",
			h3.c.st.writeBursts.Value(), h3.c.st.mergedWrBursts.Value())
	}
}

// A request larger than the burst size is chopped and answered once, after
// the last burst (paper §II-A sub-cache-line handling, inverted: multi-burst).
func TestBurstChopping(t *testing.T) {
	h := newHarness(t, nil)
	h.at(0, func() { h.send(mem.NewRead(0, 256, 0, 0)) })
	h.run(sim.Microsecond)
	if len(h.responses) != 1 {
		t.Fatalf("responses = %d, want 1", len(h.responses))
	}
	if h.c.st.readBursts.Value() != 4 {
		t.Fatalf("bursts = %v, want 4", h.c.st.readBursts.Value())
	}
	// Unaligned requests still cover every byte.
	h2 := newHarness(t, nil)
	h2.at(0, func() { h2.send(mem.NewRead(48, 64, 0, 0)) }) // spans 2 bursts
	h2.run(sim.Microsecond)
	if h2.c.st.readBursts.Value() != 2 {
		t.Fatalf("unaligned bursts = %v, want 2", h2.c.st.readBursts.Value())
	}
}

// A full read queue refuses requests and retries once space frees.
func TestReadQueueFullAndRetry(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.ReadBufferSize = 1 })
	h.at(0, func() {
		if !h.send(mem.NewRead(0, 64, 0, 0)) {
			t.Error("first read refused")
		}
		if h.send(mem.NewRead(1<<20, 64, 0, 0)) {
			t.Error("second read accepted beyond capacity")
		}
	})
	h.run(10 * sim.Microsecond)
	if h.retries == 0 {
		t.Fatal("no retry delivered")
	}
	if len(h.responses) != 2 {
		t.Fatalf("responses = %d, want 2", len(h.responses))
	}
}

// A full write queue refuses requests and retries after draining.
func TestWriteQueueFullAndRetry(t *testing.T) {
	h := newHarness(t, func(c *Config) {
		c.WriteBufferSize = 2
		c.WriteHighThresh = 1.0
		c.WriteLowThresh = 0.25
		c.MinWritesPerSwitch = 1
	})
	h.at(0, func() {
		h.send(mem.NewWrite(0, 64, 0, 0))
		h.send(mem.NewWrite(1<<20, 64, 0, 0))
		if h.send(mem.NewWrite(2<<20, 64, 0, 0)) {
			t.Error("third write accepted beyond capacity")
		}
	})
	h.run(10 * sim.Microsecond)
	if h.retries == 0 {
		t.Fatal("no retry delivered")
	}
	if len(h.responses) != 3 {
		t.Fatalf("responses = %d, want 3", len(h.responses))
	}
}

// Closed page policy precharges after every access: no row hits even for
// sequential same-row traffic, one activation per burst.
func TestClosedPagePolicy(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.Page = Closed })
	h.at(0, func() {
		for i := 0; i < 4; i++ {
			h.send(mem.NewRead(mem.Addr(i*64), 64, 0, 0))
		}
	})
	h.run(10 * sim.Microsecond)
	if h.c.st.readRowHits.Value() != 0 {
		t.Fatalf("row hits = %v, want 0", h.c.st.readRowHits.Value())
	}
	if h.c.st.activations.Value() != 4 {
		t.Fatalf("activations = %v, want 4", h.c.st.activations.Value())
	}
}

// Closed-adaptive keeps the row open while hits are queued.
func TestClosedAdaptivePagePolicy(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.Page = ClosedAdaptive })
	h.at(0, func() {
		for i := 0; i < 4; i++ {
			h.send(mem.NewRead(mem.Addr(i*64), 64, 0, 0))
		}
	})
	h.run(10 * sim.Microsecond)
	if h.c.st.activations.Value() != 1 {
		t.Fatalf("activations = %v, want 1 (row kept open)", h.c.st.activations.Value())
	}
	if h.c.st.readRowHits.Value() != 3 {
		t.Fatalf("hits = %v, want 3", h.c.st.readRowHits.Value())
	}
}

// Open-adaptive closes the row early when only a conflict is queued.
func TestOpenAdaptivePagePolicy(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.Page = OpenAdaptive })
	rowBytes := h.c.org.RowBufferBytes
	banks := uint64(h.c.org.BanksPerRank)
	// Same bank, different row (RoRaBaCoCh: banks stride is a full row set).
	conflictAddr := mem.Addr(rowBytes * banks)
	h.at(0, func() {
		h.send(mem.NewRead(0, 64, 0, 0))
		h.send(mem.NewRead(conflictAddr, 64, 0, 0))
	})
	h.run(10 * sim.Microsecond)
	// Both accesses activated; the first bank was precharged adaptively
	// right after its access (2 activations, 2 precharges, 0 hits).
	if h.c.st.activations.Value() != 2 || h.c.st.readRowHits.Value() != 0 {
		t.Fatalf("activations=%v hits=%v", h.c.st.activations.Value(), h.c.st.readRowHits.Value())
	}
	if h.c.st.precharges.Value() < 1 {
		t.Fatal("no adaptive precharge recorded")
	}
}

// The high watermark forces a switch to writes even with reads pending, and
// MinWritesPerSwitch writes drain before reads resume.
func TestWriteDrainWatermarks(t *testing.T) {
	h := newHarness(t, func(c *Config) {
		c.WriteBufferSize = 8
		c.WriteHighThresh = 0.5 // high mark = 4
		c.WriteLowThresh = 0.25
		c.MinWritesPerSwitch = 2
		c.ReadBufferSize = 64
	})
	h.at(0, func() {
		// Enough writes to pass the high mark plus a stream of reads.
		for i := 0; i < 6; i++ {
			h.send(mem.NewWrite(mem.Addr(1<<24+i*64), 64, 0, 0))
		}
		for i := 0; i < 8; i++ {
			h.send(mem.NewRead(mem.Addr(i*64), 64, 0, 0))
		}
	})
	// Writes parked below the low watermark at the end need a drain.
	h.at(5*sim.Microsecond, func() { h.c.Drain() })
	h.run(10 * sim.Microsecond)
	if got := h.c.st.bytesWritten.Value(); got != 6*64 {
		t.Fatalf("bytesWritten = %v, want %v", got, 6*64)
	}
	if got := h.c.st.bytesRead.Value(); got != 8*64 {
		t.Fatalf("bytesRead = %v, want %v", got, 8*64)
	}
	if h.c.st.rdWrTurnarounds.Value() == 0 {
		t.Fatal("no bus turnarounds recorded")
	}
}

// Writes below the low watermark are not drained while the controller sees
// no reads — write data stays on chip (paper §II-C).
func TestWritesHeldBelowLowWatermark(t *testing.T) {
	h := newHarness(t, func(c *Config) {
		c.WriteBufferSize = 20
		c.WriteLowThresh = 0.5 // low mark = 10
	})
	h.at(0, func() {
		for i := 0; i < 3; i++ {
			h.send(mem.NewWrite(mem.Addr(i*4096), 64, 0, 0))
		}
	})
	h.k.RunUntil(2 * sim.Microsecond)
	if h.c.st.bytesWritten.Value() != 0 {
		t.Fatalf("writes drained below low watermark: %v bytes", h.c.st.bytesWritten.Value())
	}
	// Drain mode flushes them.
	h.c.Drain()
	h.k.RunUntil(4 * sim.Microsecond)
	if h.c.st.bytesWritten.Value() != 3*64 {
		t.Fatalf("drain did not flush: %v bytes", h.c.st.bytesWritten.Value())
	}
}

// FR-FCFS prefers a row hit over an older conflicting request.
func TestFRFCFSPrefersRowHit(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.ReadBufferSize = 8 })
	org := h.c.org
	conflict := mem.Addr(org.RowBufferBytes * uint64(org.BanksPerRank)) // row 1, bank 0
	var order []mem.Addr
	hh := h
	_ = hh
	// First open row 0 of bank 0, then enqueue (conflict, hit) while the
	// first access occupies the bus: FR-FCFS should pick the hit first.
	h.at(0, func() { h.send(mem.NewRead(0, 64, 0, 0)) })
	h.at(sim.Nanosecond, func() {
		h.send(mem.NewRead(conflict, 64, 0, 0)) // older, row miss
		h.send(mem.NewRead(64, 64, 0, 0))       // newer, row hit
	})
	h.run(10 * sim.Microsecond)
	for _, p := range h.responses {
		order = append(order, p.Addr)
	}
	if len(order) != 3 {
		t.Fatalf("responses = %v", order)
	}
	if order[1] != 64 || order[2] != conflict {
		t.Fatalf("FR-FCFS order = %v, want hit (64) before conflict", order)
	}
	// FCFS honours arrival order instead.
	h2 := newHarness(t, func(c *Config) {
		c.ReadBufferSize = 8
		c.Scheduling = FCFS
	})
	h2.at(0, func() { h2.send(mem.NewRead(0, 64, 0, 0)) })
	h2.at(sim.Nanosecond, func() {
		h2.send(mem.NewRead(conflict, 64, 0, 0))
		h2.send(mem.NewRead(64, 64, 0, 0))
	})
	h2.run(10 * sim.Microsecond)
	if h2.responses[1].Addr != conflict {
		t.Fatalf("FCFS order = %v, want conflict first", h2.responses[1].Addr)
	}
}

// The tXAW activation window limits the rate of activates: with limit N,
// activate N+1 waits until the first activate ages out of the window.
func TestActivationWindow(t *testing.T) {
	h := newHarness(t, func(c *Config) {
		c.Page = Closed
		c.Mapping = dram.RoCoRaBaCh // sequential bursts walk banks
	})
	tm := h.c.tim
	limit := h.c.org.ActivationLimit // 4 for DDR3
	h.at(0, func() {
		for i := 0; i < limit+1; i++ {
			h.send(mem.NewRead(mem.Addr(i*64), 64, 0, 0))
		}
	})
	h.run(10 * sim.Microsecond)
	// The 5th activate must wait for act#1 + tXAW; its response cannot be
	// earlier than tXAW + tRCD + tCL + tBURST.
	minLast := tm.TXAW + tm.TRCD + tm.TCL + tm.TBURST
	last := h.respTicks[len(h.respTicks)-1]
	if last < minLast {
		t.Fatalf("5th access at %s, violates tXAW floor %s", last, minLast)
	}
	// Without the limit the same pattern finishes strictly earlier.
	h2 := newHarness(t, func(c *Config) {
		c.Page = Closed
		c.Mapping = dram.RoCoRaBaCh
		c.Device.Org.ActivationLimit = 0
	})
	h2.at(0, func() {
		for i := 0; i < limit+1; i++ {
			h2.send(mem.NewRead(mem.Addr(i*64), 64, 0, 0))
		}
	})
	h2.run(10 * sim.Microsecond)
	if h2.respTicks[len(h2.respTicks)-1] >= last {
		t.Fatal("removing the activation limit did not speed up the pattern")
	}
}

// tRRD separates activates to different banks.
func TestTRRDSeparatesActivates(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.Mapping = dram.RoCoRaBaCh })
	tm := h.c.tim
	h.at(0, func() {
		h.send(mem.NewRead(0, 64, 0, 0))  // bank 0
		h.send(mem.NewRead(64, 64, 0, 0)) // bank 1
	})
	h.run(10 * sim.Microsecond)
	// Second activate >= tRRD, so second response >= tRRD + tRCD + tCL + tBURST...
	// but the bus serialises anyway; check the stronger bound only when
	// tRRD dominates the burst gap.
	minSecond := tm.TRRD + tm.TRCD + tm.TCL + tm.TBURST
	if h.respTicks[1] < minSecond {
		t.Fatalf("second response %s violates tRRD floor %s", h.respTicks[1], minSecond)
	}
}

// Refresh fires roughly every tREFI.
func TestRefreshCadence(t *testing.T) {
	h := newHarness(t, nil)
	tm := h.c.tim
	h.k.RunUntil(10 * tm.TREFI)
	got := h.c.st.refreshes.Value()
	if got < 9 || got > 11 {
		t.Fatalf("refreshes in 10*tREFI = %v", got)
	}
}

// A read arriving during refresh is delayed by the refresh.
func TestRefreshBlocksAccess(t *testing.T) {
	h := newHarness(t, nil)
	tm := h.c.tim
	// Send a read just after the first refresh begins.
	start := tm.TREFI + sim.Nanosecond
	h.at(start, func() { h.send(mem.NewRead(0, 64, 0, 0)) })
	h.k.RunUntil(start + 2*tm.TRFC)
	if len(h.responses) != 1 {
		t.Fatalf("responses = %d", len(h.responses))
	}
	// Response must wait for refresh completion (~tREFI + tRFC) plus access.
	minResp := tm.TREFI + tm.TRFC + tm.TRCD + tm.TCL + tm.TBURST
	if h.respTicks[0] < minResp {
		t.Fatalf("read at %s ignored refresh (floor %s)", h.respTicks[0], minResp)
	}
}

// tWTR separates write data from a following read command in the same rank.
func TestWriteToReadTurnaround(t *testing.T) {
	h := newHarness(t, func(c *Config) {
		c.WriteHighThresh = 0.05 // drain the write immediately
		c.WriteLowThresh = 0
		c.MinWritesPerSwitch = 1
	})
	tm := h.c.tim
	// The write drains immediately (no reads, low mark 0); the read arrives
	// while the write is in flight and must respect tWTR.
	h.at(0, func() { h.send(mem.NewWrite(0, 64, 0, 0)) })
	h.at(sim.Nanosecond, func() { h.send(mem.NewRead(4096, 64, 0, 0)) })
	h.run(10 * sim.Microsecond)
	// Write data ends at tRCD+tCL+tBURST; read command >= that + tWTR; read
	// response >= cmd + tCL + tBURST.
	writeEnd := tm.TRCD + tm.TCL + tm.TBURST
	minRead := writeEnd + tm.TWTR + tm.TCL + tm.TBURST
	var readTick sim.Tick
	for i, p := range h.responses {
		if p.Cmd == mem.ReadResp {
			readTick = h.respTicks[i]
		}
	}
	if readTick < minRead {
		t.Fatalf("read after write at %s violates tWTR floor %s", readTick, minRead)
	}
}

// Reporting helpers reflect the traffic moved.
func TestReportingHelpers(t *testing.T) {
	h := newHarness(t, nil)
	h.at(0, func() {
		for i := 0; i < 8; i++ {
			h.send(mem.NewRead(mem.Addr(i*64), 64, 0, 0))
		}
	})
	h.run(10 * sim.Microsecond)
	if h.c.BusUtilisation() <= 0 || h.c.BusUtilisation() > 1 {
		t.Fatalf("bus util = %v", h.c.BusUtilisation())
	}
	if h.c.Bandwidth() <= 0 {
		t.Fatalf("bandwidth = %v", h.c.Bandwidth())
	}
	if hr := h.c.RowHitRate(); hr != 7.0/8 {
		t.Fatalf("row hit rate = %v, want 7/8", hr)
	}
	ps := h.c.PowerStats()
	if ps.ReadBursts != 8 || ps.Activations != 1 {
		t.Fatalf("power snapshot = %+v", ps)
	}
	if ps.Elapsed <= 0 {
		t.Fatal("elapsed not positive")
	}
}

// Property: under random traffic every accepted request gets exactly one
// response, queues drain, and byte accounting is exact.
func TestRandomTrafficConservation(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := sim.NewKernel()
		cfg := DefaultConfig(dram.DDR3_1600_x64())
		cfg.Page = PagePolicy(rng.Intn(4))
		cfg.Scheduling = SchedulingPolicy(rng.Intn(2))
		cfg.Mapping = dram.Mapping(rng.Intn(3))
		reg := stats.NewRegistry("t")
		c, err := NewController(k, cfg, reg, "mc")
		if err != nil {
			return false
		}
		h := &harness{k: k, c: c}
		h.port = mem.NewRequestPort("gen", h, k)
		mem.Connect(h.port, c.Port())

		n := 100
		sent := 0
		var inject func()
		inject = func() {
			if sent >= n {
				c.Drain()
				return
			}
			if h.blocked == nil {
				addr := mem.Addr(rng.Intn(1<<26)) &^ 7 // 8-byte aligned
				size := uint64(8 << rng.Intn(5))       // 8..128 bytes
				var pkt *mem.Packet
				if rng.Intn(2) == 0 {
					pkt = mem.NewRead(addr, size, 0, k.Now())
				} else {
					pkt = mem.NewWrite(addr, size, 0, k.Now())
				}
				h.send(pkt)
				sent++
			}
			k.Schedule(sim.NewEvent("inject", inject), k.Now()+sim.Tick(rng.Intn(20))*sim.Nanosecond)
		}
		k.Schedule(sim.NewEvent("inject", inject), 0)
		for i := 0; i < 10000 && !(sent >= n && c.Quiescent() && h.blocked == nil); i++ {
			k.RunUntil(k.Now() + sim.Microsecond)
		}
		if len(h.responses) != n {
			return false
		}
		// All queues empty, no leaked read entries.
		if !c.Quiescent() || c.readEntries != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Determinism: two identical runs produce identical response traces.
func TestDeterminism(t *testing.T) {
	runOnce := func() []sim.Tick {
		h := newHarnessNoT()
		rng := rand.New(rand.NewSource(42))
		h.at(0, func() {
			for i := 0; i < 50; i++ {
				addr := mem.Addr(rng.Intn(1<<24) &^ 63)
				if rng.Intn(2) == 0 {
					h.send(mem.NewRead(addr, 64, 0, 0))
				} else {
					h.send(mem.NewWrite(addr, 64, 0, 0))
				}
			}
			h.c.Drain()
		})
		h.run(100 * sim.Microsecond)
		return h.respTicks
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

// newHarnessNoT builds a harness outside a testing context (for determinism
// comparisons where t.Fatal inside the helper would be awkward).
func newHarnessNoT() *harness {
	k := sim.NewKernel()
	cfg := DefaultConfig(dram.DDR3_1600_x64())
	cfg.FrontendLatency = 0
	cfg.BackendLatency = 0
	cfg.ReadBufferSize = 64
	cfg.WriteBufferSize = 64
	reg := stats.NewRegistry("t")
	c, err := NewController(k, cfg, reg, "mc")
	if err != nil {
		panic(err)
	}
	h := &harness{k: k, c: c}
	h.port = mem.NewRequestPort("gen", h, k)
	mem.Connect(h.port, c.Port())
	return h
}

func TestBankWindowHelpers(t *testing.T) {
	r := newRank(dram.DDR3_1600_x64().Org, dram.DDR3_1600_x64().Topology())
	if r.earliestActByWindow(4, 40*sim.Nanosecond) != 0 {
		t.Fatal("empty window should not constrain")
	}
	for i := 0; i < 4; i++ {
		r.recordAct(sim.Tick(i)*10*sim.Nanosecond, 4)
	}
	// Oldest of last 4 is t=0; next act >= 0 + 40ns.
	if got := r.earliestActByWindow(4, 40*sim.Nanosecond); got != 40*sim.Nanosecond {
		t.Fatalf("window constraint = %s", got)
	}
	// Limit 0 disables.
	if r.earliestActByWindow(0, 40*sim.Nanosecond) != 0 {
		t.Fatal("limit 0 should disable the window")
	}
}

// XOR bank hashing turns the pathological same-bank row stride into
// bank-parallel traffic: throughput rises, latency falls.
func TestXORBankHashThroughput(t *testing.T) {
	run := func(hash bool) sim.Tick {
		h := newHarness(t, func(c *Config) {
			c.XORBankHash = hash
			c.ReadBufferSize = 32
		})
		org := h.c.org
		stride := org.RowBufferBytes * uint64(org.Banks()) // same bank, next row
		h.at(0, func() {
			for i := 0; i < 16; i++ {
				h.send(mem.NewRead(mem.Addr(uint64(i)*stride), 64, 0, 0))
			}
		})
		h.run(50 * sim.Microsecond)
		if len(h.respTicks) != 16 {
			t.Fatalf("responses = %d", len(h.respTicks))
		}
		return h.respTicks[len(h.respTicks)-1]
	}
	plain := run(false)
	hashed := run(true)
	if hashed >= plain {
		t.Fatalf("hash did not help the conflict stride: %s vs %s", hashed, plain)
	}
	// 8-way bank parallelism should shrink the serial tRC chain markedly.
	if hashed > plain*2/3 {
		t.Fatalf("hash benefit too small: %s vs %s", hashed, plain)
	}
}
