package cpu

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trafficgen"
)

// instantMem answers with a fixed latency.
type instantMem struct {
	k     *sim.Kernel
	port  *mem.ResponsePort
	delay sim.Tick
	count int
}

func newInstantMem(k *sim.Kernel, delay sim.Tick) *instantMem {
	m := &instantMem{k: k, delay: delay}
	m.port = mem.NewResponsePort("mem", m, k)
	return m
}

func (m *instantMem) RecvTimingReq(pkt *mem.Packet) bool {
	m.count++
	m.k.Schedule(sim.NewEvent("resp", func() {
		pkt.MakeResponse()
		m.port.SendTimingResp(pkt)
	}), m.k.Now()+m.delay)
	return true
}

func (m *instantMem) RecvRespRetry() {}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Clock = 0 },
		func(c *Config) { c.Width = 0 },
		func(c *Config) { c.InstrPerMemOp = -1 },
		func(c *Config) { c.MaxOutstanding = 0 },
		func(c *Config) { c.AccessBytes = 0 },
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		mut(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func buildCore(t *testing.T, cfg Config, pattern trafficgen.Pattern, delay sim.Tick) (*sim.Kernel, *Core, *instantMem) {
	t.Helper()
	k := sim.NewKernel()
	reg := stats.NewRegistry("t")
	c, err := New(k, cfg, pattern, reg, "core")
	if err != nil {
		t.Fatal(err)
	}
	m := newInstantMem(k, delay)
	mem.Connect(c.Port(), m.port)
	return k, c, m
}

func TestCoreCompletesRegion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemOps = 100
	k, c, m := buildCore(t, cfg, StreamWorkload(1<<20, 1), 20*sim.Nanosecond)
	c.Start()
	k.RunUntil(100 * sim.Microsecond)
	if !c.Done() {
		t.Fatalf("not done: issued=%d outstanding=%d", c.Issued(), c.Outstanding())
	}
	if m.count != 100 {
		t.Fatalf("memory saw %d ops", m.count)
	}
	wantInstr := uint64(100 * (cfg.InstrPerMemOp + 1))
	if c.InstructionsRetired() != wantInstr {
		t.Fatalf("instructions = %d, want %d", c.InstructionsRetired(), wantInstr)
	}
	if c.IPC() <= 0 {
		t.Fatal("IPC not positive")
	}
	if c.AvgLoadLatencyNs() < 20 {
		t.Fatalf("load latency %v below memory delay", c.AvgLoadLatencyNs())
	}
}

// IPC must fall as memory latency grows — the closed loop the model exists
// to capture.
func TestIPCFallsWithMemoryLatency(t *testing.T) {
	run := func(delay sim.Tick) (*Core, float64) {
		cfg := DefaultConfig()
		cfg.MemOps = 500
		k, c, _ := buildCore(t, cfg, StreamWorkload(1<<20, 1), delay)
		c.Start()
		// Stop stepping once the region completes so IPC reflects it.
		for i := 0; i < 100000 && !c.Done(); i++ {
			k.RunUntil(k.Now() + 10*sim.Nanosecond)
		}
		if !c.Done() {
			t.Fatal("core did not finish")
		}
		return c, c.IPC()
	}
	_, fast := run(10 * sim.Nanosecond)
	slowCore, slow := run(200 * sim.Nanosecond)
	if !(slow < fast) {
		t.Fatalf("IPC did not fall with latency: fast=%v slow=%v", fast, slow)
	}
	// With 6 outstanding and 200 ns latency the core should be mostly
	// stalled.
	if slowCore.StallFraction() < 0.3 {
		t.Fatalf("stall fraction = %v, expected heavy stalling", slowCore.StallFraction())
	}
}

// The MLP bound is respected.
func TestOutstandingBound(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxOutstanding = 3
	cfg.MemOps = 100
	k, c, _ := buildCore(t, cfg, StreamWorkload(1<<20, 1), 100*sim.Nanosecond)
	c.Start()
	for i := 0; i < 10000 && !c.Done(); i++ {
		k.RunUntil(k.Now() + 10*sim.Nanosecond)
		if c.Outstanding() > 3 {
			t.Fatalf("outstanding = %d > 3", c.Outstanding())
		}
	}
	if !c.Done() {
		t.Fatal("not done")
	}
}

// refusingMem refuses its refuseAt-th request (counting from 0) once, sends
// the retry at retryAt, and answers every request it accepts after delay.
type refusingMem struct {
	k        *sim.Kernel
	port     *mem.ResponsePort
	delay    sim.Tick
	refuseAt int
	retryAt  sim.Tick

	accepted  []mem.Addr
	refused   mem.Addr
	refusedAt sim.Tick
}

func (m *refusingMem) RecvTimingReq(pkt *mem.Packet) bool {
	if len(m.accepted) == m.refuseAt && m.refusedAt == 0 {
		m.refused, m.refusedAt = pkt.Addr, m.k.Now()
		m.k.Schedule(sim.NewEvent("retry", m.port.SendReqRetry), m.retryAt)
		return false
	}
	m.accepted = append(m.accepted, pkt.Addr)
	m.k.Schedule(sim.NewEvent("resp", func() {
		pkt.MakeResponse()
		m.port.SendTimingResp(pkt)
	}), m.k.Now()+m.delay)
	return true
}

func (m *refusingMem) RecvRespRetry() {}

// A refused operation is resent on the retry, the core counts its stall from
// the refusal to the retry, and the region still completes. With a 20 ns
// responder the first operation's response comes between them: the core is
// still stalled on the refused one, so the stall runs on to the retry.
func TestCoreRefusedAndRetried(t *testing.T) {
	for _, delay := range []sim.Tick{200 * sim.Nanosecond, 20 * sim.Nanosecond} {
		t.Run(delay.String(), func(t *testing.T) {
			k := sim.NewKernel()
			cfg := DefaultConfig()
			cfg.MemOps = 2 // the last one is the refused one: no later issue ends the stall
			c, err := New(k, cfg, StreamWorkload(1<<20, 1), stats.NewRegistry("t"), "core")
			if err != nil {
				t.Fatal(err)
			}
			m := &refusingMem{k: k, delay: delay, refuseAt: 1, retryAt: 100 * sim.Nanosecond}
			m.port = mem.NewResponsePort("mem", m, k)
			mem.Connect(c.Port(), m.port)
			c.Start()
			k.RunUntil(sim.Microsecond)
			if !c.Done() {
				t.Fatalf("not done: issued=%d outstanding=%d", c.Issued(), c.Outstanding())
			}
			if m.refusedAt == 0 || len(m.accepted) != 2 || m.accepted[1] != m.refused {
				t.Fatalf("refused %#x at %s; accepted %#x: want the refused operation resent second", m.refused, m.refusedAt, m.accepted)
			}
			if got, want := sim.Tick(c.StallTicks.Value()), m.retryAt-m.refusedAt; got != want {
				t.Fatalf("stallTicks = %s, want %s (refusal at %s to the retry at %s)", got, want, m.refusedAt, m.retryAt)
			}
		})
	}
}

// A full stack: core -> L1 -> DRAM controller. Cache-resident workloads run
// near peak IPC; canneal-like workloads crawl.
func TestWorkloadsOverFullStack(t *testing.T) {
	run := func(pattern trafficgen.Pattern) float64 {
		k := sim.NewKernel()
		reg := stats.NewRegistry("t")
		cfg := DefaultConfig()
		cfg.MemOps = 2000
		c, err := New(k, cfg, pattern, reg, "core")
		if err != nil {
			t.Fatal(err)
		}
		l1, err := cache.New(k, cache.Config{
			SizeBytes: 32 * 1024, Assoc: 2, LineBytes: 64,
			HitLatency: 1 * sim.Nanosecond, MSHRs: 6, WriteBufferDepth: 8,
		}, reg, "l1")
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := core.NewController(k, core.DefaultConfig(dram.DDR3_1600_x64()), reg, "mc")
		if err != nil {
			t.Fatal(err)
		}
		mem.Connect(c.Port(), l1.CPUPort())
		mem.Connect(l1.MemPort(), ctrl.Port())
		c.Start()
		for i := 0; i < 10000 && !c.Done(); i++ {
			k.RunUntil(k.Now() + sim.Microsecond)
		}
		if !c.Done() {
			t.Fatal("core did not finish")
		}
		return c.IPC()
	}
	compute := run(ComputeWorkload(16*1024, 2)) // fits in L1
	canneal := run(CannealWorkload(64<<20, 2))  // 64 MB pointer chase
	if !(canneal < compute/2) {
		t.Fatalf("canneal IPC %v not well below compute IPC %v", canneal, compute)
	}
}

func TestMixedWorkloadShape(t *testing.T) {
	m := &MixedWorkload{HotSet: 4096, Footprint: 1 << 20, ColdEvery: 10, Seed: 1}
	cold := 0
	for i := 0; i < 1000; i++ {
		a, _ := m.Next()
		if uint64(a) >= 4096 {
			cold++
		}
	}
	// Roughly every 10th access is cold (cold addresses above the hot set
	// once the cold pointer passes it).
	if cold == 0 || cold > 200 {
		t.Fatalf("cold accesses = %d, want ~100", cold)
	}
}

func TestOffsetPattern(t *testing.T) {
	p := &Offset{Base: 1 << 30, Pattern: StreamWorkload(1024, 1)}
	a, _ := p.Next()
	if a < 1<<30 {
		t.Fatalf("offset not applied: %#x", uint64(a))
	}
}

func TestWorkloadMixes(t *testing.T) {
	// Read percentages hold approximately for the named workloads.
	check := func(p trafficgen.Pattern, wantPct, tol int) {
		reads := 0
		const n = 2000
		for i := 0; i < n; i++ {
			if _, r := p.Next(); r {
				reads++
			}
		}
		pct := reads * 100 / n
		if pct < wantPct-tol || pct > wantPct+tol {
			t.Errorf("read pct = %d, want %d±%d", pct, wantPct, tol)
		}
	}
	check(CannealWorkload(1<<24, 3), 75, 5)
	check(StreamWorkload(1<<24, 3), 67, 5)
	check(ComputeWorkload(1<<16, 3), 80, 5)
}

func TestBurstyWorkloadShape(t *testing.T) {
	b := &BurstyWorkload{
		FrameBytes: 4096, HotSet: 8192, ComputeAccesses: 10,
		Footprint: 1 << 20, Seed: 5,
	}
	inFrameRuns := 0
	var prev mem.Addr
	seq := 0
	for i := 0; i < 2000; i++ {
		a, _ := b.Next()
		if a == prev+64 {
			seq++
		} else if seq >= 8 {
			inFrameRuns++
			seq = 0
		} else {
			seq = 0
		}
		prev = a
	}
	if inFrameRuns == 0 {
		t.Fatal("no sequential frame bursts observed")
	}
}

func TestDedupWorkloadShape(t *testing.T) {
	d := &DedupWorkload{TableBytes: 1 << 20, ChunkBytes: 4096, Footprint: 16 << 20, Seed: 5}
	table, chunk := 0, 0
	for i := 0; i < 2000; i++ {
		a, _ := d.Next()
		if uint64(a) < 1<<20 {
			table++
		} else {
			chunk++
		}
	}
	if table == 0 || chunk == 0 {
		t.Fatalf("table=%d chunk=%d: both phases must occur", table, chunk)
	}
	// Chunk scans dominate volume (each scan is ChunkBytes/64 accesses).
	if chunk < table {
		t.Fatalf("chunk accesses (%d) should outnumber table probes (%d)", chunk, table)
	}
}
