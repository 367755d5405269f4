package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// fakeMem answers line fills after a fixed delay and records traffic.
type fakeMem struct {
	k       *sim.Kernel
	port    *mem.ResponsePort
	delay   sim.Tick
	reads   int
	writes  int
	refuse  int
	pending []*mem.Packet
	waiting bool
}

func newFakeMem(k *sim.Kernel, delay sim.Tick) *fakeMem {
	f := &fakeMem{k: k, delay: delay}
	f.port = mem.NewResponsePort("mem", f, k)
	return f
}

func (f *fakeMem) RecvTimingReq(pkt *mem.Packet) bool {
	if f.refuse > 0 {
		f.refuse--
		f.waiting = true
		f.k.Schedule(sim.NewEvent("memRetry", func() {
			if f.waiting {
				f.waiting = false
				f.port.SendReqRetry()
			}
		}), f.k.Now()+20*sim.Nanosecond)
		return false
	}
	if pkt.Cmd == mem.ReadReq {
		f.reads++
	} else {
		f.writes++
	}
	f.k.Schedule(sim.NewEvent("memResp", func() {
		pkt.MakeResponse()
		if !f.port.SendTimingResp(pkt) {
			f.pending = append(f.pending, pkt)
		}
	}), f.k.Now()+f.delay)
	return true
}

func (f *fakeMem) RecvRespRetry() {
	for len(f.pending) > 0 {
		if !f.port.SendTimingResp(f.pending[0]) {
			return
		}
		f.pending = f.pending[1:]
	}
}

// cpu drives the cache and records responses.
type cpu struct {
	k         *sim.Kernel
	port      *mem.RequestPort
	responses []*mem.Packet
	respTicks []sim.Tick
	blocked   *mem.Packet
	retries   int
	// onResp, when set, is invoked after each accepted response (for
	// dependent-chain tests).
	onResp func(*mem.Packet)
}

func newCPU(k *sim.Kernel) *cpu {
	c := &cpu{k: k}
	c.port = mem.NewRequestPort("cpu", c, k)
	return c
}

func (c *cpu) RecvTimingResp(pkt *mem.Packet) bool {
	c.responses = append(c.responses, pkt)
	c.respTicks = append(c.respTicks, c.k.Now())
	if c.onResp != nil {
		c.onResp(pkt)
	}
	return true
}

func (c *cpu) RecvReqRetry() {
	c.retries++
	if c.blocked != nil {
		pkt := c.blocked
		c.blocked = nil
		if !c.port.SendTimingReq(pkt) {
			c.blocked = pkt
		}
	}
}

func (c *cpu) send(pkt *mem.Packet) bool {
	pkt.IssueTick = c.k.Now()
	if !c.port.SendTimingReq(pkt) {
		c.blocked = pkt
		return false
	}
	return true
}

func defaultCfg() Config {
	return Config{
		SizeBytes:        8 * 1024,
		Assoc:            2,
		LineBytes:        64,
		HitLatency:       2 * sim.Nanosecond,
		MSHRs:            4,
		WriteBufferDepth: 8,
	}
}

func build(t *testing.T, cfg Config, memDelay sim.Tick) (*sim.Kernel, *cpu, *Cache, *fakeMem) {
	t.Helper()
	k := sim.NewKernel()
	reg := stats.NewRegistry("t")
	c, err := New(k, cfg, reg, "l1")
	if err != nil {
		t.Fatal(err)
	}
	u := newCPU(k)
	m := newFakeMem(k, memDelay)
	mem.Connect(u.port, c.CPUPort())
	mem.Connect(c.MemPort(), m.port)
	return k, u, c, m
}

func at(k *sim.Kernel, when sim.Tick, fn func()) {
	k.Schedule(sim.NewEvent("test", fn), when)
}

func TestConfigValidate(t *testing.T) {
	if err := defaultCfg().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.SizeBytes = 0 },
		func(c *Config) { c.LineBytes = 48 },
		func(c *Config) { c.Assoc = 0 },
		func(c *Config) { c.SizeBytes = 1000 },
		func(c *Config) { c.HitLatency = -1 },
		func(c *Config) { c.MSHRs = 0 },
		func(c *Config) { c.WriteBufferDepth = 0 },
	}
	for i, mut := range bad {
		cfg := defaultCfg()
		mut(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	// Non-power-of-two set count is rejected at construction.
	k := sim.NewKernel()
	cfg := defaultCfg()
	cfg.SizeBytes = 3 * 64 * 2
	if _, err := New(k, cfg, stats.NewRegistry(""), "x"); err == nil {
		t.Error("non-pow2 set count accepted")
	}
}

func TestMissThenHit(t *testing.T) {
	k, u, c, m := build(t, defaultCfg(), 100*sim.Nanosecond)
	at(k, 0, func() { u.send(mem.NewRead(0x100, 8, 0, 0)) })
	at(k, 500*sim.Nanosecond, func() { u.send(mem.NewRead(0x108, 8, 0, 0)) })
	k.RunUntil(sim.Microsecond)
	if len(u.responses) != 2 {
		t.Fatalf("responses = %d", len(u.responses))
	}
	// First: miss -> fill (100 ns) + hit latency (2 ns).
	if u.respTicks[0] != 102*sim.Nanosecond {
		t.Fatalf("miss latency = %s, want 102ns", u.respTicks[0])
	}
	// Second: pure hit, 2 ns after issue.
	if u.respTicks[1] != 502*sim.Nanosecond {
		t.Fatalf("hit latency = %s, want 502ns", u.respTicks[1])
	}
	if c.Misses() != 1 || c.HitRate() != 0.5 {
		t.Fatalf("misses=%d hitRate=%v", c.Misses(), c.HitRate())
	}
	if m.reads != 1 {
		t.Fatalf("memory reads = %d, want 1 line fill", m.reads)
	}
}

func TestWriteAllocateAndWriteback(t *testing.T) {
	cfg := defaultCfg()
	cfg.SizeBytes = 2 * 64 // direct-mapped-ish tiny cache: 1 set x 2 ways
	cfg.Assoc = 2
	k, u, _, m := build(t, cfg, 50*sim.Nanosecond)
	// Write misses allocate; a third distinct line evicts the dirty LRU.
	at(k, 0, func() { u.send(mem.NewWrite(0x0, 8, 0, 0)) })
	at(k, 200*sim.Nanosecond, func() { u.send(mem.NewWrite(0x40, 8, 0, 0)) })
	at(k, 400*sim.Nanosecond, func() { u.send(mem.NewRead(0x80, 8, 0, 0)) })
	k.RunUntil(2 * sim.Microsecond)
	if len(u.responses) != 3 {
		t.Fatalf("responses = %d", len(u.responses))
	}
	if m.writes != 1 {
		t.Fatalf("writebacks to memory = %d, want 1 (dirty LRU evicted)", m.writes)
	}
	if m.reads != 3 {
		t.Fatalf("line fills = %d, want 3", m.reads)
	}
}

func TestMSHRMerge(t *testing.T) {
	k, u, c, m := build(t, defaultCfg(), 100*sim.Nanosecond)
	at(k, 0, func() {
		u.send(mem.NewRead(0x200, 8, 0, 0))
		u.send(mem.NewRead(0x208, 8, 0, 0)) // same line, in-flight
		u.send(mem.NewRead(0x210, 8, 0, 0)) // same line again
	})
	k.RunUntil(sim.Microsecond)
	if len(u.responses) != 3 {
		t.Fatalf("responses = %d", len(u.responses))
	}
	if m.reads != 1 {
		t.Fatalf("fills = %d, want 1 (merged)", m.reads)
	}
	if got := c.st.mshrMerges.Value(); got != 2 {
		t.Fatalf("merges = %v, want 2", got)
	}
}

func TestMSHRExhaustionBlocks(t *testing.T) {
	cfg := defaultCfg()
	cfg.MSHRs = 2
	k, u, c, _ := build(t, cfg, 200*sim.Nanosecond)
	at(k, 0, func() {
		u.send(mem.NewRead(0x000, 8, 0, 0))
		u.send(mem.NewRead(0x400, 8, 0, 0))
		if u.send(mem.NewRead(0x800, 8, 0, 0)) {
			t.Error("third distinct miss accepted with 2 MSHRs")
		}
	})
	k.RunUntil(2 * sim.Microsecond)
	if len(u.responses) != 3 {
		t.Fatalf("responses = %d (blocked request must be retried)", len(u.responses))
	}
	if u.retries == 0 {
		t.Fatal("no retry delivered")
	}
	if c.st.blockedOnMSHRs.Value() == 0 {
		t.Fatal("blockedOnMSHRs not counted")
	}
}

func TestLRUReplacement(t *testing.T) {
	cfg := defaultCfg()
	cfg.SizeBytes = 2 * 64 // one set, two ways
	k, u, _, m := build(t, cfg, 10*sim.Nanosecond)
	// Fill ways with A and B; touch A; insert C -> B must be evicted, so a
	// subsequent access to A still hits, to B misses.
	at(k, 0, func() { u.send(mem.NewRead(0x000, 8, 0, 0)) })                 // A
	at(k, 100*sim.Nanosecond, func() { u.send(mem.NewRead(0x40, 8, 0, 0)) }) // B
	at(k, 200*sim.Nanosecond, func() { u.send(mem.NewRead(0x00, 8, 0, 0)) }) // touch A
	at(k, 300*sim.Nanosecond, func() { u.send(mem.NewRead(0x80, 8, 0, 0)) }) // C evicts B
	at(k, 400*sim.Nanosecond, func() { u.send(mem.NewRead(0x00, 8, 0, 0)) }) // A hits
	at(k, 500*sim.Nanosecond, func() { u.send(mem.NewRead(0x40, 8, 0, 0)) }) // B misses
	k.RunUntil(2 * sim.Microsecond)
	if m.reads != 4 { // A, B, C, B-again
		t.Fatalf("fills = %d, want 4", m.reads)
	}
}

func TestMemPortBackPressure(t *testing.T) {
	k, u, _, m := build(t, defaultCfg(), 30*sim.Nanosecond)
	m.refuse = 2
	at(k, 0, func() { u.send(mem.NewRead(0x0, 8, 0, 0)) })
	k.RunUntil(2 * sim.Microsecond)
	if len(u.responses) != 1 {
		t.Fatalf("responses = %d despite memory retries", len(u.responses))
	}
}

func TestStraddlingRequestPanics(t *testing.T) {
	k, u, _, _ := build(t, defaultCfg(), 10*sim.Nanosecond)
	defer func() {
		if recover() == nil {
			t.Fatal("straddling request did not panic")
		}
	}()
	at(k, 0, func() { u.send(mem.NewRead(0x3C, 16, 0, 0)) })
	k.RunUntil(sim.Microsecond)
}

// End-to-end against the real DRAM controller: the cache filters traffic so
// the controller sees only line fills and writebacks.
func TestCacheOverDRAMController(t *testing.T) {
	k := sim.NewKernel()
	reg := stats.NewRegistry("t")
	cfg := defaultCfg()
	c, err := New(k, cfg, reg, "l1")
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := core.NewController(k, core.DefaultConfig(dram.DDR3_1600_x64()), reg, "mc")
	if err != nil {
		t.Fatal(err)
	}
	u := newCPU(k)
	mem.Connect(u.port, c.CPUPort())
	mem.Connect(c.MemPort(), ctrl.Port())

	// 64 sequential 8-byte reads = 8 lines = 8 fills. Issues are spaced
	// beyond the fill latency so same-line accesses hit rather than merge
	// into the in-flight MSHR (merges count as misses, as in gem5).
	at(k, 0, func() {
		var issue func(i int)
		issue = func(i int) {
			if i >= 64 {
				return
			}
			u.send(mem.NewRead(mem.Addr(i*8), 8, 0, k.Now()))
			at(k, k.Now()+100*sim.Nanosecond, func() { issue(i + 1) })
		}
		issue(0)
	})
	for i := 0; i < 100 && len(u.responses) < 64; i++ {
		k.RunUntil(k.Now() + sim.Microsecond)
	}
	if len(u.responses) != 64 {
		t.Fatalf("responses = %d", len(u.responses))
	}
	ps := ctrl.PowerStats()
	if ps.ReadBursts != 8 {
		t.Fatalf("controller saw %d bursts, want 8 line fills", ps.ReadBursts)
	}
	if c.HitRate() < 0.85 {
		t.Fatalf("hit rate = %v, want 56/64", c.HitRate())
	}
}

// Property: every accepted request is answered exactly once and the cache
// never exceeds its MSHR bound.
func TestRandomTrafficProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := sim.NewKernel()
		reg := stats.NewRegistry("t")
		cfg := defaultCfg()
		cfg.MSHRs = 3
		c, err := New(k, cfg, reg, "l1")
		if err != nil {
			return false
		}
		u := newCPU(k)
		m := newFakeMem(k, sim.Tick(rng.Intn(100)+1)*sim.Nanosecond)
		mem.Connect(u.port, c.CPUPort())
		mem.Connect(c.MemPort(), m.port)

		n := 200
		sent := 0
		ok := true
		var inject func()
		inject = func() {
			if c.mshrsInUse > cfg.MSHRs {
				ok = false
			}
			if u.blocked == nil && sent < n {
				addr := mem.Addr(rng.Intn(1<<14)) &^ 7
				if rng.Intn(2) == 0 {
					u.send(mem.NewRead(addr, 8, 0, k.Now()))
				} else {
					u.send(mem.NewWrite(addr, 8, 0, k.Now()))
				}
				sent++
			}
			if sent < n || u.blocked != nil {
				k.Schedule(sim.NewEvent("inject", inject), k.Now()+sim.Tick(rng.Intn(20)+1)*sim.Nanosecond)
			}
		}
		k.Schedule(sim.NewEvent("inject", inject), 0)
		for i := 0; i < 1000 && len(u.responses) < n; i++ {
			k.RunUntil(k.Now() + sim.Microsecond)
		}
		return ok && len(u.responses) == n && c.Quiescent()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
