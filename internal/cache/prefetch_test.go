package cache

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

func prefetchCfg(p PrefetchPolicy) Config {
	cfg := defaultCfg()
	cfg.Prefetch = p
	cfg.MSHRs = 8
	return cfg
}

func TestPrefetchConfigValidate(t *testing.T) {
	cfg := prefetchCfg(PrefetchStride)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg = prefetchCfg(PrefetchPolicy(9))
	if cfg.Validate() == nil {
		t.Fatal("unknown policy accepted")
	}
	cfg = prefetchCfg(PrefetchNextLine)
	cfg.MSHRs = 1
	if cfg.Validate() == nil {
		t.Fatal("prefetching with 1 MSHR accepted")
	}
	for p, want := range map[PrefetchPolicy]string{
		PrefetchNone: "none", PrefetchNextLine: "next-line", PrefetchStride: "stride",
	} {
		if p.String() != want {
			t.Errorf("%d name = %q", int(p), p.String())
		}
	}
}

// Next-line prefetching turns a sequential stream's misses into hits.
func TestNextLinePrefetchOnSequential(t *testing.T) {
	run := func(p PrefetchPolicy) (hitRate float64, fills int) {
		k, u, c, m := build(t, prefetchCfg(p), 60*sim.Nanosecond)
		// 16 sequential lines, one access per line, spaced out.
		for i := 0; i < 16; i++ {
			i := i
			at(k, sim.Tick(i)*200*sim.Nanosecond, func() {
				u.send(mem.NewRead(mem.Addr(i*64), 8, 0, 0))
			})
		}
		runChecked(t, k, c, 10*sim.Microsecond)
		if len(u.responses) != 16 {
			t.Fatalf("responses = %d", len(u.responses))
		}
		return c.HitRate(), m.reads
	}
	hitNone, _ := run(PrefetchNone)
	hitNL, fillsNL := run(PrefetchNextLine)
	if hitNone != 0 {
		t.Fatalf("no-prefetch hit rate = %v, want 0 (each line touched once)", hitNone)
	}
	if hitNL < 0.85 {
		t.Fatalf("next-line hit rate = %v, want ~15/16", hitNL)
	}
	// The fills are still issued (shifted to prefetches), not multiplied.
	if fillsNL > 20 {
		t.Fatalf("next-line issued %d fills for 16 lines", fillsNL)
	}
}

// The stride prefetcher locks onto a constant stride and runs ahead.
func TestStridePrefetcher(t *testing.T) {
	k, u, c, _ := build(t, prefetchCfg(PrefetchStride), 60*sim.Nanosecond)
	const stride = 256 // 4 lines apart: next-line would never help
	for i := 0; i < 20; i++ {
		i := i
		at(k, sim.Tick(i)*300*sim.Nanosecond, func() {
			u.send(mem.NewRead(mem.Addr(i*stride), 8, 0, 0))
		})
	}
	runChecked(t, k, c, 20*sim.Microsecond)
	if len(u.responses) != 20 {
		t.Fatalf("responses = %d", len(u.responses))
	}
	// After the detector confirms (3 misses), later accesses hit.
	if c.HitRate() < 0.5 {
		t.Fatalf("stride hit rate = %v", c.HitRate())
	}
	if c.PrefetchAccuracy() < 0.5 {
		t.Fatalf("stride accuracy = %v", c.PrefetchAccuracy())
	}
}

// Random traffic yields useless prefetches: accuracy collapses but
// correctness holds.
func TestPrefetchUselessOnRandom(t *testing.T) {
	k, u, c, _ := build(t, prefetchCfg(PrefetchNextLine), 30*sim.Nanosecond)
	addrs := []mem.Addr{0x0, 0x1000, 0x480, 0x2040, 0x3800, 0x140, 0x2900, 0x700}
	for i, a := range addrs {
		a := a
		at(k, sim.Tick(i)*300*sim.Nanosecond, func() {
			u.send(mem.NewRead(a, 8, 0, 0))
		})
	}
	runChecked(t, k, c, 10*sim.Microsecond)
	if len(u.responses) != len(addrs) {
		t.Fatalf("responses = %d", len(u.responses))
	}
	if c.PrefetchAccuracy() > 0.3 {
		t.Fatalf("accuracy = %v on random traffic", c.PrefetchAccuracy())
	}
}

// Prefetches never occupy the last MSHR, so demand misses are not blocked
// by speculation.
func TestPrefetchLeavesDemandMSHR(t *testing.T) {
	cfg := prefetchCfg(PrefetchStride)
	cfg.MSHRs = 2
	k, u, c, _ := build(t, cfg, 500*sim.Nanosecond)
	// Spaced past the fill latency so the single-retry test harness never
	// overwrites a blocked packet; the stride prefetcher still wants to run
	// two lines ahead but only ever gets the one spare MSHR.
	for i := 0; i < 6; i++ {
		i := i
		at(k, sim.Tick(i)*600*sim.Nanosecond, func() {
			u.send(mem.NewRead(mem.Addr(i*64), 8, 0, 0))
		})
	}
	runChecked(t, k, c, 20*sim.Microsecond)
	if len(u.responses) != 6 {
		t.Fatalf("responses = %d", len(u.responses))
	}
	// With 2 MSHRs and one reserved for demand, at most 1 prefetch can ever
	// be in flight; the run must still complete.
}

// End-to-end: prefetching raises a streaming core's effective performance
// over the DRAM controller.
func TestPrefetchSpeedsUpStreaming(t *testing.T) {
	run := func(p PrefetchPolicy) sim.Tick {
		k := sim.NewKernel()
		reg := stats.NewRegistry("t")
		cfg := prefetchCfg(p)
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
		// A dependent (serial) streaming chain: each access issues when the
		// previous returns, so lower latency directly shortens the run.
		n := 200
		var issue func(i int)
		issue = func(i int) {
			if i >= n {
				return
			}
			pkt := mem.NewRead(mem.Addr(i*64), 8, 0, k.Now())
			pkt.Meta = i
			u.send(pkt)
		}
		u.onResp = func(pkt *mem.Packet) {
			issue(pkt.Meta.(int) + 1)
		}
		at(k, 0, func() { issue(0) })
		for i := 0; i < 10000 && len(u.responses) < n; i++ {
			runChecked(t, k, c, k.Now()+sim.Microsecond)
		}
		if len(u.responses) != n {
			t.Fatal("stream did not finish")
		}
		return u.respTicks[len(u.respTicks)-1]
	}
	without := run(PrefetchNone)
	with := run(PrefetchNextLine)
	if with >= without {
		t.Fatalf("prefetching did not speed up the stream: %s vs %s", with, without)
	}
}
