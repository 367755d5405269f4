package core

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/power"
	"repro/internal/sim"
)

// After SelfRefreshIdle of quiet the channel enters self-refresh, and the
// external refresh machinery is suspended while the DRAM refreshes itself.
func TestSelfRefreshEntry(t *testing.T) {
	h := newHarness(t, func(c *Config) {
		c.PowerDownIdle = 100 * sim.Nanosecond
		c.SelfRefreshIdle = 500 * sim.Nanosecond
	})
	tm := h.c.tim
	h.k.RunUntil(10 * tm.TREFI)
	if h.c.ranks[0].cke != ckeSelfRefresh {
		t.Fatal("idle controller did not enter self-refresh")
	}
	if h.c.st.selfRefreshes.Value() != 1 {
		t.Fatalf("selfRefreshes = %v", h.c.st.selfRefreshes.Value())
	}
	// Power-down ended when self-refresh began: PD time is the short window
	// between the two thresholds.
	pd := h.c.PowerStats().PowerDownTime
	if pd < 350*sim.Nanosecond || pd > 450*sim.Nanosecond {
		t.Fatalf("power-down time = %s, want ~400ns", pd)
	}
	sr := h.c.PowerStats().SelfRefreshTime
	if sr < 9*tm.TREFI/2 {
		t.Fatalf("self-refresh time = %s, too short", sr)
	}
	// No external refreshes issued while self-refreshing (the first REF is
	// due at tREFI, after self-refresh began at 500 ns).
	if h.c.st.refreshes.Value() != 0 {
		t.Fatalf("external refreshes = %v during self-refresh", h.c.st.refreshes.Value())
	}
}

// Exiting self-refresh costs tXS — and for the read itself tXSDLL, the
// DLL-relock latency, which on DDR3 dominates the activate path (tXS + tRCD).
func TestSelfRefreshExitLatency(t *testing.T) {
	run := func(srIdle sim.Tick) sim.Tick {
		h := newHarness(t, func(c *Config) { c.SelfRefreshIdle = srIdle })
		h.at(2*sim.Microsecond, func() { h.send(mem.NewRead(0, 64, 0, 0)) })
		h.k.RunUntil(4 * sim.Microsecond)
		if len(h.respTicks) != 1 {
			t.Fatal("no response")
		}
		return h.respTicks[0] - 2*sim.Microsecond
	}
	withSR := run(200 * sim.Nanosecond)
	withoutSR := run(0)
	tm := dram.DDR3_1600_x64().Timing
	extra := max(tm.TXS+tm.TRCD, tm.TXSDLL) - tm.TRCD
	if withSR != withoutSR+extra {
		t.Fatalf("self-refresh exit cost = %s, want %s + %s (tXS %s, tXSDLL %s, tRCD %s)",
			withSR, withoutSR, extra, tm.TXS, tm.TXSDLL, tm.TRCD)
	}
}

// After an exit, external refresh resumes at the normal cadence.
func TestSelfRefreshResumesExternalRefresh(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.SelfRefreshIdle = 200 * sim.Nanosecond })
	tm := h.c.tim
	// Long sleep, then wake with a read and keep lightly busy so the
	// channel stays out of self-refresh.
	wake := 5 * tm.TREFI
	// Stay busy past a full tREFI after the wake (100 ns spacing keeps the
	// idle gaps below the self-refresh threshold).
	n := int(tm.TREFI/(100*sim.Nanosecond)) + 20
	for i := 0; i < n; i++ {
		i := i
		h.at(wake+sim.Tick(i)*100*sim.Nanosecond, func() {
			h.send(mem.NewRead(mem.Addr(i*64), 64, 0, 0))
		})
	}
	h.k.RunUntil(wake + 3*tm.TREFI)
	// Roughly one refresh per tREFI after the wake... minus ramp effects.
	got := h.c.st.refreshes.Value()
	if got < 1 {
		t.Fatalf("external refresh did not resume: %v", got)
	}
}

// Self-refresh slashes long-idle power below even power-down.
func TestSelfRefreshPower(t *testing.T) {
	run := func(mut func(*Config)) float64 {
		h := newHarness(t, mut)
		h.at(0, func() { h.send(mem.NewRead(0, 64, 0, 0)) })
		h.k.RunUntil(100 * sim.Microsecond)
		return power.Compute(h.c.cfg.Device, h.c.PowerStats()).TotalMW()
	}
	active := run(nil)
	pd := run(func(c *Config) { c.PowerDownIdle = 200 * sim.Nanosecond })
	sr := run(func(c *Config) {
		c.PowerDownIdle = 200 * sim.Nanosecond
		c.SelfRefreshIdle = 1000 * sim.Nanosecond
	})
	if !(sr < pd && pd < active) {
		t.Fatalf("power ordering wrong: active=%v pd=%v sr=%v", active, pd, sr)
	}
	// Self-refresh also kills the refresh spikes' energy share: it should
	// be well under half the power-down figure for a long idle.
	if sr > pd*0.7 {
		t.Fatalf("self-refresh saving too small: %v vs %v", sr, pd)
	}
}

func TestSelfRefreshConfigValidation(t *testing.T) {
	cfg := DefaultConfig(dram.DDR3_1600_x64())
	cfg.SelfRefreshIdle = -1
	if cfg.Validate() == nil {
		t.Fatal("negative SelfRefreshIdle accepted")
	}
	cfg = DefaultConfig(dram.DDR3_1600_x64())
	cfg.PowerDownIdle = 500
	cfg.SelfRefreshIdle = 400
	if cfg.Validate() == nil {
		t.Fatal("SelfRefreshIdle <= PowerDownIdle accepted")
	}
}
