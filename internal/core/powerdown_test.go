package core

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
)

// An idle controller with the feature enabled enters power-down after the
// configured idle time and accumulates power-down time.
func TestPowerDownEntry(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.PowerDownIdle = 100 * sim.Nanosecond })
	h.k.RunUntil(2 * sim.Microsecond)
	if !h.c.ranks[0].cke.inPowerDown() {
		t.Fatal("idle controller did not power down")
	}
	if h.c.ranks[0].cke != ckePrePD {
		t.Fatalf("rank with no open rows entered %v, want precharge power-down", h.c.ranks[0].cke)
	}
	pd := h.c.PowerStats().PowerDownTime
	// Powered down from ~100 ns to 2 us.
	if pd < 1800*sim.Nanosecond || pd > 1950*sim.Nanosecond {
		t.Fatalf("power-down time = %s", pd)
	}
	if h.c.st.powerDowns.Value() != 1 {
		t.Fatalf("powerDowns = %v", h.c.st.powerDowns.Value())
	}

	// A faulty controller that idles after its work counts the power-down
	// and self-refresh entries and every RAS outcome in its statistics.
	h = newHarness(t, func(c *Config) {
		c.PowerDownIdle = 100 * sim.Nanosecond
		c.SelfRefreshIdle = 5 * sim.Microsecond
		c.Faults = faults.Config{Seed: 7, CorrectablePerBurst: 0.3, UncorrectablePerBurst: 0.2, TransientPerBurst: 0.4}
		c.FaultRetryLimit = 1
	})
	h.at(0, func() {
		for i := 0; i < 20; i++ {
			h.send(mem.NewRead(mem.Addr(i)<<20, 64, 0, 0))
		}
	})
	h.k.RunUntil(3 * sim.Microsecond)
	if h.c.PowerStats().PowerDownTime == 0 {
		t.Fatal("no power-down time accumulated")
	}
	h.requireCounted(t, "powerDowns", "correctedErrors", "uncorrectedErrors",
		"retriedBursts", "retiredRows", "scrubWrites")
	h.k.RunUntil(7 * sim.Microsecond)
	h.requireCounted(t, "selfRefreshes")
}

// The feature disabled (default) never powers down.
func TestPowerDownDisabledByDefault(t *testing.T) {
	h := newHarness(t, nil)
	h.k.RunUntil(2 * sim.Microsecond)
	if h.c.ranks[0].cke != ckeActive || h.c.PowerStats().PowerDownTime != 0 {
		t.Fatal("power-down occurred with the feature disabled")
	}
}

// Waking from power-down costs tXP: the first access after a long idle is
// slower than the same access on a never-powered-down controller.
func TestPowerDownExitLatency(t *testing.T) {
	run := func(idle sim.Tick) sim.Tick {
		h := newHarness(t, func(c *Config) { c.PowerDownIdle = idle })
		h.at(sim.Microsecond, func() { h.send(mem.NewRead(0, 64, 0, 0)) })
		h.k.RunUntil(2 * sim.Microsecond)
		if len(h.respTicks) != 1 {
			t.Fatal("no response")
		}
		return h.respTicks[0] - sim.Microsecond
	}
	withPD := run(100 * sim.Nanosecond)
	withoutPD := run(0)
	txp := dram.DDR3_1600_x64().Timing.TXP
	if withPD != withoutPD+txp {
		t.Fatalf("power-down exit cost = %s, want %s + tXP(%s)", withPD, withoutPD, txp)
	}
}

// A second idle period re-enters power-down (the timer re-arms).
func TestPowerDownReentry(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.PowerDownIdle = 100 * sim.Nanosecond })
	h.at(sim.Microsecond, func() { h.send(mem.NewRead(0, 64, 0, 0)) })
	h.k.RunUntil(3 * sim.Microsecond)
	if h.c.st.powerDowns.Value() != 2 {
		t.Fatalf("powerDowns = %v, want 2 (before and after the access)", h.c.st.powerDowns.Value())
	}
	if !h.c.ranks[0].cke.inPowerDown() {
		t.Fatal("controller should be powered down again")
	}
}

// Power-down reduces the computed background power of a mostly idle
// controller.
func TestPowerDownReducesIdlePower(t *testing.T) {
	run := func(idle sim.Tick) float64 {
		h := newHarness(t, func(c *Config) { c.PowerDownIdle = idle })
		// A touch of traffic, then long idle.
		h.at(0, func() { h.send(mem.NewRead(0, 64, 0, 0)) })
		h.k.RunUntil(50 * sim.Microsecond)
		return power.Compute(h.c.cfg.Device, h.c.PowerStats()).TotalMW()
	}
	withPD := run(200 * sim.Nanosecond)
	withoutPD := run(0)
	if withPD >= withoutPD {
		t.Fatalf("power-down did not reduce idle power: %v vs %v mW", withPD, withoutPD)
	}
	// With IDD2P well below IDD2N the reduction should be substantial.
	if withPD > withoutPD*0.7 {
		t.Fatalf("reduction too small: %v vs %v mW", withPD, withoutPD)
	}
}

func TestPowerDownConfigValidation(t *testing.T) {
	cfg := DefaultConfig(dram.DDR3_1600_x64())
	cfg.PowerDownIdle = -1
	if cfg.Validate() == nil {
		t.Fatal("negative PowerDownIdle accepted")
	}
}

// Pins an open policy question (DESIGN §13): writes parked below the low
// watermark do not keep their rank awake (rankIdle), so the rank powers down
// with them queued, and when Drain later releases them the scheduler picks
// one while CKE is still low. No arbitration rule sees the exit: tXP is paid
// only when doDRAMAccess's wakeRank raises CKE, at the drain tick, and the
// first activate follows exactly tXP later. The stream stays legal.
func TestDrainArbitratesParkedWritesBeforeWake(t *testing.T) {
	trace := &power.CommandTrace{}
	h := newHarness(t, func(c *Config) {
		c.PowerDownIdle = 100 * sim.Nanosecond
		c.Probes = obs.NewHub()
		c.Probes.Attach(obs.CommandFunc(trace.Record))
	})
	c, rk := h.c, h.c.ranks[0]
	h.send(mem.NewWrite(0, 64, 0, 0))
	h.send(mem.NewWrite(mem.Addr(c.org.RowBufferBytes), 64, 0, 0))
	const drainAt = 2 * sim.Microsecond
	h.k.RunUntil(drainAt - 1)
	if c.writeQueue.n != 2 || c.writeQueue.n > c.writeLowMark || !rk.cke.inPowerDown() {
		t.Fatalf("before the drain: %d writes queued (low mark %d), rank powered down %v; want both parked and the rank asleep",
			c.writeQueue.n, c.writeLowMark, rk.cke.inPowerDown())
	}
	if p := c.chooseNext(&c.writeQueue); p == nil || !rk.cke.inPowerDown() {
		t.Fatal("the scheduler declined a write on a powered-down rank, or its choice woke the rank")
	}
	before := len(trace.Commands())
	h.at(drainAt, c.Drain)
	h.run(sim.Microsecond)
	if c.writeQueue.n != 0 || rk.cke.inPowerDown() {
		t.Fatalf("after the drain: %d writes queued, rank powered down %v", c.writeQueue.n, rk.cke.inPowerDown())
	}
	cmds := trace.Commands()[before:]
	if len(cmds) < 3 || cmds[0].Kind != power.CmdPDX || cmds[0].At != drainAt ||
		cmds[1].Kind != power.CmdACT || cmds[1].At != drainAt+c.tim.TXP {
		t.Fatalf("commands after the drain %v: want PDX at the drain tick %s, then ACT tXP (%s) later",
			cmds, drainAt, c.tim.TXP)
	}
	if v := power.CheckTiming(c.cfg.Device, trace.Commands()); len(v) != 0 {
		t.Fatalf("timing violations: %v", v)
	}
}
