package core

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// A correctable error adds exactly the ECC correction latency to the read
// and queues one demand-scrub writeback that drains like an ordinary write.
func TestECCCorrectionLatencyAndScrub(t *testing.T) {
	h := newHarness(t, func(c *Config) {
		c.Faults = faults.Config{Seed: 7, CorrectablePerBurst: 1.0}
		c.ECCCorrectionLatency = 16 * sim.Nanosecond
	})
	tm := h.c.tim
	h.at(0, func() { h.send(mem.NewRead(0, 64, 0, 0)) })
	h.run(sim.Microsecond)
	if len(h.responses) != 1 {
		t.Fatalf("responses = %d", len(h.responses))
	}
	want := tm.TRCD + tm.TCL + tm.TBURST + 16*sim.Nanosecond
	if h.respTicks[0] != want {
		t.Fatalf("corrected read latency = %s, want %s", h.respTicks[0], want)
	}
	if got := h.c.st.correctedErrors.Value(); got != 1 {
		t.Fatalf("correctedErrors = %v, want 1", got)
	}
	if got := h.c.st.scrubWrites.Value(); got != 1 {
		t.Fatalf("scrubWrites = %v, want 1", got)
	}
	// The scrub is a real write: draining it moves a full burst of bytes.
	h.c.Drain()
	h.run(10 * sim.Microsecond)
	if got := h.c.st.bytesWritten.Value(); got != 64 {
		t.Fatalf("bytesWritten = %v, want 64 (scrub burst)", got)
	}
	// Scrubs are internal traffic: no system write latency is sampled.
	if n := h.c.st.wrQLat.Count(); n != 0 {
		t.Fatalf("wrQLat samples = %d, want 0 for scrub-only writes", n)
	}
}

// An uncorrectable error completes the access — poisoned, never a panic.
func TestUncorrectablePoisonsResponse(t *testing.T) {
	h := newHarness(t, func(c *Config) {
		c.Faults = faults.Config{Seed: 7, UncorrectablePerBurst: 1.0}
	})
	h.at(0, func() {
		h.send(mem.NewRead(0, 64, 0, 0))
		h.send(mem.NewRead(1<<20, 256, 0, 0)) // multi-burst: any bad burst taints it
	})
	h.run(10 * sim.Microsecond)
	if len(h.responses) != 2 {
		t.Fatalf("responses = %d, want 2", len(h.responses))
	}
	for i, r := range h.responses {
		if !r.Poisoned {
			t.Fatalf("response %d not poisoned: %s", i, r)
		}
	}
	if got := h.c.st.uncorrectedErrors.Value(); got != 5 {
		t.Fatalf("uncorrectedErrors = %v, want 5 (1 + 4 bursts)", got)
	}
	// Writes are unaffected by the read fault path.
	h2 := newHarness(t, func(c *Config) {
		c.Faults = faults.Config{Seed: 7, UncorrectablePerBurst: 1.0}
	})
	h2.at(0, func() { h2.send(mem.NewWrite(0, 64, 0, 0)) })
	h2.run(sim.Microsecond)
	if len(h2.responses) != 1 || h2.responses[0].Poisoned {
		t.Fatalf("write ack wrong: %v", h2.responses)
	}
}

// A persistently failing burst is replayed with backoff until the retry
// limit, then the row is retired and the access completes from the spare.
func TestTransientReplayThenRowRetirement(t *testing.T) {
	h := newHarness(t, func(c *Config) {
		c.Faults = faults.Config{Seed: 7, TransientPerBurst: 1.0}
		c.FaultRetryLimit = 3
	})
	tm := h.c.tim
	h.at(0, func() { h.send(mem.NewRead(0, 64, 0, 0)) })
	h.run(50 * sim.Microsecond)
	if len(h.responses) != 1 {
		t.Fatalf("responses = %d, want 1 (access must complete)", len(h.responses))
	}
	if h.responses[0].Poisoned {
		t.Fatal("retired-row access must complete clean")
	}
	if got := h.c.st.retriedBursts.Value(); got != 3 {
		t.Fatalf("retriedBursts = %v, want 3", got)
	}
	if got := h.c.st.retiredRows.Value(); got != 1 {
		t.Fatalf("retiredRows = %v, want 1", got)
	}
	// Exponential backoff (1+2+4 tBURST slots) plus four bus accesses bound
	// the completion time from below.
	floor := tm.TRCD + tm.TCL + 4*tm.TBURST + 7*tm.TBURST
	if h.respTicks[0] < floor {
		t.Fatalf("replayed read at %s, below backoff floor %s", h.respTicks[0], floor)
	}
	// The retired row no longer faults: a second read is clean and fast.
	before := h.respTicks[0]
	h.at(h.k.Now()+sim.Nanosecond, func() { h.send(mem.NewRead(0, 64, 0, 0)) })
	h.run(10 * sim.Microsecond)
	if len(h.responses) != 2 {
		t.Fatalf("responses = %d, want 2", len(h.responses))
	}
	if got := h.c.st.retriedBursts.Value(); got != 3 {
		t.Fatalf("retired row still replaying: retriedBursts = %v", got)
	}
	_ = before
}

// A stuck-at row fails on every access; elsewhere the device is healthy.
func TestStuckRowFaults(t *testing.T) {
	h := newHarness(t, func(c *Config) {
		c.Faults = faults.Config{
			Seed:      7,
			StuckRows: []faults.StuckRow{{Rank: 0, Bank: 0, Row: 0, Kind: faults.Uncorrectable}},
		}
	})
	org := h.c.org
	otherRow := mem.Addr(org.RowBufferBytes * uint64(org.Banks())) // row 1, bank 0
	h.at(0, func() {
		h.send(mem.NewRead(0, 64, 0, 0)) // stuck row
		h.send(mem.NewRead(otherRow, 64, 0, 0))
	})
	h.run(10 * sim.Microsecond)
	if len(h.responses) != 2 {
		t.Fatalf("responses = %d", len(h.responses))
	}
	byAddr := map[mem.Addr]bool{}
	for _, r := range h.responses {
		byAddr[r.Addr] = r.Poisoned
	}
	if !byAddr[0] {
		t.Fatal("stuck row not poisoned")
	}
	if byAddr[otherRow] {
		t.Fatal("healthy row poisoned")
	}
}

// Identical seeds reproduce identical fault histories bit for bit; a
// different seed diverges.
func TestFaultSeededReproducibility(t *testing.T) {
	type counts struct{ corrected, uncorrected, retried, retired, scrubs float64 }
	runOnce := func(seed uint64) counts {
		k := sim.NewKernel()
		cfg := DefaultConfig(dram.DDR3_1600_x64())
		cfg.FrontendLatency = 0
		cfg.BackendLatency = 0
		cfg.ReadBufferSize = 64
		cfg.Faults = faults.Config{
			Seed:                  seed,
			CorrectablePerBurst:   0.2,
			UncorrectablePerBurst: 0.05,
			TransientPerBurst:     0.1,
		}
		cfg.FaultRetryLimit = 2
		h2 := newHarnessWith(k, cfg)
		h2.at(0, func() {
			for i := 0; i < 64; i++ {
				h2.send(mem.NewRead(mem.Addr(i*4096), 64, 0, 0))
			}
			h2.c.Drain()
		})
		h2.run(200 * sim.Microsecond)
		if len(h2.responses) != 64 {
			t.Fatalf("responses = %d, want 64", len(h2.responses))
		}
		s := h2.c.st
		return counts{
			corrected:   s.correctedErrors.Value(),
			uncorrected: s.uncorrectedErrors.Value(),
			retried:     s.retriedBursts.Value(),
			retired:     s.retiredRows.Value(),
			scrubs:      s.scrubWrites.Value(),
		}
	}
	a, b := runOnce(1234), runOnce(1234)
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	if a.corrected == 0 && a.uncorrected == 0 && a.retried == 0 {
		t.Fatalf("fault rates produced no events: %+v", a)
	}
	c := runOnce(4321)
	if a == c {
		t.Fatalf("different seeds produced identical histories: %+v", a)
	}
}

// newHarnessWith builds a harness around an existing kernel and config.
func newHarnessWith(k *sim.Kernel, cfg Config) *harness {
	c, err := NewController(k, cfg, stats.NewRegistry("t"), "mc")
	if err != nil {
		panic(err)
	}
	h := &harness{k: k, c: c}
	h.port = mem.NewRequestPort("gen", h, k)
	mem.Connect(h.port, c.Port())
	return h
}

// New RAS config fields are validated.
func TestFaultConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.ECCCorrectionLatency = -1 },
		func(c *Config) { c.FaultRetryLimit = -1 },
		func(c *Config) { c.Faults.CorrectablePerBurst = 1.5 },
		func(c *Config) { c.Faults.TransientPerBurst = -0.1 },
		func(c *Config) {
			c.Faults.CorrectablePerBurst = 0.6
			c.Faults.UncorrectablePerBurst = 0.6
		},
		func(c *Config) { c.Faults.StuckRows = []faults.StuckRow{{Rank: -1}} },
		func(c *Config) { c.Faults.StuckRows = []faults.StuckRow{{Kind: faults.OK}} },
	}
	for i, mut := range bad {
		cfg := DefaultConfig(dram.DDR3_1600_x64())
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}
