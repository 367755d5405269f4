package core

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// newRankHarness builds a harness over the two-rank DDR3 preset.
func newRankHarness(t *testing.T, mutate func(*Config)) *harness {
	t.Helper()
	k := sim.NewKernel()
	cfg := DefaultConfig(dram.DDR3_1600_x64_2R())
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
	h := &harness{k: k, c: c}
	h.port = mem.NewRequestPort("gen", h, k)
	mem.Connect(h.port, c.Port())
	return h
}

// rankAddr returns an address decoding to the given rank/bank/row.
func rankAddr(t *testing.T, cfg Config, rank, bank int, row uint64) mem.Addr {
	t.Helper()
	dec, err := dram.NewDecoder(cfg.Device.Org, cfg.Mapping, cfg.Channels)
	if err != nil {
		t.Fatal(err)
	}
	return dec.Encode(dram.Coord{Rank: rank, Bank: bank, Row: row}, 0)
}

// Two ranks double the bank state: same bank index in different ranks holds
// different open rows concurrently.
func TestRanksHaveIndependentBankState(t *testing.T) {
	h := newRankHarness(t, nil)
	a0 := rankAddr(t, h.c.cfg, 0, 0, 5)
	a1 := rankAddr(t, h.c.cfg, 1, 0, 9)
	h.at(0, func() {
		h.send(mem.NewRead(a0, 64, 0, 0))
		h.send(mem.NewRead(a1, 64, 0, 0))
	})
	// Follow-ups to both rows: all hits if the rows coexist.
	h.at(2*sim.Microsecond, func() {
		h.send(mem.NewRead(a0+64, 64, 0, 0))
		h.send(mem.NewRead(a1+64, 64, 0, 0))
	})
	// Run past the second batch unconditionally (the controller goes
	// quiescent between the batches).
	h.k.RunUntil(10 * sim.Microsecond)
	if len(h.responses) != 4 {
		t.Fatalf("responses = %d", len(h.responses))
	}
	if h.c.st.readRowHits.Value() != 2 {
		t.Fatalf("row hits = %v, want 2 (one per rank)", h.c.st.readRowHits.Value())
	}
	if h.c.st.activations.Value() != 2 {
		t.Fatalf("activations = %v, want 2", h.c.st.activations.Value())
	}
}

// The tXAW activation window is per rank: alternating ranks sustains twice
// the activate rate of hammering one rank.
func TestActivationWindowPerRank(t *testing.T) {
	run := func(useBothRanks bool) sim.Tick {
		h := newRankHarness(t, func(c *Config) { c.Page = Closed })
		h.at(0, func() {
			for i := 0; i < 8; i++ {
				rank := 0
				if useBothRanks {
					rank = i % 2
				}
				// Distinct banks within each rank avoid same-bank tRC
				// serialisation; the XAW window is the binding constraint.
				bank := (i / 2) % h.c.org.BanksPerRank
				if !useBothRanks {
					bank = i % h.c.org.BanksPerRank
				}
				h.send(mem.NewRead(rankAddr(t, h.c.cfg, rank, bank, uint64(i)), 64, 0, 0))
			}
		})
		h.run(20 * sim.Microsecond)
		if len(h.responses) != 8 {
			t.Fatalf("responses = %d", len(h.responses))
		}
		return h.respTicks[len(h.respTicks)-1]
	}
	single := run(false)
	both := run(true)
	if both >= single {
		t.Fatalf("two ranks (%s) not faster than one (%s) under tXAW", both, single)
	}
}

// Refresh is per rank: both ranks refresh at the tREFI cadence.
func TestRefreshPerRank(t *testing.T) {
	h := newRankHarness(t, nil)
	tm := h.c.tim
	h.k.RunUntil(5 * tm.TREFI)
	got := h.c.st.refreshes.Value()
	if got < 8 || got > 12 { // 2 ranks x ~5 refreshes
		t.Fatalf("refreshes = %v, want ~10", got)
	}
}

// The write-to-read turnaround is tracked per rank: a read to the *other*
// rank does not pay the tWTR of a write to this rank.
func TestTurnaroundPerRank(t *testing.T) {
	// Same-rank case: read delayed by tWTR after the write's data.
	h := newRankHarness(t, func(c *Config) {
		c.WriteHighThresh = 0.05
		c.WriteLowThresh = 0
		c.MinWritesPerSwitch = 1
	})
	wAddr := rankAddr(t, h.c.cfg, 0, 0, 0)
	rSame := rankAddr(t, h.c.cfg, 0, 1, 0)
	rOther := rankAddr(t, h.c.cfg, 1, 1, 0)
	h.at(0, func() { h.send(mem.NewWrite(wAddr, 64, 0, 0)) })
	h.at(sim.Nanosecond, func() {
		h.send(mem.NewRead(rSame, 64, 0, 0))
		h.send(mem.NewRead(rOther, 64, 0, 0))
	})
	h.run(10 * sim.Microsecond)
	if len(h.responses) != 3 {
		t.Fatalf("responses = %d", len(h.responses))
	}
	// The other-rank read (served second on the shared bus) must not be
	// later than bus serialisation requires; the same-rank read pays tWTR.
	// Identify responses by address.
	var sameTick, otherTick sim.Tick
	for i, p := range h.responses {
		switch p.Addr {
		case rSame:
			sameTick = h.respTicks[i]
		case rOther:
			otherTick = h.respTicks[i]
		}
	}
	if otherTick >= sameTick {
		t.Fatalf("cross-rank read (%s) not earlier than same-rank read (%s) after a write",
			otherTick, sameTick)
	}
}

// Multi-rank traffic completes and conserves bytes under all page policies.
func TestMultiRankConservation(t *testing.T) {
	for _, page := range []PagePolicy{Open, OpenAdaptive, Closed, ClosedAdaptive} {
		page := page
		h := newRankHarness(t, func(c *Config) { c.Page = page })
		n := 64
		sent := 0
		var inject func()
		inject = func() {
			if h.blocked == nil && sent < n {
				i := sent
				addr := rankAddr(t, h.c.cfg, i%2, (i/2)%8, uint64(i/16))
				if i%3 == 0 {
					h.send(mem.NewWrite(addr, 64, 0, 0))
				} else {
					h.send(mem.NewRead(addr, 64, 0, 0))
				}
				sent++
			}
			if sent < n || h.blocked != nil {
				h.k.Schedule(sim.NewEvent("inject", inject), h.k.Now()+5*sim.Nanosecond)
			}
		}
		h.at(0, inject)
		h.at(50*sim.Microsecond, func() { h.c.Drain() })
		h.run(100 * sim.Microsecond)
		if len(h.responses) != n {
			t.Fatalf("%s: responses = %d, want %d", page, len(h.responses), n)
		}
		total := h.c.st.bytesRead.Value() + h.c.st.bytesWritten.Value() +
			h.c.st.servicedByWrQ.Value()*64
		// Merged writes reduce DRAM traffic; account via write bursts.
		if total < float64(n*64)-h.c.st.mergedWrBursts.Value()*64 {
			t.Fatalf("%s: bytes moved %v below issued", page, total)
		}
	}
}
