package core

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
)

// withRefresh makes the harness's DDR3 device declare the given refresh
// discipline.
func withRefresh(kind dram.RefreshKind) func(*Config) {
	return func(c *Config) { c.Device.Refresh = kind }
}

// Per-bank refresh fires banks-per-rank times more often.
func TestPerBankRefreshCadence(t *testing.T) {
	h := newHarness(t, withRefresh(dram.RefPerBank))
	tm := h.c.tim
	h.k.RunUntil(10 * tm.TREFI)
	got := h.c.st.refreshes.Value()
	want := 10.0 * float64(h.c.org.BanksPerRank)
	if got < want*0.9 || got > want*1.1 {
		t.Fatalf("per-bank refreshes = %v, want ~%v", got, want)
	}
}

// The paper: all-bank refresh "causes big latency spikes". Per-bank refresh
// softens the worst case because seven of eight banks keep serving.
func TestPerBankRefreshSoftensLatencySpike(t *testing.T) {
	run := func(kind dram.RefreshKind) sim.Tick {
		h := newHarness(t, withRefresh(kind))
		tm := h.c.tim
		// Spaced random-bank reads across several refresh intervals.
		n := int(3 * tm.TREFI / (100 * sim.Nanosecond))
		for i := 0; i < n; i++ {
			i := i
			h.at(sim.Tick(i)*100*sim.Nanosecond, func() {
				// Rotate banks so refresh collisions are inevitable.
				addr := mem.Addr(i%8)*1024 + mem.Addr(i/8)*8192
				h.send(mem.NewRead(addr, 64, 0, 0))
			})
		}
		h.k.RunUntil(4 * tm.TREFI)
		if len(h.respTicks) != n {
			t.Fatalf("responses = %d, want %d", len(h.respTicks), n)
		}
		var worst sim.Tick
		for i, tick := range h.respTicks {
			lat := tick - h.responses[i].IssueTick
			if lat > worst {
				worst = lat
			}
		}
		return worst
	}
	allBank := run(dram.RefAllBank)
	perBank := run(dram.RefPerBank)
	tm := dram.DDR3_1600_x64().Timing
	// The all-bank spike must reflect tRFC; per-bank must be clearly softer.
	if allBank < tm.TRFC {
		t.Fatalf("all-bank worst latency %s below tRFC %s — no spike observed", allBank, tm.TRFC)
	}
	if perBank >= allBank {
		t.Fatalf("per-bank worst latency %s not below all-bank %s", perBank, allBank)
	}
}

// Multi-rank refresh is staggered: the two ranks never start their refresh
// at the same tick, observed through the command-trace hook.
func TestRefreshStaggerAcrossRanks(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig(dram.DDR3_1600_x64_2R())
	refRanks := map[sim.Tick][]int{}
	total := 0
	refHub := obs.NewHub()
	refHub.Attach(obs.CommandFunc(func(c power.Command) {
		if c.Kind == power.CmdREF {
			refRanks[c.At] = append(refRanks[c.At], c.Rank)
			total++
		}
	}))
	cfg.Probes = refHub
	reg := stats.NewRegistry("t")
	if _, err := NewController(k, cfg, reg, "mc"); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(5 * cfg.Device.Timing.TREFI)
	if total < 8 {
		t.Fatalf("too few refreshes observed: %d", total)
	}
	for at, ranks := range refRanks {
		if len(ranks) > 1 {
			t.Fatalf("ranks %v refreshed simultaneously at %s", ranks, at)
		}
	}
}

// Fault scrubbing must never violate refresh timing: with every read burst
// taking a correctable error (so every read also queues a demand-scrub
// writeback), no ACT/RD/WR command may land strictly inside any same-rank
// all-bank refresh window [start, start+tRFC].
func TestScrubRespectsRefreshTiming(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig(dram.DDR3_1600_x64())
	cfg.FrontendLatency = 0
	cfg.BackendLatency = 0
	cfg.ReadBufferSize = 64
	cfg.Faults = faults.Config{Seed: 11, CorrectablePerBurst: 1.0}
	tm := cfg.Device.Timing

	type window struct{ start, end sim.Tick }
	refWindows := map[int][]window{}
	type cmdAt struct {
		kind power.CommandKind
		rank int
		at   sim.Tick
	}
	var cmds []cmdAt
	cmdHub := obs.NewHub()
	cmdHub.Attach(obs.CommandFunc(func(c power.Command) {
		switch c.Kind {
		case power.CmdREF:
			refWindows[c.Rank] = append(refWindows[c.Rank], window{c.At, c.At + tm.TRFC})
		case power.CmdACT, power.CmdRD, power.CmdWR:
			cmds = append(cmds, cmdAt{c.Kind, c.Rank, c.At})
		}
	}))
	cfg.Probes = cmdHub

	h := &harness{k: k}
	c, err := NewController(k, cfg, stats.NewRegistry("t"), "mc")
	if err != nil {
		t.Fatal(err)
	}
	h.c = c
	h.port = mem.NewRequestPort("gen", h, k)
	mem.Connect(h.port, c.Port())

	// Reads spread across several refresh intervals; each one spawns a scrub
	// write that drains under drain mode at the end.
	n := int(3 * tm.TREFI / (200 * sim.Nanosecond))
	for i := 0; i < n; i++ {
		i := i
		h.at(sim.Tick(i)*200*sim.Nanosecond, func() {
			addr := mem.Addr(i%8)*1024 + mem.Addr(i/8)*8192
			h.send(mem.NewRead(addr, 64, 0, 0))
		})
	}
	h.at(3*tm.TREFI+tm.TREFI/2, func() { h.c.Drain() })
	h.run(5 * tm.TREFI)

	if got := h.c.st.scrubWrites.Value(); got == 0 {
		t.Fatal("no scrub writebacks generated")
	}
	if got := h.c.st.bytesWritten.Value(); got == 0 {
		t.Fatal("scrubs never drained to the array")
	}
	if len(refWindows) == 0 {
		t.Fatal("no refreshes observed")
	}
	for _, cmd := range cmds {
		for _, w := range refWindows[cmd.rank] {
			if cmd.at > w.start && cmd.at < w.end {
				t.Fatalf("%v on rank %d at %s lands inside refresh window [%s, %s]",
					cmd.kind, cmd.rank, cmd.at, w.start, w.end)
			}
		}
	}
}
