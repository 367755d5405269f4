package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The command listener sees every command the controller issues, and a
// DRAMPower-style analysis of that trace agrees with the aggregate Micron
// computation — two power models plugged into the same controller, as the
// paper's §III-E envisions.
func TestCommandTraceMatchesAggregatePower(t *testing.T) {
	var trace power.CommandTrace
	k := sim.NewKernel()
	spec := dram.DDR3_1600_x64()
	cfg := DefaultConfig(spec)
	cfg.FrontendLatency = 0
	cfg.BackendLatency = 0
	hub := obs.NewHub()
	hub.Attach(obs.CommandFunc(trace.Record))
	cfg.Probes = hub
	reg := stats.NewRegistry("t")
	c, err := NewController(k, cfg, reg, "mc")
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{k: k, c: c}
	h.port = mem.NewRequestPort("gen", h, k)
	mem.Connect(h.port, c.Port())

	// A few hundred row-hit-heavy reads plus some writes.
	n := 300
	sent := 0
	var inject func()
	inject = func() {
		if h.blocked == nil && sent < n {
			addr := mem.Addr(sent * 64)
			if sent%5 == 0 {
				h.send(mem.NewWrite(addr+1<<20, 64, 0, 0))
			} else {
				h.send(mem.NewRead(addr, 64, 0, 0))
			}
			sent++
		}
		if sent < n || h.blocked != nil {
			k.Schedule(sim.NewEvent("inject", inject), k.Now()+20*sim.Nanosecond)
		}
	}
	k.Schedule(sim.NewEvent("inject", inject), 0)
	for i := 0; i < 5000 && !(sent >= n && c.Quiescent()); i++ {
		if sent >= n {
			c.Drain()
		}
		k.RunUntil(k.Now() + sim.Microsecond)
	}
	if sent < n || !c.Quiescent() {
		t.Fatal("run did not complete")
	}

	// Command counts line up with the controller's own statistics.
	var acts, rds, wrs, refs int
	for _, cmd := range trace.Commands() {
		switch cmd.Kind {
		case power.CmdACT:
			acts++
		case power.CmdRD:
			rds++
		case power.CmdWR:
			wrs++
		case power.CmdREF:
			refs++
		}
	}
	act := c.PowerStats()
	if uint64(acts) != act.Activations {
		t.Fatalf("trace ACTs %d vs stats %d", acts, act.Activations)
	}
	if uint64(rds) != act.ReadBursts || uint64(wrs) != act.WriteBursts {
		t.Fatalf("trace RD/WR %d/%d vs stats %d/%d", rds, wrs, act.ReadBursts, act.WriteBursts)
	}
	if uint64(refs) != act.Refreshes {
		t.Fatalf("trace REFs %d vs stats %d", refs, act.Refreshes)
	}

	// Power agreement between the two methodologies.
	fromTrace := power.AnalyzeCommands(spec, trace.Commands(), act.Elapsed).TotalMW()
	fromStats := power.Compute(spec, act).TotalMW()
	if ratio := fromTrace / fromStats; math.Abs(ratio-1) > 0.15 {
		t.Fatalf("trace power %v mW vs aggregate %v mW (ratio %v)", fromTrace, fromStats, ratio)
	}
}

// The two power models agree on every term of the breakdown, within 1 % of
// the larger, on every refresh discipline: the aggregate one bills from
// counts (refresh at the blackout the device declares), the trace one from
// the commands. Two zeros agree, which covers writes on this read-only
// traffic. Traffic is the refresh ablation's: spaced random reads across
// several refresh intervals.
func TestRefreshPowerAgreesAcrossModels(t *testing.T) {
	specs := []dram.Spec{}
	for _, std := range []string{"ddr3", "ddr4", "ddr5", "lpddr5"} {
		spec, err := dram.ByName(std)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	perBank := specs[0]
	perBank.Name += "-REFpb"
	perBank.Refresh = dram.RefPerBank
	for _, spec := range append(specs, perBank) {
		t.Run(spec.Name, func(t *testing.T) {
			h, trace := tracedHarness(t, spec)
			rng := rand.New(rand.NewSource(17))
			end := 5 * spec.Timing.TREFI
			for at := sim.Tick(0); at < end; at += 100 * sim.Nanosecond {
				addr := mem.Addr(rng.Intn(1<<26)) &^ 63
				h.at(at, func() { h.send(mem.NewRead(addr, 64, 0, 0)) })
			}
			h.k.RunUntil(end)
			act := h.c.PowerStats()
			if act.Refreshes == 0 {
				t.Fatal("no refresh in the window")
			}
			fromStats := power.Compute(spec, act)
			fromTrace := power.AnalyzeCommands(spec, trace.Commands(), act.Elapsed)
			for _, term := range []struct {
				name         string
				stats, trace float64
			}{
				{"background", fromStats.BackgroundMW, fromTrace.BackgroundMW},
				{"act/pre", fromStats.ActPreMW, fromTrace.ActPreMW},
				{"read", fromStats.ReadMW, fromTrace.ReadMW},
				{"write", fromStats.WriteMW, fromTrace.WriteMW},
				{"refresh", fromStats.RefreshMW, fromTrace.RefreshMW},
			} {
				if math.Abs(term.stats-term.trace) > 0.01*math.Max(term.stats, term.trace) {
					t.Errorf("%s power: aggregate %.2f mW vs trace %.2f mW", term.name, term.stats, term.trace)
				}
			}
		})
	}
}

// Without a listener the controller pays nothing (nil hook fast path).
func TestNoListenerByDefault(t *testing.T) {
	h := newHarness(t, nil)
	h.at(0, func() { h.send(mem.NewRead(0, 64, 0, 0)) })
	h.run(sim.Microsecond)
	if len(h.responses) != 1 {
		t.Fatal("baseline path broken")
	}
}
