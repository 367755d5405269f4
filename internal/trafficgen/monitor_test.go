package trafficgen

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// buildMonitored wires gen -> monitor -> controller.
func buildMonitored(t *testing.T, count uint64) (*sim.Kernel, *Generator, *Monitor, *core.Controller) {
	t.Helper()
	k := sim.NewKernel()
	reg := stats.NewRegistry("t")
	ctrl, err := core.NewController(k, core.DefaultConfig(dram.DDR3_1600_x64()), reg, "mc")
	if err != nil {
		t.Fatal(err)
	}
	mon := NewMonitor(k, reg, "mon")
	gen, err := New(k, Config{RequestBytes: 64, MaxOutstanding: 8, Count: count},
		&Linear{Start: 0, End: 1 << 20, Step: 64, ReadPercent: 75, Seed: 4}, reg, "gen")
	if err != nil {
		t.Fatal(err)
	}
	mem.Connect(gen.Port(), mon.CPUPort())
	mem.Connect(mon.MemPort(), ctrl.Port())
	return k, gen, mon, ctrl
}

func TestMonitorTransparency(t *testing.T) {
	// With and without a monitor, timing must be identical.
	run := func(withMonitor bool) float64 {
		k := sim.NewKernel()
		reg := stats.NewRegistry("t")
		ctrl, err := core.NewController(k, core.DefaultConfig(dram.DDR3_1600_x64()), reg, "mc")
		if err != nil {
			t.Fatal(err)
		}
		gen, err := New(k, Config{RequestBytes: 64, MaxOutstanding: 8, Count: 500},
			&Linear{Start: 0, End: 1 << 20, Step: 64, ReadPercent: 100}, reg, "gen")
		if err != nil {
			t.Fatal(err)
		}
		if withMonitor {
			mon := NewMonitor(k, reg, "mon")
			mem.Connect(gen.Port(), mon.CPUPort())
			mem.Connect(mon.MemPort(), ctrl.Port())
		} else {
			mem.Connect(gen.Port(), ctrl.Port())
		}
		gen.Start()
		for i := 0; i < 1000 && !gen.Done(); i++ {
			k.RunUntil(k.Now() + sim.Microsecond)
		}
		if !gen.Done() {
			t.Fatal("not done")
		}
		return gen.ReadLatency().Mean()
	}
	if with, without := run(true), run(false); with != without {
		t.Fatalf("monitor perturbed timing: %v vs %v", with, without)
	}
}

func TestMonitorCapturesTrace(t *testing.T) {
	k, gen, mon, _ := buildMonitored(t, 200)
	gen.Start()
	for i := 0; i < 1000 && !gen.Done(); i++ {
		k.RunUntil(k.Now() + sim.Microsecond)
	}
	trace := mon.Trace()
	if len(trace) != 200 {
		t.Fatalf("trace records = %d", len(trace))
	}
	// Records are tick-sorted and match the linear pattern.
	for i := 1; i < len(trace); i++ {
		if trace[i].Tick < trace[i-1].Tick {
			t.Fatal("trace not sorted by tick")
		}
	}
	if trace[0].Addr != 0 || trace[1].Addr != 64 {
		t.Fatalf("addresses = %#x, %#x", uint64(trace[0].Addr), uint64(trace[1].Addr))
	}
	if mon.reqs.Value() != 200 || mon.resps.Value() != 200 {
		t.Fatalf("stats: reqs=%v resps=%v", mon.reqs.Value(), mon.resps.Value())
	}
}

// The captured trace round-trips through the text format and replays to the
// same DRAM traffic.
func TestCaptureAndReplayRoundTrip(t *testing.T) {
	k, gen, mon, ctrl := buildMonitored(t, 300)
	gen.Start()
	for i := 0; i < 1000 && !(gen.Done() && ctrl.Quiescent()); i++ {
		if gen.Done() {
			ctrl.Drain()
		}
		k.RunUntil(k.Now() + sim.Microsecond)
	}
	origBursts := ctrl.PowerStats().ReadBursts + ctrl.PowerStats().WriteBursts

	// Serialise and re-parse.
	var buf bytes.Buffer
	if err := FormatTrace(&buf, mon.Trace()); err != nil {
		t.Fatal(err)
	}
	recs, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 300 {
		t.Fatalf("parsed %d records", len(recs))
	}

	// Replay through a fresh controller: the DRAM traffic matches.
	k2 := sim.NewKernel()
	reg2 := stats.NewRegistry("t2")
	ctrl2, err := core.NewController(k2, core.DefaultConfig(dram.DDR3_1600_x64()), reg2, "mc")
	if err != nil {
		t.Fatal(err)
	}
	player := NewTracePlayer(k2, recs, 0)
	mem.Connect(player.Port(), ctrl2.Port())
	player.Start()
	for i := 0; i < 1000 && !(player.Done() && ctrl2.Quiescent()); i++ {
		if player.Done() {
			ctrl2.Drain()
		}
		k2.RunUntil(k2.Now() + sim.Microsecond)
	}
	replayBursts := ctrl2.PowerStats().ReadBursts + ctrl2.PowerStats().WriteBursts
	if replayBursts != origBursts {
		t.Fatalf("replay moved %d bursts, original %d", replayBursts, origBursts)
	}
}
