package system

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trafficgen"
)

// Events per request are pinned so that a requestor re-arming its tick at
// the tick a response freed its slot fails here, not only in a ledger row.
// A saturated generator answered at a tick issues inside the response
// (sim.Kernel.Alone), so a request costs the controller's two events: its
// scheduling decision and its response. A random mix costs less: a write
// issued inside a response is acknowledged in the same respond loop. A paced
// generator's tick is pending when its responses arrive (one every 64 ns is
// below either page policy's service rate), so it keeps its third event: the
// control. A four-core full system's cores issue the same way.
func TestEventsPerRequest(t *testing.T) {
	const reqs = 2000
	spec := dram.DDR3_1333_8x8()
	burst := spec.Org.BurstBytes()
	dec, err := dram.NewDecoder(spec.Org, dram.RoRaBaCoCh, 1)
	if err != nil {
		t.Fatal(err)
	}
	traffic := func(closed bool, itt sim.Tick, pattern trafficgen.Pattern) float64 {
		t.Helper()
		rig, err := NewTrafficRig(RigConfig{
			Kind: EventBased, Spec: spec, Mapping: dram.RoRaBaCoCh, ClosedPage: closed,
			Gen:     trafficgen.Config{RequestBytes: burst, MaxOutstanding: 32, InterTransaction: itt, Count: reqs},
			Pattern: pattern,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rig.Run(sim.Second) {
			t.Fatal("traffic rig did not complete")
		}
		return float64(rig.K.EventsExecuted()) / reqs
	}
	for _, closed := range []bool{false, true} {
		t.Run(fmt.Sprintf("closed=%v", closed), func(t *testing.T) {
			stream := traffic(closed, 0, &trafficgen.DRAMAware{Decoder: dec, StrideBursts: 8, Banks: 4, ReadPercent: 100})
			if stream > 2.01 {
				t.Errorf("saturated stream: %.4f events per request, want at most 2.01", stream)
			}
			mix := traffic(closed, 0, &trafficgen.Random{Start: 0, End: 256 << 20, Align: burst, ReadPercent: 50, Seed: 1})
			if mix > 1.60 {
				t.Errorf("saturated random mix: %.4f events per request, want at most 1.60", mix)
			}
			paced := traffic(closed, 64*sim.Nanosecond, &trafficgen.Linear{Start: 0, End: 64 << 20, Step: burst, ReadPercent: 100})
			if paced < 2.99 || paced > 3.01 {
				t.Errorf("paced linear reads: %.4f events per request, want 3.00 ± 0.01", paced)
			}

			cfg := fig8Config(reqs / 4)
			cfg.ClosedPage = closed
			fs, err := NewFullSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !fs.Run(sim.Second) {
				t.Fatal("full system did not complete")
			}
			if perOp := float64(fs.K.EventsExecuted()) / reqs; perOp > 7.1 {
				t.Errorf("four-core full system: %.4f events per memory operation, want at most 7.1", perOp)
			}
		})
	}

	// The back-pressured control is dramctrl -pattern linear -requests 3000:
	// core.DefaultConfig's 20-burst read buffer refuses the generator's 32
	// outstanding reads, and each retry re-arms the generator's tick, so a
	// request costs a third event (8,982 events, 2,980 retries). ROADMAP
	// 23(b), issuing inside the retry call, is the change expected to bring
	// this toward 2.0; no ledger workload is refused often enough to show it.
	t.Run("backpressured", func(t *testing.T) {
		const reqs = 3000
		m, err := NewMemory(MemoryConfig{Root: "dramctrl", Kind: EventBased, Channels: 1,
			Event: core.DefaultConfig(dram.DDR3_1600_x64()), Widest: 64})
		if err != nil {
			t.Fatal(err)
		}
		gen, err := trafficgen.New(m.K, trafficgen.Config{RequestBytes: 64, MaxOutstanding: 32, Count: reqs},
			&trafficgen.Linear{Start: 0, End: 1 << 28, Step: 64, ReadPercent: 100, Seed: 1}, m.Reg, "gen")
		if err != nil {
			t.Fatal(err)
		}
		mem.Connect(gen.Port(), m.FrontPort("gen"))
		if err := m.Session(gen).Run(sim.Second); err != nil || !gen.Done() {
			t.Fatalf("back-pressured linear reads did not complete: %v", err)
		}
		if perReq := float64(m.K.EventsExecuted()) / reqs; perReq < 2.984 || perReq > 3.004 {
			t.Errorf("back-pressured linear reads: %.4f events per request, want 2.994 ± 0.01 (%d events)", perReq, m.K.EventsExecuted())
		}
	})
}
