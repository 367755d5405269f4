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
// A saturated generator answered at a tick defers its tick to the end of the
// response (sim.Kernel.Defer), where it fires from the ring uncounted, so a
// request costs the controller's two events: its
// scheduling decision and its response. A random mix costs less: a write's
// acknowledgement often leaves in a respond loop that sends others too. A paced
// generator's tick is pending when its responses arrive (one every 64 ns is
// below either page policy's service rate), so its tick is an event; the
// idle controller it sends to defers its decision to that tick's end, so the
// paced control costs two events too: the tick and the response. A four-core
// full system's cores issue the same way.
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
			if paced < 1.99 || paced > 2.01 {
				t.Errorf("paced linear reads: %.4f events per request, want 2.00 ± 0.01", paced)
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

	// Two dramctrl runs whose generator the controller refuses: -pattern
	// linear -requests 3000, where core.DefaultConfig's 20-burst read buffer
	// refuses the generator's 32 outstanding reads (2,980 retries), and
	// -spec DDR3-1333-8x8 -pattern random -reads 0 -requests 20000, where the
	// write queue does. A retry resends the refused request in its call and
	// the generator's tick, re-armed due now, is deferred to the end of the
	// event that freed the slot (sim.Kernel.Defer), so a retry costs no event
	// of its own: both cost the controller's two events per request.
	for _, row := range []struct {
		name    string
		spec    dram.Spec
		reqs    uint64
		pattern trafficgen.Pattern
	}{
		{"backpressured", dram.DDR3_1600_x64(), 3000, &trafficgen.Linear{Start: 0, End: 1 << 28, Step: 64, ReadPercent: 100, Seed: 1}},
		{"writeonly", dram.DDR3_1333_8x8(), 20000, &trafficgen.Random{Start: 0, End: 1 << 28, Align: 64, ReadPercent: 0, Seed: 1}},
	} {
		t.Run(row.name, func(t *testing.T) {
			m, err := NewMemory(MemoryConfig{Root: "dramctrl", Kind: EventBased, Channels: 1,
				Event: core.DefaultConfig(row.spec), Widest: 64})
			if err != nil {
				t.Fatal(err)
			}
			gen, err := trafficgen.New(m.K, trafficgen.Config{RequestBytes: 64, MaxOutstanding: 32, Count: row.reqs},
				row.pattern, m.Reg, "gen")
			if err != nil {
				t.Fatal(err)
			}
			mem.Connect(gen.Port(), m.FrontPort("gen"))
			if err := m.Session(gen).Run(sim.Second); err != nil || !gen.Done() {
				t.Fatalf("%s did not complete: %v", row.name, err)
			}
			if perReq := float64(m.K.EventsExecuted()) / float64(row.reqs); perReq < 1.99 || perReq > 2.01 {
				t.Errorf("%s: %.4f events per request, want 2.00 ± 0.01 (%d events)", row.name, perReq, m.K.EventsExecuted())
			}
		})
	}
}
