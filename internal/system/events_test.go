package system

import (
	"fmt"
	"testing"

	"repro/internal/dram"
	"repro/internal/sim"
	"repro/internal/trafficgen"
)

// Events per request are pinned so that a requestor re-arming its tick at
// the tick a response freed its slot fails here, not only in a ledger row.
// A saturated generator answered at a tick issues inside the response
// (sim.Kernel.Alone), so a request costs the controller's two events: its
// scheduling decision and its response. A paced generator's tick is pending
// when its responses arrive (one every 64 ns is below either page policy's
// service rate), so it keeps its third event: the control. A
// four-core full system's cores issue the same way.
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
}
