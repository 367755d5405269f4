package system

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

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
}

// TestEventCensus pins the events per request of every event name for five
// event-model shapes (testdata/events_by_name.txt): a DRAM-aware read
// stream, a saturated 50 % random mix and linear reads paced at 48 ns on one
// controller, the four-core Fig. 8 system, and the random mix over four
// channels behind a crossbar on one kernel. A change that moves the event
// count shows here which event moved; the golden changes with it.
func TestEventCensus(t *testing.T) {
	const reqs = 2000
	spec := dram.DDR3_1333_8x8()
	burst := spec.Org.BurstBytes()
	dec, err := dram.NewDecoder(spec.Org, dram.RoRaBaCoCh, 1)
	if err != nil {
		t.Fatal(err)
	}
	mix := func() trafficgen.Pattern {
		return &trafficgen.Random{Start: 0, End: 256 << 20, Align: burst, ReadPercent: 50, Seed: 1}
	}
	rig := func(itt sim.Tick, pattern trafficgen.Pattern) *sim.Kernel {
		t.Helper()
		rig, err := NewTrafficRig(RigConfig{
			Kind: EventBased, Spec: spec, Mapping: dram.RoRaBaCoCh,
			Gen:     trafficgen.Config{RequestBytes: burst, MaxOutstanding: 32, InterTransaction: itt, Count: reqs},
			Pattern: pattern,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rig.Run(sim.Second) {
			t.Fatal("traffic rig did not complete")
		}
		return rig.K
	}
	full := func() *sim.Kernel {
		t.Helper()
		fs, err := NewFullSystem(fig8Config(reqs / 4))
		if err != nil {
			t.Fatal(err)
		}
		if !fs.Run(sim.Second) {
			t.Fatal("full system did not complete")
		}
		return fs.K
	}
	channels := func() *sim.Kernel {
		t.Helper()
		m, err := NewMemory(memoryDescription(EventBased, 4, true))
		if err != nil {
			t.Fatal(err)
		}
		gen, err := trafficgen.New(m.K, trafficgen.Config{RequestBytes: 64, MaxOutstanding: 32, Count: reqs}, mix(), m.Reg, "gen")
		if err != nil {
			t.Fatal(err)
		}
		mem.Connect(gen.Port(), m.FrontPort("gen"))
		if err := m.Session(gen).Run(sim.Second); err != nil || !gen.Done() {
			t.Fatalf("four channels did not complete: %v", err)
		}
		return m.K
	}
	shapes := []struct {
		name string
		run  func() *sim.Kernel
	}{
		{"stream", func() *sim.Kernel {
			return rig(0, &trafficgen.DRAMAware{Decoder: dec, StrideBursts: 8, Banks: 4, ReadPercent: 100})
		}},
		{"mix", func() *sim.Kernel { return rig(0, mix()) }},
		{"sparse", func() *sim.Kernel {
			return rig(48*sim.Nanosecond, &trafficgen.Linear{Start: 0, End: 64 << 20, Step: burst, ReadPercent: 100})
		}},
		{"fig8", full},
		{"4ch", channels},
	}
	var sb strings.Builder
	sb.WriteString("# events per request by event name (TestEventCensus, internal/system)\n")
	for _, s := range shapes {
		census := s.run().Census()
		names := make([]string, 0, len(census))
		for name := range census {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			fmt.Fprintf(&sb, "%-7s %-28s %.4f\n", s.name, name, float64(census[name])/reqs)
		}
	}
	matchGolden(t, []byte(sb.String()), filepath.Join("testdata", "events_by_name.txt"))
}
