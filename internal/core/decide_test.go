package core

import (
	"fmt"
	"testing"

	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trafficgen"
)

// earlyProbe counts the scheduling decisions taken before the slot the
// controller re-arms for: the previous burst's data end less tRP + tRCD +
// tCL, the headroom that lets a row miss still meet the bus.
type earlyProbe struct {
	k                *sim.Kernel
	headroom         sim.Tick
	prevEnd          sim.Tick
	decisions, early int
}

func (p *earlyProbe) HandleEvent(ev obs.Event) {
	b, ok := ev.(obs.BurstScheduled)
	if !ok {
		return
	}
	if p.decisions > 0 && p.k.Now() < p.prevEnd-p.headroom {
		p.early++
	}
	p.decisions++
	p.prevEnd = b.DataEnd
}

// A write drained frees a write-queue slot, and the controller retries the
// requestor refused for it only after re-arming its next decision, as gem5's
// DRAMCtrl does: the request the retry admits in the call then finds that
// decision set for its slot instead of pulling it to now, where FR-FCFS
// would choose from a queue it should not yet close. Saturating random
// traffic, write-only and half reads, takes no decision early and completes.
func TestDecisionsWaitForTheBus(t *testing.T) {
	const reqs = 20000
	for _, reads := range []int{0, 50} {
		t.Run(fmt.Sprintf("reads=%d%%", reads), func(t *testing.T) {
			k := sim.NewKernel()
			cfg := DefaultConfig(dram.DDR3_1333_8x8())
			tim := cfg.Device.Timing
			probe := &earlyProbe{k: k, headroom: tim.TRP + tim.TRCD + tim.TCL}
			cfg.Probes = obs.NewHub()
			cfg.Probes.Attach(probe)
			reg := stats.NewRegistry("t")
			c, err := NewController(k, cfg, reg, "mc")
			if err != nil {
				t.Fatal(err)
			}
			gen, err := trafficgen.New(k, trafficgen.Config{RequestBytes: 64, MaxOutstanding: 32, Count: reqs},
				&trafficgen.Random{Start: 0, End: 256 << 20, Align: 64, ReadPercent: reads, Seed: 1}, reg, "gen")
			if err != nil {
				t.Fatal(err)
			}
			mem.Connect(gen.Port(), c.Port())
			gen.Start()
			k.RunUntil(sim.Second)
			c.Drain()
			k.RunUntil(2 * sim.Second)
			if !gen.Done() || !c.Quiescent() {
				t.Fatalf("%d of %d requests issued, generator done %v, controller quiescent %v",
					gen.Issued(), reqs, gen.Done(), c.Quiescent())
			}
			t.Logf("%d of %d decisions taken before the previous burst's data end less tRP+tRCD+tCL",
				probe.early, probe.decisions)
			if probe.early != 0 {
				t.Fatalf("%d of %d decisions taken early", probe.early, probe.decisions)
			}
		})
	}
}
