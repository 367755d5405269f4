package experiments

import (
	"testing"
	"time"

	"repro/internal/system"
)

// maxPointEvents bounds the kernel events any one shipped point executes,
// about 1.4x today's largest (`paper -figure speedup`'s cycle-model
// hmc16/reads/25%load, 3.56 M events and a quarter of a second on the ledger
// host).
const maxPointEvents = 5_000_000

// TestShippedPointsStaySmall pins the measurement the sweep and recovery
// machinery is sized on: every study `paper` exposes, at its default size, is
// a list of points each of which runs for a fraction of a second. That is why
// a sweep is a loop in one process — no job farm, no worker pool, no
// mid-point checkpoints — and why a failed run is resumed by hand rather than
// retried. The gate is the deterministic quantity, kernel events per point;
// host seconds are logged (-v) beside it, per point and per study. Running
// every point rather than a chosen few keeps the test from guessing which is
// largest: the whole evaluation is about three seconds.
func TestShippedPointsStaySmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole evaluation at default size")
	}
	type cost struct {
		points, events uint64
		host           time.Duration
		largest        string
		largestEvents  uint64
		largestHost    time.Duration
	}
	var c cost
	r := Runner{ran: func(name string, kind system.Kind, events uint64, host time.Duration) {
		c.points++
		c.events += events
		c.host += host
		t.Logf("    %-44s %-6s %8d events %6.3f s", name, kind, events, host.Seconds())
		if events > c.largestEvents {
			c.largest, c.largestEvents, c.largestHost = name+" ("+kind.String()+")", events, host
		}
	}}
	sweep := func(spec func(uint64) SweepSpec) func() error {
		return func() error { _, err := r.RunSweep(spec(SweepRequests)); return err }
	}
	latency := func(spec func(uint64) LatencySpec) func() error {
		return func() error { _, err := r.RunLatency(spec(20000)); return err }
	}
	for _, study := range []struct {
		name string // the command line whose defaults these are
		run  func() error
	}{
		{"paper -figure 3", sweep(Fig3Spec)},
		{"paper -figure 4", sweep(Fig4Spec)},
		{"paper -figure 5", sweep(Fig5Spec)},
		{"paper -ablation all", func() error { _, err := r.RunAblations("all", SweepRequests); return err }},
		{"paper -figure 6", latency(Fig6Spec)},
		{"paper -figure 7", latency(Fig7Spec)},
		{"paper -figure power", func() error { _, err := r.RunPowerComparison(5000); return err }},
		{"paper -figure savings", func() error { _, err := r.RunPowerSavings(5000); return err }},
		{"validate -full (fault sweep)", func() error { _, err := r.RunFaultSweep(DefaultFaultSweep(5000)); return err }},
		{"paper -figure speedup", func() error { _, err := r.RunSpeedup(100000, nil); return err }},
		{"paper -figure 8", func() error { _, err := r.RunFig8(5000); return err }},
		{"paper -figure 9", func() error { _, err := r.RunFig9(ExploreMemOps, ExploreCores); return err }},
	} {
		c = cost{}
		if err := study.run(); err != nil {
			t.Fatalf("%s: %v", study.name, err)
		}
		t.Logf("%-28s %3d points, %9d events in %5.3f s; largest %-40s %8d events, %5.3f s",
			study.name, c.points, c.events, c.host.Seconds(), c.largest, c.largestEvents, c.largestHost.Seconds())
		if c.points == 0 {
			t.Errorf("%s: no point reported its cost", study.name)
		}
		if c.largestEvents > maxPointEvents {
			t.Errorf("%s: point %s executed %d kernel events, more than %d: sweeps are one process because no shipped point runs for more than a fraction of a second — re-open ROADMAP item 9 before raising this bound",
				study.name, c.largest, c.largestEvents, maxPointEvents)
		}
	}
}
