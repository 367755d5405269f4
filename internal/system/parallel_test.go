package system

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/dram"
	"repro/internal/sim"
	"repro/internal/trafficgen"
	"repro/internal/xbar"
)

// shardedConfig builds a two-generator, multi-channel sharded system with a
// deterministic mixed read/write workload.
func shardedConfig(kind Kind, channels int, closed bool) ShardedConfig {
	spec := dram.DDR3_1600_x64()
	gen := trafficgen.Config{
		RequestBytes:   spec.Org.BurstBytes(),
		MaxOutstanding: 16,
		Count:          400,
	}
	g0, g1 := gen, gen
	g0.RequestorID = 0
	g1.RequestorID = 1
	return ShardedConfig{
		Kind:       kind,
		Spec:       spec,
		Mapping:    dram.RoRaBaCoCh,
		ClosedPage: closed,
		Channels:   channels,
		Xbar:       xbar.DefaultConfig(),
		Gens:       []trafficgen.Config{g0, g1},
		Patterns: []trafficgen.Pattern{
			&trafficgen.Linear{Start: 0, End: 1 << 24, Step: 64, ReadPercent: 80, Seed: 11},
			&trafficgen.Random{Start: 0, End: 1 << 24, Align: 64, ReadPercent: 60, Seed: 23},
		},
	}
}

// shardedStats runs the rig to completion and returns the full stats dump
// (reads, writes, row hits, latency histograms — everything).
func shardedStats(t *testing.T, cfg ShardedConfig) string {
	t.Helper()
	rig, err := NewShardedRig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rig.Run(50 * sim.Millisecond) {
		t.Fatal("sharded rig did not complete")
	}
	var buf bytes.Buffer
	if err := rig.Reg.DumpJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// Repeated runs with identical configuration are bit-identical.
func TestShardedRepeatable(t *testing.T) {
	a := shardedStats(t, shardedConfig(EventBased, 2, false))
	b := shardedStats(t, shardedConfig(EventBased, 2, false))
	if a != b {
		t.Fatal("two identical sharded runs diverged")
	}
}

// The sharded system actually moves traffic: every generator completes and
// every channel sees work.
func TestShardedSpreadsWork(t *testing.T) {
	rig, err := NewShardedRig(shardedConfig(EventBased, 4, false))
	if err != nil {
		t.Fatal(err)
	}
	if !rig.Run(50 * sim.Millisecond) {
		t.Fatal("did not complete")
	}
	for i, g := range rig.Gens {
		if !g.Done() {
			t.Fatalf("gen%d not done", i)
		}
	}
	for i, c := range rig.Ctrls {
		if c.Bandwidth() <= 0 {
			t.Fatalf("mc%d saw no traffic", i)
		}
	}
	if rig.AggregateBandwidth() <= 0 || rig.AvgBusUtilisation() <= 0 {
		t.Fatal("aggregate stats empty")
	}
	for _, l := range rig.Links {
		if !l.Quiescent() {
			t.Fatal("link not quiescent after completed run")
		}
	}
}

// A sharded run with one channel degenerates to plain serial simulation and
// still completes.
func TestShardedSingleChannelSerial(t *testing.T) {
	rig, err := NewShardedRig(shardedConfig(EventBased, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	if !rig.Run(50 * sim.Millisecond) {
		t.Fatal("did not complete")
	}
}

// A channel kernel that trips its watchdog fails the Step with its own
// *sim.WatchdogError, as every other topology does.
func TestShardedWatchdogIsAnError(t *testing.T) {
	rig, err := NewShardedRig(shardedConfig(EventBased, 4, false))
	if err != nil {
		t.Fatal(err)
	}
	rig.Chans[1].SetWatchdog(sim.Watchdog{MaxEvents: 100})
	s, err := rig.NewSession("", rig.Front.Now()+50*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	for {
		done, err := s.Step()
		if done {
			t.Fatal("run completed through a 100-event watchdog")
		}
		if err != nil {
			var wd *sim.WatchdogError
			if !errors.As(err, &wd) {
				t.Fatalf("Step returned %T (%v), want a *sim.WatchdogError", err, err)
			}
			return
		}
	}
}
