package system

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/sim"
	"repro/internal/trafficgen"
	"repro/internal/xbar"
)

func rigConfig(kind Kind, closed bool) RigConfig {
	spec := dram.DDR3_1600_x64()
	return RigConfig{
		Kind:       kind,
		Spec:       spec,
		Mapping:    dram.RoRaBaCoCh,
		ClosedPage: closed,
		Gen: trafficgen.Config{
			RequestBytes:   spec.Org.BurstBytes(),
			MaxOutstanding: 16,
			Count:          500,
		},
		Pattern: &trafficgen.Linear{Start: 0, End: 1 << 24, Step: 64, ReadPercent: 100},
	}
}

func TestTrafficRigBothKinds(t *testing.T) {
	for _, kind := range []Kind{EventBased, CycleBased} {
		rig, err := NewTrafficRig(rigConfig(kind, false))
		if err != nil {
			t.Fatal(err)
		}
		if !rig.Run(10 * sim.Millisecond) {
			t.Fatalf("%s rig did not complete", kind)
		}
		if rig.Ctrl.Bandwidth() <= 0 || rig.Ctrl.BusUtilisation() <= 0 {
			t.Fatalf("%s rig: no bandwidth recorded", kind)
		}
		if rig.Gen.ReadLatency().Count() != 500 {
			t.Fatalf("%s rig: %d latency samples", kind, rig.Gen.ReadLatency().Count())
		}
	}
}

// Sequential reads with an open page should beat a closed page on the same
// pattern — a sanity cross-check of rig plumbing and policy wiring.
func TestOpenBeatsClosedOnSequential(t *testing.T) {
	run := func(closed bool) float64 {
		rig, err := NewTrafficRig(rigConfig(EventBased, closed))
		if err != nil {
			t.Fatal(err)
		}
		if !rig.Run(10 * sim.Millisecond) {
			t.Fatal("did not complete")
		}
		return rig.Ctrl.BusUtilisation()
	}
	open, closed := run(false), run(true)
	if !(open > closed) {
		t.Fatalf("open page util %v not above closed %v on sequential reads", open, closed)
	}
}

func TestKindString(t *testing.T) {
	if EventBased.String() != "event" || CycleBased.String() != "cycle" {
		t.Fatal("kind names wrong")
	}
}

func TestMultiChannelRig(t *testing.T) {
	spec := dram.DDR3_1600_x64()
	gcfg := trafficgen.Config{RequestBytes: 64, MaxOutstanding: 32, Count: 1000}
	cfg := MultiChannelConfig{
		Kind:     EventBased,
		Spec:     spec,
		Mapping:  dram.RoRaBaCoCh,
		Channels: 4,
		Xbar:     xbar.Config{Latency: 2 * sim.Nanosecond, QueueDepth: 32},
		Gens:     []trafficgen.Config{gcfg},
		Patterns: []trafficgen.Pattern{
			&trafficgen.Linear{Start: 0, End: 1 << 24, Step: 64, ReadPercent: 100},
		},
	}
	rig, err := NewMultiChannelRig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rig.Run(10 * sim.Millisecond) {
		t.Fatal("multi-channel rig did not complete")
	}
	// All four channels saw traffic.
	for i, c := range rig.Ctrls {
		if c.PowerStats().ReadBursts == 0 {
			t.Fatalf("channel %d idle", i)
		}
	}
	if rig.AggregateBandwidth() <= 0 {
		t.Fatal("no aggregate bandwidth")
	}
}

func TestMultiChannelRejectsMismatchedGens(t *testing.T) {
	cfg := MultiChannelConfig{
		Spec: dram.DDR3_1600_x64(), Channels: 1,
		Xbar: xbar.DefaultConfig(),
		Gens: []trafficgen.Config{{RequestBytes: 64, MaxOutstanding: 1}},
	}
	if _, err := NewMultiChannelRig(cfg); err == nil {
		t.Fatal("mismatched gens/patterns accepted")
	}
}

func fullSystemConfig(cores int, kind Kind) MultiCoreConfig {
	spec := dram.DDR3_1600_x64()
	coreCfg := cpu.DefaultConfig()
	coreCfg.MemOps = 300
	return MultiCoreConfig{
		Cores: cores,
		Core:  coreCfg,
		Workload: func(id int) trafficgen.Pattern {
			return &cpu.Offset{
				Base:    0, // all cores share the address space
				Pattern: cpu.CannealWorkload(8<<20, int64(id)+1),
			}
		},
		L1: cache.Config{
			SizeBytes: 32 * 1024, Assoc: 2, LineBytes: 64,
			HitLatency: 1 * sim.Nanosecond, MSHRs: 6, WriteBufferDepth: 8,
		},
		LLC: cache.Config{
			SizeBytes: 1 << 20, Assoc: 8, LineBytes: 64,
			HitLatency: 12 * sim.Nanosecond, MSHRs: 16, WriteBufferDepth: 16,
		},
		Kind:     kind,
		Spec:     spec,
		Mapping:  dram.RoRaBaCoCh,
		Channels: 1,
		CoreXbar: xbar.Config{Latency: 1 * sim.Nanosecond, QueueDepth: 32},
		MemXbar:  xbar.Config{Latency: 2 * sim.Nanosecond, QueueDepth: 32},
	}
}

func TestFullSystemBothKinds(t *testing.T) {
	for _, kind := range []Kind{EventBased, CycleBased} {
		fs, err := NewFullSystem(fullSystemConfig(4, kind))
		if err != nil {
			t.Fatal(err)
		}
		if !fs.Run(50 * sim.Millisecond) {
			t.Fatalf("%s full system did not complete", kind)
		}
		if fs.AggregateIPC() <= 0 {
			t.Fatalf("%s: no IPC", kind)
		}
		if fs.MemBandwidth() <= 0 {
			t.Fatalf("%s: memory idle (workload should miss the caches)", kind)
		}
		if fs.LLC.Misses() == 0 {
			t.Fatalf("%s: LLC absorbed a canneal workload entirely", kind)
		}
		if u := fs.AvgBusUtilisation(); u < 0 || u > 1 {
			t.Fatalf("%s: utilisation %v out of range", kind, u)
		}
	}
}

func TestFullSystemValidation(t *testing.T) {
	cfg := fullSystemConfig(0, EventBased)
	if _, err := NewFullSystem(cfg); err == nil {
		t.Fatal("zero cores accepted")
	}
	cfg = fullSystemConfig(1, EventBased)
	cfg.Workload = nil
	if _, err := NewFullSystem(cfg); err == nil {
		t.Fatal("nil workload accepted")
	}
	// One L1 per core on the core crossbar: a core past its port limit is
	// refused by number instead of panicking in AttachRequestor.
	_, err := NewFullSystem(fullSystemConfig(xbar.MaxRequestors+1, EventBased))
	if err == nil || !strings.Contains(err.Error(), "256 cores, but the core crossbar takes at most 255") {
		t.Fatalf("256 cores: err = %v", err)
	}
	if _, err := NewFullSystem(fullSystemConfig(xbar.MaxRequestors, EventBased)); err != nil {
		t.Fatalf("255 cores: %v", err)
	}
}

// The full system's feedback loop: a memory with double the channels yields
// higher aggregate IPC for a memory-bound workload.
func TestMoreChannelsHelpMemoryBoundWorkload(t *testing.T) {
	run := func(channels int) float64 {
		cfg := fullSystemConfig(8, EventBased)
		cfg.Channels = channels
		fs, err := NewFullSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !fs.Run(100 * sim.Millisecond) {
			t.Fatal("did not complete")
		}
		return fs.AggregateIPC()
	}
	one, four := run(1), run(4)
	if !(four > one) {
		t.Fatalf("4-channel IPC %v not above 1-channel %v", four, one)
	}
}
