package system

import (
	"runtime"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trafficgen"
)

// TestFreshRunAllocationBudget: the paper's studies build a fresh system per
// point and run it once, so what the first run allocates is paid at every
// point. Per-object free lists warming up used to be most of it; pooled
// objects now arrive in slabs (sim.Pool). Each budget is the count of the
// first run's heap allocations, construction excluded, measured under -race
// (which adds up to a fifth to the plain build's and now and then a few
// more), plus a margin for that: an object pool that went back to growing
// one object at a time exceeds it.
func TestFreshRunAllocationBudget(t *testing.T) {
	for _, c := range []struct {
		name   string
		budget uint64
		build  func(t *testing.T) func() bool
	}{
		{"traffic rig", 28, func(t *testing.T) func() bool {
			cfg := rigConfig(EventBased, false)
			cfg.Gen.MaxOutstanding, cfg.Gen.Count = 32, 4000
			rig, err := NewTrafficRig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return func() bool { return rig.Run(10 * sim.Millisecond) }
		}},
		{"traffic rig, cycle model", 24, func(t *testing.T) func() bool {
			cfg := rigConfig(CycleBased, false)
			cfg.Gen.MaxOutstanding, cfg.Gen.Count = 32, 4000
			rig, err := NewTrafficRig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return func() bool { return rig.Run(10 * sim.Millisecond) }
		}},
		{"full system", 92, func(t *testing.T) func() bool {
			fs, err := NewFullSystem(fig8Config(1000))
			if err != nil {
				t.Fatal(err)
			}
			return func() bool { return fs.Run(10 * sim.Millisecond) }
		}},
		{"4-channel memory", 102, func(t *testing.T) func() bool {
			m, err := NewMemory(memoryDescription(EventBased, 4, true))
			if err != nil {
				t.Fatal(err)
			}
			gen, err := trafficgen.New(m.K, trafficgen.Config{RequestBytes: 64, MaxOutstanding: 32, Count: 4000},
				&trafficgen.Random{Start: 0, End: 1 << 24, Align: 64, ReadPercent: 70, Seed: 3}, m.Reg, "gen")
			if err != nil {
				t.Fatal(err)
			}
			mem.Connect(gen.Port(), m.FrontPort("gen"))
			s := m.Session(gen)
			return func() bool { return s.Run(10*sim.Millisecond) == nil }
		}},
		{"sharded rig", 128, func(t *testing.T) func() bool {
			cfg := shardedConfig(EventBased, 4, 1, false)
			for i := range cfg.Gens {
				cfg.Gens[i].MaxOutstanding, cfg.Gens[i].Count = 32, 2000
			}
			rig, err := NewShardedRig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return func() bool { return rig.Run(10 * sim.Millisecond) }
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := c.build(t)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			ok := run()
			runtime.ReadMemStats(&after)
			if !ok {
				t.Fatal("run did not complete")
			}
			got := after.Mallocs - before.Mallocs
			t.Logf("first run: %d heap allocations", got)
			if got > c.budget {
				t.Errorf("first run of a fresh system allocated %d objects, budget %d", got, c.budget)
			}
		})
	}
}
