package system

import (
	"runtime"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trafficgen"
)

// TestFreshRunAllocationBudget: the paper's studies build a fresh system per
// point and run it once, so what building it and its first run allocate is
// paid at every point. budget counts the first run's heap allocations,
// construction excluded; build counts construction and the first run. Each is
// the count measured under -race (which adds up to a fifth to the plain
// build's and now and then a few more) plus a margin of 5-10 %: an object pool
// that grows one object at a time (sim.Pool grows by slabs) exceeds budget,
// and a statistic that allocates when it registers (a joined name, or an
// object of its own outside the store's slabs) exceeds build.
func TestFreshRunAllocationBudget(t *testing.T) {
	for _, c := range []struct {
		name          string
		budget, build uint64
		setup         func(t *testing.T) func() bool
	}{
		{"traffic rig", 28, 125, func(t *testing.T) func() bool {
			cfg := rigConfig(EventBased, false)
			cfg.Gen.MaxOutstanding, cfg.Gen.Count = 32, 4000
			rig, err := NewTrafficRig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return func() bool { return rig.Run(10 * sim.Millisecond) }
		}},
		{"traffic rig, cycle model", 24, 72, func(t *testing.T) func() bool {
			cfg := rigConfig(CycleBased, false)
			cfg.Gen.MaxOutstanding, cfg.Gen.Count = 32, 4000
			rig, err := NewTrafficRig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return func() bool { return rig.Run(10 * sim.Millisecond) }
		}},
		{"full system", 92, 425, func(t *testing.T) func() bool {
			fs, err := NewFullSystem(fig8Config(1000))
			if err != nil {
				t.Fatal(err)
			}
			return func() bool { return fs.Run(10 * sim.Millisecond) }
		}},
		{"4-channel memory", 102, 445, func(t *testing.T) func() bool {
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
		{"sharded rig", 128, 570, func(t *testing.T) func() bool {
			cfg := shardedConfig(EventBased, 4, false)
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
			var start, built, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&start)
			run := c.setup(t)
			runtime.ReadMemStats(&built)
			ok := run()
			runtime.ReadMemStats(&after)
			if !ok {
				t.Fatal("run did not complete")
			}
			got, total := after.Mallocs-built.Mallocs, after.Mallocs-start.Mallocs
			t.Logf("first run: %d heap allocations; build and first run: %d", got, total)
			if got > c.budget {
				t.Errorf("first run of a fresh system allocated %d objects, budget %d", got, c.budget)
			}
			if total > c.build {
				t.Errorf("building a fresh system and its first run allocated %d objects, budget %d", total, c.build)
			}
		})
	}
}
