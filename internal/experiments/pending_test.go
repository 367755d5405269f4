package experiments

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trafficgen"
	"repro/internal/xbar"
)

// watchPending arms a test-owned event on k that, four times a nanosecond and
// after everything else due at its tick, notes how many model events are
// pending. It returns the deepest queue seen so far. The event never stops:
// runs end on their sources, not on an empty queue.
func watchPending(k *sim.Kernel) *int {
	deepest := new(int)
	var sample *sim.Event
	sample = sim.NewEventPri("sample pending", sim.MaxPriority, func() {
		*deepest = max(*deepest, k.Pending())
		k.Schedule(sample, k.Now()+250*sim.Picosecond)
	})
	k.Schedule(sample, k.Now())
	return deepest
}

// deepestPending runs p through Runner.Run with its one generator attached by
// hand, which is where a test gets at the kernel before the run starts.
func deepestPending(t *testing.T, p Point) int {
	t.Helper()
	var deepest *int
	p.Attach = func(m *system.Memory) ([]system.Source, error) {
		deepest = watchPending(m.K)
		gen, err := trafficgen.New(m.K, p.Gen, p.Pattern, m.Reg, "gen0")
		if err != nil {
			return nil, err
		}
		mem.Connect(gen.Port(), m.FrontPort("gen"))
		return []system.Source{gen}, nil
	}
	if _, err := (Runner{}).Run(p); err != nil {
		t.Fatal(err)
	}
	return *deepest
}

// TestShippedTopologiesKeepFewEventsPending pins the measurement the kernel's
// queue was designed on (DESIGN §3): a memory system keeps a handful of events
// pending, tens with sixteen channels, so a sorted ring that shifts a few
// entries per insert beats structures built for deep queues. Each bound is
// about 1.5x the deepest queue the topology shows today (4, 19, 9 and 36 when
// every insert is counted; the samples read 3, 18, 9 and 36).
func TestShippedTopologiesKeepFewEventsPending(t *testing.T) {
	const requests = 20000
	spec := dram.DDR3_1333_8x8()
	cases := []struct {
		name  string
		bound int
		run   func(t *testing.T) int
	}{
		{"single-channel traffic rig", 6, func(t *testing.T) int {
			p := RandomMixPoint(system.EventBased, 50, 0, 1)
			p.Gen.Count = requests
			return deepestPending(t, p)
		}},
		{"4-channel single-kernel rig", 28, func(t *testing.T) int {
			// The ledger's multichan_4ch shape: one generator per channel,
			// linear 80% reads, 32 outstanding each.
			cfg := system.MultiChannelConfig{
				Kind: system.EventBased, Spec: spec, Mapping: dram.RoRaBaCoCh, Channels: 4,
				Xbar: xbar.Config{Latency: 2 * sim.Nanosecond, QueueDepth: 64},
			}
			for i := 0; i < cfg.Channels; i++ {
				cfg.Gens = append(cfg.Gens, trafficgen.Config{RequestBytes: 64, MaxOutstanding: 32, Count: requests / 4})
				cfg.Patterns = append(cfg.Patterns, &trafficgen.Linear{Start: mem.Addr(i) << 24, End: mem.Addr(i+1) << 24, Step: 64, ReadPercent: 80, Seed: int64(i + 1)})
			}
			rig, err := system.NewMultiChannelRig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			deepest := watchPending(rig.K)
			if !rig.Run(sim.Second) {
				t.Fatal("run did not complete")
			}
			return *deepest
		}},
		{"4-core full system", 14, func(t *testing.T) int {
			p := Fig8Point(system.EventBased, "canneal", requests/4, 1)
			fs, err := system.NewFullSystem(p.MultiCoreConfig)
			if err != nil {
				t.Fatal(err)
			}
			deepest := watchPending(fs.K)
			if !fs.Run(p.Limit) {
				t.Fatal("run did not complete")
			}
			return *deepest
		}},
		{"16-channel speedup point", 54, func(t *testing.T) int {
			sc := speedupCases[len(speedupCases)-1]
			s := speedupStudy.Setup()
			s.N = requests
			p, err := sc.point(system.EventBased, s, dram.HMCVault())
			if err != nil || sc.channels != 16 {
				t.Fatalf("%s: %d channels, %v", sc.name, sc.channels, err)
			}
			return deepestPending(t, p)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			deepest := c.run(t)
			t.Logf("deepest queue sampled: %d events pending (bound %d)", deepest, c.bound)
			if deepest < 2 {
				t.Fatalf("deepest queue sampled is %d: the sampling event missed the run", deepest)
			}
			if deepest > c.bound {
				t.Errorf("%d events pending, more than %d: the sorted ring was chosen for queues this short — re-measure `BenchmarkKernelDepth` before raising this bound", deepest, c.bound)
			}
		})
	}
}
