package experiments

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/cyclesim"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trafficgen"
)

// Property: the two controller models, fed the same request stream, move
// exactly the same bytes and answer exactly the same number of requests —
// timing differs, functional behaviour must not.
func TestCrossModelConservationProperty(t *testing.T) {
	prop := func(seed int64, closedRaw bool) bool {
		rng := rand.New(rand.NewSource(seed))
		spec := dram.DDR3_1333_8x8()
		mapping := dram.RoRaBaCoCh
		if closedRaw {
			mapping = dram.RoCoRaBaCh
		}
		type outcome struct {
			acts power.Activity
			lat  uint64
		}
		run := func(kind system.Kind, pattern trafficgen.Pattern) (outcome, bool) {
			rig, err := system.NewTrafficRig(system.RigConfig{
				Kind: kind, Spec: spec, Mapping: mapping, ClosedPage: closedRaw,
				Gen: trafficgen.Config{
					RequestBytes:   spec.Org.BurstBytes(),
					MaxOutstanding: 16,
					Count:          300,
				},
				Pattern: pattern,
			})
			if err != nil {
				return outcome{}, false
			}
			if !rig.Run(sim.Second) {
				return outcome{}, false
			}
			return outcome{acts: rig.Ctrl.PowerStats(), lat: rig.Gen.ReadLatency().Count()}, true
		}
		// Collision-free stream (unique addresses): the event model cannot
		// forward or merge, so the DRAM traffic must be byte-exact equal.
		readPct := 30 + rng.Intn(70)
		mk := func() trafficgen.Pattern {
			return &trafficgen.Linear{
				Start: 0, End: 300 * mem.Addr(spec.Org.BurstBytes()),
				Step: spec.Org.BurstBytes(), ReadPercent: readPct, Seed: seed,
			}
		}
		ev, ok := run(system.EventBased, mk())
		if !ok {
			return false
		}
		cy, ok := run(system.CycleBased, mk())
		if !ok {
			return false
		}
		if ev.acts.ReadBursts != cy.acts.ReadBursts {
			return false
		}
		if ev.acts.WriteBursts != cy.acts.WriteBursts {
			return false
		}
		if ev.lat != cy.lat {
			return false
		}
		// Colliding stream: forwarding/merging may reduce the event model's
		// DRAM traffic, but never increase it, and every request is still
		// answered.
		mkRand := func() trafficgen.Pattern {
			return &trafficgen.Random{
				Start: 0, End: 1 << 20, Align: spec.Org.BurstBytes(),
				ReadPercent: readPct, Seed: seed,
			}
		}
		ev2, ok := run(system.EventBased, mkRand())
		if !ok {
			return false
		}
		cy2, ok := run(system.CycleBased, mkRand())
		if !ok {
			return false
		}
		if ev2.acts.ReadBursts > cy2.acts.ReadBursts || ev2.acts.WriteBursts > cy2.acts.WriteBursts {
			return false
		}
		return ev2.lat == cy2.lat
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// The cycle-based model's per-cycle integrated energy must agree with the
// offline Micron computation over its own activity counters — two
// independent implementations of the same power methodology.
func TestCycleEnergyMatchesOfflineMicron(t *testing.T) {
	spec := dram.DDR3_1333_8x8()
	m, err := system.NewMemory(system.MemoryConfig{Root: "t", Kind: system.CycleBased, Channels: 1, Cycle: cyclesim.DefaultConfig(spec)})
	if err != nil {
		t.Fatal(err)
	}
	k, reg, ctrl := m.K, m.Reg, m.Ctrls[0].(*cyclesim.Controller)
	gen, err := trafficgen.New(k, trafficgen.Config{
		RequestBytes:   spec.Org.BurstBytes(),
		MaxOutstanding: 16,
		Count:          3000,
	}, &trafficgen.Linear{Start: 0, End: 1 << 24, Step: spec.Org.BurstBytes(), ReadPercent: 67, Seed: 2},
		reg, "gen")
	if err != nil {
		t.Fatal(err)
	}
	mem.Connect(gen.Port(), m.FrontPort("gen"))
	gen.Start()
	for i := 0; i < 10000 && !(gen.Done() && ctrl.Quiescent()); i++ {
		k.RunUntil(k.Now() + sim.Microsecond)
	}
	if !gen.Done() {
		t.Fatal("did not complete")
	}

	integrated := ctrl.Energy().TotalPJ()
	act := ctrl.PowerStats()
	offlineW := power.Compute(spec, act).TotalMW() / 1000
	offlinePJ := offlineW * act.Elapsed.Seconds() * 1e12
	if integrated <= 0 || offlinePJ <= 0 {
		t.Fatalf("degenerate energies: integrated=%v offline=%v", integrated, offlinePJ)
	}
	ratio := integrated / offlinePJ
	if math.Abs(ratio-1) > 0.15 {
		t.Fatalf("integrated energy %.3g pJ vs offline %.3g pJ (ratio %.3f), want within 15%%",
			integrated, offlinePJ, ratio)
	}
	// The dominant components agree individually too.
	br := ctrl.Energy()
	off := power.Compute(spec, act)
	offBgPJ := off.BackgroundMW / 1000 * act.Elapsed.Seconds() * 1e12
	if offBgPJ > 0 {
		if r := br.BackgroundPJ / offBgPJ; math.Abs(r-1) > 0.2 {
			t.Fatalf("background energy ratio %.3f", r)
		}
	}
	offActPJ := off.ActPreMW / 1000 * act.Elapsed.Seconds() * 1e12
	if offActPJ > 0 {
		if r := br.ActPrePJ / offActPJ; math.Abs(r-1) > 0.1 {
			t.Fatalf("act/pre energy ratio %.3f", r)
		}
	}
}

// Determinism across the full rig: identical configurations give identical
// measured results run-to-run for both models.
func TestRigDeterminism(t *testing.T) {
	for _, kind := range []system.Kind{system.EventBased, system.CycleBased} {
		measure := func() (float64, float64) {
			spec := dram.DDR3_1333_8x8()
			rig, err := system.NewTrafficRig(system.RigConfig{
				Kind: kind, Spec: spec, Mapping: dram.RoRaBaCoCh,
				Gen: trafficgen.Config{
					RequestBytes:   spec.Org.BurstBytes(),
					MaxOutstanding: 24,
					Count:          1000,
				},
				Pattern: &trafficgen.Random{Start: 0, End: 1 << 24, Align: 64, ReadPercent: 60, Seed: 99},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !rig.Run(sim.Second) {
				t.Fatal("did not complete")
			}
			return rig.Ctrl.BusUtilisation(), rig.Gen.ReadLatency().Mean()
		}
		u1, l1 := measure()
		u2, l2 := measure()
		if u1 != u2 || l1 != l2 {
			t.Fatalf("%s rig not deterministic: %v/%v vs %v/%v", kind, u1, l1, u2, l2)
		}
	}
}

// The protocol checker referees both models on every standard's preset. The
// event model is clean everywhere, and so is the cycle baseline on the flat
// devices. The baseline models no bank groups (internal/cyclesim spaces
// activates by tRRD and columns by the data bus alone), so on the grouped presets it
// breaks exactly the bank-group rules: this pins that known defect, and a
// fix flips the test.
func TestCheckTimingRefereesBothModels(t *testing.T) {
	bankGroupRule := map[string]bool{"tRRD_L": true, "tCCD_L": true}
	for _, std := range dram.Standards() {
		spec, err := dram.ByStandard(std)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []system.Kind{system.EventBased, system.CycleBased} {
			var trace power.CommandTrace
			hub := obs.NewHub()
			hub.Attach(obs.CommandFunc(trace.Record))
			_, err := Runner{}.Run(Point{
				Name: std, Kind: kind,
				Event:   core.DefaultConfig(spec),
				Cycle:   cyclesim.DefaultConfig(spec),
				Gen:     trafficgen.Config{RequestBytes: 64, MaxOutstanding: 32, Count: 5000},
				Pattern: &trafficgen.Random{Start: 0, End: 1 << 26, Align: 64, ReadPercent: 67, Seed: 7},
				Probes:  hub,
				Limit:   sim.Second,
			})
			if err != nil {
				t.Fatalf("%s %s: %v", std, kind, err)
			}
			vs := power.CheckTiming(spec, trace.Commands())
			if kind == system.EventBased || !spec.Topology().Grouped() {
				if len(vs) > 0 {
					t.Errorf("%s on %s: %d violations, first %s", kind, spec.Name, len(vs), vs[0])
				}
				continue
			}
			if len(vs) == 0 {
				t.Errorf("%s on %s is protocol clean: the cycle model now honours bank groups, so update this test, DESIGN §13 and README", kind, spec.Name)
			}
			for _, v := range vs {
				if !bankGroupRule[v.Rule] {
					t.Errorf("%s on %s: %s is not a bank-group rule", kind, spec.Name, v)
					break
				}
			}
			t.Logf("%s on %s: %d bank-group violations of %d commands", kind, spec.Name, len(vs), trace.Len())
		}
	}
}
