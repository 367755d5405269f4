// Package experiments implements the paper's evaluation (§III and §IV). A
// measurement is a value — a Point (a memory system of one controller model
// and the generators loading it) or a FullPoint (cores over caches over that
// memory) — and Runner.Run / Runner.RunFull are the only functions that build
// and run one. Every study (RunSweep, RunLatency, the ablations, RunFaultSweep,
// RunPowerComparison, RunPowerSavings, RunSpeedup, RunFig8, RunFig9) is a
// table of points fed to that runner, returning the series the paper plots.
// The cmd/ tools print these results; bench_test.go runs the same points with
// b.N requests.
package experiments

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cyclesim"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trafficgen"
	"repro/internal/xbar"
)

// ErrInterrupted reports that a study stopped early because Runner.Stop
// fired. The partial result returned alongside it is valid for every row that
// completed — callers print what they have and exit with the conventional
// interrupt status.
var ErrInterrupted = errors.New("experiments: interrupted")

// Point is one measurement on the memory side alone: Channels controllers of
// one model (behind a crossbar when there are several) loaded by a traffic
// generator. Event and Cycle are the two models' whole controller
// configurations, so the caller owns every knob and flipping Kind reruns the
// same description on the other model.
type Point struct {
	// Name labels the point in errors.
	Name     string
	Kind     system.Kind
	Channels int // 0 means 1
	Event    core.Config
	Cycle    cyclesim.Config
	// Gen shapes the generator; Pattern supplies its addresses.
	Gen     trafficgen.Config
	Pattern trafficgen.Pattern
	// Attach, when set, replaces the generator with another frontend (a core
	// over a cache): it connects to m.FrontPort and returns the sources the
	// run waits for.
	Attach func(m *system.Memory) ([]system.Source, error)
	// Probes feeds observability events from the controllers; nil disables
	// instrumentation.
	Probes *obs.Hub
	// Limit bounds the run's simulated time.
	Limit sim.Tick
}

// matched returns a point on the paper's matched configurations of both
// models (§III) with one saturating generator of count burst-sized requests,
// 32 outstanding, and one simulated second to finish.
func matched(name string, spec dram.Spec, mapping dram.Mapping, closedPage bool, channels int, count uint64, pattern trafficgen.Pattern) Point {
	return Point{
		Name: name, Channels: channels,
		Event:   system.MatchedEventConfig(spec, mapping, channels, closedPage),
		Cycle:   system.MatchedCycleConfig(spec, mapping, channels, closedPage),
		Gen:     trafficgen.Config{RequestBytes: spec.Org.BurstBytes(), MaxOutstanding: 32, Count: count},
		Pattern: pattern,
		Limit:   sim.Second,
	}
}

// dramAware builds the DRAM-aware pattern of the synthetic studies. It is not
// validated against the device's geometry: only the sweeps take a stride or
// bank count from outside.
func dramAware(spec dram.Spec, mapping dram.Mapping, channels int, stride uint64, banks, readPct int, seed int64) (*trafficgen.DRAMAware, error) {
	dec, err := dram.NewDecoder(spec.Org, mapping, channels)
	if err != nil {
		return nil, err
	}
	return &trafficgen.DRAMAware{Decoder: dec, StrideBursts: stride, Banks: banks, ReadPercent: readPct, Seed: seed}, nil
}

// FullPoint is one full-system measurement: the cores, caches, crossbars and
// memory system cfg describes, run for at most Limit of simulated time.
type FullPoint struct {
	Name string
	system.MultiCoreConfig
	Limit sim.Tick
}

// Rig is a finished Point: the memory it ran on, its generator (nil under
// Point.Attach), and the host time the stepping took.
type Rig struct {
	*system.Memory
	Gen  *trafficgen.Generator
	Host time.Duration
}

// Runner is how a study's points are run. The zero Runner runs every point to
// completion.
type Runner struct {
	// Stop, when non-nil, is polled before every point; once it reports true
	// the study returns the rows measured so far with ErrInterrupted. This is
	// how the CLIs turn SIGINT into "finish the current point, flush partial
	// results, exit 130".
	Stop func() bool
	// Started, when non-nil, is called once a point is built, before its
	// sources start (a benchmark's b.ResetTimer).
	Started func()
	// ran, when non-nil, is told what every finished point cost: the kernel
	// events it executed and the host time of its stepping. Only the test that
	// pins the shipped points' size (shipped_test.go) sets it.
	ran func(name string, kind system.Kind, events uint64, host time.Duration)
}

// hostTimed returns how long the host took to run fn. The experiment tables
// report host time beside simulated results; nothing simulated ever reads it,
// which is why this is the one place the package touches the wall clock.
func hostTimed(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// begin is what both runners do between building a point and starting it: the
// refusal of a point that could never end — a source with no count
// (trafficgen's Count or cpu's MemOps of 0 means "unlimited") never reports
// Done, so the run would spin to its limit — and the Started hook.
func (r Runner) begin(name string, sources []system.Source) error {
	for _, s := range sources {
		if u, ok := s.(interface{ Unbounded() bool }); ok && u.Unbounded() {
			return fmt.Errorf("experiments: point %q has a source with no request count: it would never finish", name)
		}
	}
	if r.Started != nil {
		r.Started()
	}
	return nil
}

// Run builds the point on system.NewMemory, runs it until every source is
// done and the memory has drained, and returns the rig for its statistics.
func (r Runner) Run(p Point) (*Rig, error) {
	if r.Stop != nil && r.Stop() {
		return nil, ErrInterrupted
	}
	mc := system.MemoryConfig{Root: "sys", Kind: p.Kind, Channels: max(p.Channels, 1), Event: p.Event, Cycle: p.Cycle, Probes: p.Probes}
	name := "gen"
	if mc.Channels > 1 {
		mc.Xbar = &xbar.Config{Latency: 2 * sim.Nanosecond, QueueDepth: 64}
		mc.Widest = p.Gen.RequestBytes
		name = "gen0"
	}
	m, err := system.NewMemory(mc)
	if err != nil {
		return nil, err
	}
	rig := &Rig{Memory: m}
	var sources []system.Source
	if p.Attach != nil {
		sources, err = p.Attach(m)
	} else if rig.Gen, err = trafficgen.New(m.K, p.Gen, p.Pattern, m.Reg, name); err == nil {
		mem.Connect(rig.Gen.Port(), m.FrontPort("gen"))
		sources = []system.Source{rig.Gen}
	}
	if err == nil {
		err = r.begin(p.Name, sources)
	}
	if err != nil {
		return nil, err
	}
	sess := m.Session(sources...)
	rig.Host = hostTimed(func() { err = sess.Run(p.Limit) })
	if err != nil {
		return nil, fmt.Errorf("experiments: point %q (%s) did not complete: %w", p.Name, p.Kind, err)
	}
	if r.ran != nil {
		r.ran(p.Name, p.Kind, m.K.EventsExecuted(), rig.Host)
	}
	return rig, nil
}

// RunFull builds the full system on system.NewFullSystem, runs it until every
// core finishes its region of interest, and returns it with the host time the
// stepping took.
func (r Runner) RunFull(p FullPoint) (*system.FullSystem, time.Duration, error) {
	if r.Stop != nil && r.Stop() {
		return nil, 0, ErrInterrupted
	}
	fs, err := system.NewFullSystem(p.MultiCoreConfig)
	if err != nil {
		return nil, 0, err
	}
	sources := make([]system.Source, len(fs.Cores))
	for i, c := range fs.Cores {
		sources[i] = c
	}
	if err := r.begin(p.Name, sources); err != nil {
		return nil, 0, err
	}
	var done bool
	host := hostTimed(func() { done = fs.Run(p.Limit) })
	if !done {
		return nil, 0, fmt.Errorf("experiments: full-system point %q (%s) did not complete within %s", p.Name, p.Kind, p.Limit)
	}
	if r.ran != nil {
		r.ran(p.Name, p.Kind, fs.K.EventsExecuted(), host)
	}
	return fs, host, nil
}
