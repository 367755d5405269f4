// Package system assembles complete simulated systems out of the building
// blocks: traffic generators or CPU cores, caches, crossbars and DRAM
// controllers (event-based or cycle-based). It is the Go equivalent of the
// gem5 Python configuration layer the paper describes in §II-E. The memory
// side of every system — kernel, registry, the channel controllers of either
// model and the crossbar that interleaves them — is built in one place,
// NewMemory, from one description; the rigs here, cmd/dramctrl and
// experiments.Runner all go through it and attach their own frontends (a
// generator, a trace player behind a capture monitor, cores over caches) to
// the port it hands back. Every run is driven by the one Session in
// session.go. ShardedRig (parallel.go) has no product caller left: it stays
// only because the frozen benchmark constructs it.
package system

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/cyclesim"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trafficgen"
	"repro/internal/xbar"
)

// Controller is the behaviour shared by both controller models, letting
// experiments swap models without touching the harness.
type Controller interface {
	Port() *mem.ResponsePort
	Name() string
	Quiescent() bool
	BusUtilisation() float64
	Bandwidth() float64
	RowHitRate() float64
	AvgReadLatencyNs() float64
	PowerStats() power.Activity
	// ObsSample is the instantaneous state the periodic sampler reads.
	obs.SampleSource
}

// Drainer is implemented by controllers that hold writes back (the
// event-based model's low watermark); harnesses call it at the end of a
// run.
type Drainer interface {
	Drain()
}

// Kind selects the controller model.
type Kind int

// Controller model kinds.
const (
	// EventBased is the paper's contribution (internal/core).
	EventBased Kind = iota
	// CycleBased is the DRAMSim2-style baseline (internal/cyclesim).
	CycleBased
)

// String names the kind.
func (k Kind) String() string {
	if k == EventBased {
		return "event"
	}
	return "cycle"
}

// The paper matches queue sizes between the models for fair queueing
// latencies (§III): each direction of the split-queue model gets the same
// depth as the unified transaction queue of the baseline.
const matchedQueueDepth = 32

// MatchedEventConfig returns the event-based controller configuration used
// in the model comparisons ("we configure our model to match the timing
// parameters and scheduling policies of DRAMSim2", §III).
func MatchedEventConfig(spec dram.Spec, mapping dram.Mapping, channels int, closedPage bool) core.Config {
	cfg := core.DefaultConfig(spec)
	cfg.Mapping = mapping
	cfg.Channels = channels
	cfg.ReadBufferSize = matchedQueueDepth
	cfg.WriteBufferSize = matchedQueueDepth
	// Match DRAMSim2: no static latencies in validation runs.
	cfg.FrontendLatency = 0
	cfg.BackendLatency = 0
	if closedPage {
		cfg.Page = core.Closed
	} else {
		cfg.Page = core.Open
	}
	return cfg
}

// MatchedCycleConfig returns the cycle-based baseline configuration paired
// with MatchedEventConfig.
func MatchedCycleConfig(spec dram.Spec, mapping dram.Mapping, channels int, closedPage bool) cyclesim.Config {
	cfg := cyclesim.DefaultConfig(spec)
	cfg.Mapping = mapping
	cfg.Channels = channels
	cfg.TransQueueSize = matchedQueueDepth
	if closedPage {
		cfg.Page = cyclesim.ClosedPage
	} else {
		cfg.Page = cyclesim.OpenPage
	}
	return cfg
}

// MemoryConfig describes the memory side of a system (paper Fig. 1, right of
// the crossbar): how many channels, which controller model, and the whole
// configuration of a channel's controller in that model. Flipping Kind on a
// description that fills in both Event and Cycle builds the same system on the
// other model.
type MemoryConfig struct {
	// Root names the statistics registry ("sys", "dramctrl", ...).
	Root string
	Kind Kind
	// Channels is the number of controllers, a power of two. More than one
	// needs a crossbar.
	Channels int
	// Event and Cycle configure a channel's controller under EventBased and
	// CycleBased; only the one Kind selects is read. NewMemory overwrites
	// Channels and Probes with the description's and offsets the fault seed by
	// the channel index, so several channels do not replay one fault stream
	// and a single channel keeps the seed as given.
	Event core.Config
	Cycle cyclesim.Config
	// Probes feeds observability events from every controller (see
	// internal/obs); nil or empty disables instrumentation. A crossbar
	// observes through its own Xbar.Probes.
	Probes *obs.Hub
	// Xbar, when non-nil, puts a crossbar named XbarName ("xbar" if empty) in
	// front of the channels; they are then called mc0, mc1, ... Without one
	// there is a single channel, mc, whose own port is the memory port. The
	// crossbar routes at the mapping's interleave granularity, widened to
	// Widest (the largest request any frontend sends) so no request straddles
	// a channel (the paper's cache-line-or-page default, §II-F).
	Xbar     *xbar.Config
	XbarName string
	Widest   uint64
}

// Memory is the built memory side. Frontends go on K and Reg and connect to
// FrontPort; Session drives the whole.
type Memory struct {
	K     *sim.Kernel
	Reg   *stats.Registry
	Xbar  *xbar.Crossbar // nil when the one controller is reached directly
	Ctrls []Controller
}

// NewMemory builds the memory side cfg describes on a fresh kernel and
// registry. It is the only place controllers and the memory crossbar are
// constructed.
func NewMemory(cfg MemoryConfig) (*Memory, error) { return newMemory(cfg, nil) }

// placement puts channel i on a kernel and registry other than the memory's
// own (front is the memory's kernel) and joins its crossbar port to the
// controller through a link. Only ShardedRig passes one.
type placement func(front *sim.Kernel, i int) (*sim.Kernel, *stats.Registry, func(*mem.RequestPort, *mem.ResponsePort))

func newMemory(cfg MemoryConfig, place placement) (*Memory, error) {
	if cfg.Channels < 1 {
		return nil, fmt.Errorf("system: need at least one channel, got %d", cfg.Channels)
	}
	if cfg.Xbar == nil && cfg.Channels > 1 {
		return nil, fmt.Errorf("system: %d channels need a crossbar to interleave them", cfg.Channels)
	}
	m := &Memory{K: sim.NewKernel(), Reg: stats.NewRegistry(cfg.Root), Ctrls: make([]Controller, cfg.Channels)}
	if cfg.Xbar != nil {
		org, mapping := cfg.Event.Device.Org, cfg.Event.Mapping
		if cfg.Kind == CycleBased {
			org, mapping = cfg.Cycle.Device.Org, cfg.Cycle.Mapping
		}
		dec, err := dram.NewDecoder(org, mapping, cfg.Channels)
		if err != nil {
			return nil, err
		}
		gran := dec.InterleaveBytes()
		for gran < cfg.Widest {
			gran *= 2
		}
		name := cfg.XbarName
		if name == "" {
			name = "xbar"
		}
		if m.Xbar, err = xbar.New(m.K, *cfg.Xbar, xbar.InterleaveRoute(cfg.Channels, gran), m.Reg, name); err != nil {
			return nil, err
		}
	}
	for i := range m.Ctrls {
		k, reg, join := m.K, m.Reg, mem.Connect
		if place != nil {
			k, reg, join = place(m.K, i)
		}
		name := "mc"
		if m.Xbar != nil {
			name = fmt.Sprintf("mc%d", i)
		}
		var ctrl Controller
		var err error
		switch cfg.Kind {
		case EventBased:
			c := cfg.Event
			c.Channels, c.Probes = cfg.Channels, cfg.Probes
			c.Faults.Seed += uint64(i)
			ctrl, err = core.NewController(k, c, reg, name)
		case CycleBased:
			c := cfg.Cycle
			c.Channels, c.Probes = cfg.Channels, cfg.Probes
			ctrl, err = cyclesim.NewController(k, c, reg, name)
		default:
			err = fmt.Errorf("system: unknown controller kind %d", cfg.Kind)
		}
		if err != nil {
			return nil, err
		}
		if m.Xbar != nil {
			join(m.Xbar.AttachMemory("mem"), ctrl.Port())
		}
		m.Ctrls[i] = ctrl
	}
	return m, nil
}

// FrontPort returns the port a frontend connects to: a new requestor port on
// the crossbar, labelled name, or the one controller's own port (which takes
// one frontend).
func (m *Memory) FrontPort(name string) *mem.ResponsePort {
	if m.Xbar != nil {
		return m.Xbar.AttachRequestor(name)
	}
	return m.Ctrls[0].Port()
}

// Session wraps the memory and the traffic sources the caller connected to it
// for stepping. Set Deadline (or call Run) before stepping; Supervise makes it
// checkpointable.
func (m *Memory) Session(sources ...Source) *Session {
	s := m.session(sources)
	return &s
}

// session is Session by value, so a rig's Run can keep it on the stack.
func (m *Memory) session(sources []Source) Session {
	return Session{kernels: []*sim.Kernel{m.K}, reg: m.Reg, xbar: m.Xbar, ctrls: m.Ctrls, sources: sources, step: quantum}
}

// AvgBusUtilisation averages the channels' data bus utilisation.
func (m *Memory) AvgBusUtilisation() float64 { return avgBusUtilisation(m.Ctrls) }

// matchedMemory is the rigs' description: the paper's matched configurations
// (§III) of both models, so Kind alone picks the one that runs. tuneEvent
// (nil for none) adjusts the event-based side.
func matchedMemory(kind Kind, spec dram.Spec, mapping dram.Mapping, channels int, closedPage bool, tuneEvent func(*core.Config)) MemoryConfig {
	cfg := MemoryConfig{
		Root: "sys", Kind: kind, Channels: channels,
		Event: MatchedEventConfig(spec, mapping, channels, closedPage),
		Cycle: MatchedCycleConfig(spec, mapping, channels, closedPage),
	}
	if tuneEvent != nil {
		tuneEvent(&cfg.Event)
	}
	return cfg
}

// widestRequest checks that generators and patterns pair up and returns the
// largest request any of them sends, which sizes the crossbar's interleaving.
func widestRequest(gens []trafficgen.Config, patterns []trafficgen.Pattern) (uint64, error) {
	if len(gens) != len(patterns) || len(gens) == 0 {
		return 0, fmt.Errorf("system: generators (%d) and patterns (%d) must pair up", len(gens), len(patterns))
	}
	var widest uint64
	for _, g := range gens {
		widest = max(widest, g.RequestBytes)
	}
	return widest, nil
}

// attachGens builds one generator per configuration on the memory's kernel
// and connects it as a requestor — after the memory side, so port and
// statistics order match the topology's Figure 1 reading.
func attachGens(m *Memory, cfgs []trafficgen.Config, patterns []trafficgen.Pattern) ([]*trafficgen.Generator, error) {
	gens := make([]*trafficgen.Generator, len(cfgs))
	for i := range cfgs {
		gen, err := trafficgen.New(m.K, cfgs[i], patterns[i], m.Reg, fmt.Sprintf("gen%d", i))
		if err != nil {
			return nil, err
		}
		mem.Connect(gen.Port(), m.FrontPort("gen"))
		gens[i] = gen
	}
	return gens, nil
}

// sumBandwidth sums controller bandwidths.
func sumBandwidth(ctrls []Controller) float64 {
	var sum float64
	for _, c := range ctrls {
		sum += c.Bandwidth()
	}
	return sum
}

// avgBusUtilisation averages controller bus utilisation.
func avgBusUtilisation(ctrls []Controller) float64 {
	var sum float64
	for _, c := range ctrls {
		sum += c.BusUtilisation()
	}
	return sum / float64(len(ctrls))
}

// TrafficRig is a single generator driving a single controller — the
// configuration of the §III synthetic validation experiments.
type TrafficRig struct {
	K    *sim.Kernel
	Reg  *stats.Registry
	Gen  *trafficgen.Generator
	Ctrl Controller

	runner
}

// RigConfig shapes a TrafficRig.
type RigConfig struct {
	Kind       Kind
	Spec       dram.Spec
	Mapping    dram.Mapping
	ClosedPage bool
	// Gen is the generator shape; Pattern supplies addresses.
	Gen     trafficgen.Config
	Pattern trafficgen.Pattern
	// TuneEvent optionally adjusts the matched default event-based
	// controller configuration before construction (used by ablation studies
	// and experiments that stress one policy knob).
	TuneEvent func(*core.Config)
	// Probes feeds observability events from the controller (see
	// internal/obs); nil or empty disables instrumentation.
	Probes *obs.Hub
}

// NewTrafficRig builds the generator-over-controller rig.
func NewTrafficRig(cfg RigConfig) (*TrafficRig, error) {
	mc := matchedMemory(cfg.Kind, cfg.Spec, cfg.Mapping, 1, cfg.ClosedPage, cfg.TuneEvent)
	mc.Probes = cfg.Probes
	m, err := NewMemory(mc)
	if err != nil {
		return nil, err
	}
	gen, err := trafficgen.New(m.K, cfg.Gen, cfg.Pattern, m.Reg, "gen")
	if err != nil {
		return nil, err
	}
	mem.Connect(gen.Port(), m.FrontPort("gen"))
	return &TrafficRig{K: m.K, Reg: m.Reg, Gen: gen, Ctrl: m.Ctrls[0], runner: runner{m, []Source{gen}}}, nil
}

// runner is what a generator rig keeps of its construction — the memory it
// was built on and its generators as the session's sources — and how it runs:
// TrafficRig and MultiChannelRig embed it for Run and NewSession.
type runner struct {
	memory  *Memory
	sources []Source
}

// Run starts the generators and steps the simulation until they finish and
// the memory drains, or until maxSim simulated time passes. It reports whether
// the run completed. The session stays on the stack: a run allocates nothing
// the construction did not.
func (r *runner) Run(maxSim sim.Tick) bool {
	s := r.memory.session(r.sources)
	return s.Run(maxSim) == nil
}

// NewSession wraps the rig for supervised, checkpointable stepping; maxSim
// bounds total simulated time across all segments. scope is always "" (see
// Session.Supervise: the parameter survives for bench/'s call site only).
func (r *runner) NewSession(scope string, maxSim sim.Tick) (*Session, error) {
	return r.memory.session(r.sources).supervised(scope, maxSim)
}

// MultiChannelRig is a generator (or several) behind a crossbar fanning out
// to N channel controllers — the paper's Figure 1 topology and the HMC
// argument of §II-F.
type MultiChannelRig struct {
	K     *sim.Kernel
	Reg   *stats.Registry
	Gens  []*trafficgen.Generator
	Xbar  *xbar.Crossbar
	Ctrls []Controller

	runner
}

// MultiChannelConfig shapes a MultiChannelRig.
type MultiChannelConfig struct {
	Kind       Kind
	Spec       dram.Spec
	Mapping    dram.Mapping
	ClosedPage bool
	Channels   int
	Xbar       xbar.Config
	// Gens and Patterns pair up; one generator per entry.
	Gens     []trafficgen.Config
	Patterns []trafficgen.Pattern
}

// NewMultiChannelRig builds the multi-channel system.
func NewMultiChannelRig(cfg MultiChannelConfig) (*MultiChannelRig, error) {
	mc := matchedMemory(cfg.Kind, cfg.Spec, cfg.Mapping, cfg.Channels, cfg.ClosedPage, nil)
	mc.Xbar = &cfg.Xbar
	var err error
	if mc.Widest, err = widestRequest(cfg.Gens, cfg.Patterns); err != nil {
		return nil, err
	}
	m, err := NewMemory(mc)
	if err != nil {
		return nil, err
	}
	gens, err := attachGens(m, cfg.Gens, cfg.Patterns)
	if err != nil {
		return nil, err
	}
	return &MultiChannelRig{K: m.K, Reg: m.Reg, Gens: gens, Xbar: m.Xbar, Ctrls: m.Ctrls, runner: runner{m, sourcesOf(gens)}}, nil
}

// AggregateBandwidth sums channel bandwidths.
func (r *MultiChannelRig) AggregateBandwidth() float64 { return sumBandwidth(r.Ctrls) }

// MultiCoreConfig shapes a FullSystem: cores with private L1s over a shared
// LLC and a multi-channel memory system (the §IV case-study topology).
type MultiCoreConfig struct {
	Cores int
	// Core shapes every core; Workload supplies each core's pattern.
	Core     cpu.Config
	Workload func(coreID int) trafficgen.Pattern

	L1  cache.Config
	LLC cache.Config

	Kind       Kind
	Spec       dram.Spec
	Mapping    dram.Mapping
	ClosedPage bool
	Channels   int

	CoreXbar xbar.Config
	MemXbar  xbar.Config
}

// FullSystem is the assembled multi-core system.
type FullSystem struct {
	K     *sim.Kernel
	Reg   *stats.Registry
	Cores []*cpu.Core
	L1s   []*cache.Cache
	LLC   *cache.Cache
	Ctrls []Controller

	sources []Source // Cores, as the session's source list
}

// NewFullSystem wires cores -> L1s -> crossbar -> shared LLC -> crossbar ->
// channel controllers.
func NewFullSystem(cfg MultiCoreConfig) (*FullSystem, error) {
	return newFullSystem(cfg, nil, mem.Connect)
}

// newFullSystem is NewFullSystem with two seams for tests: tuneEvent (nil
// for none) adjusts the controllers' matched configuration, to inject memory
// faults, and connectCore joins each core to its L1, to put a tap between.
func newFullSystem(cfg MultiCoreConfig, tuneEvent func(*core.Config), connectCore func(*mem.RequestPort, *mem.ResponsePort)) (*FullSystem, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("system: need at least one core")
	}
	if cfg.Cores > xbar.MaxRequestors {
		return nil, fmt.Errorf("system: %d cores, but the core crossbar takes at most %d requestors", cfg.Cores, xbar.MaxRequestors)
	}
	if cfg.Workload == nil {
		return nil, fmt.Errorf("system: nil workload factory")
	}

	// Memory side first: channels behind the memory crossbar, interleaved
	// at the mapping granularity but never below the LLC line size (fills
	// must not straddle channels).
	mc := matchedMemory(cfg.Kind, cfg.Spec, cfg.Mapping, cfg.Channels, cfg.ClosedPage, tuneEvent)
	mc.Xbar, mc.XbarName, mc.Widest = &cfg.MemXbar, "memxbar", cfg.LLC.LineBytes
	m, err := NewMemory(mc)
	if err != nil {
		return nil, err
	}
	k, reg := m.K, m.Reg
	fs := &FullSystem{K: k, Reg: reg, Ctrls: m.Ctrls}

	// Shared LLC between the core crossbar and the memory crossbar.
	llc, err := cache.New(k, cfg.LLC, reg, "llc")
	if err != nil {
		return nil, err
	}
	fs.LLC = llc
	mem.Connect(llc.MemPort(), m.FrontPort("llc"))

	coreXbar, err := xbar.New(k, cfg.CoreXbar, func(mem.Addr) int { return 0 }, reg, "corexbar")
	if err != nil {
		return nil, err
	}
	mem.Connect(coreXbar.AttachMemory("llc"), llc.CPUPort())

	for i := 0; i < cfg.Cores; i++ {
		l1, err := cache.New(k, cfg.L1, reg, fmt.Sprintf("l1_%d", i))
		if err != nil {
			return nil, err
		}
		coreCfg := cfg.Core
		coreCfg.RequestorID = i
		c, err := cpu.New(k, coreCfg, cfg.Workload(i), reg, fmt.Sprintf("core%d", i))
		if err != nil {
			return nil, err
		}
		connectCore(c.Port(), l1.CPUPort())
		mem.Connect(l1.MemPort(), coreXbar.AttachRequestor("l1"))
		fs.Cores = append(fs.Cores, c)
		fs.sources = append(fs.sources, c)
		fs.L1s = append(fs.L1s, l1)
	}
	return fs, nil
}

// Run starts every core and steps, 10 us at a time, until all finish their
// regions of interest or maxSim passes; it reports completion. The cores are
// the session's sources and it is given no controller or crossbar to drain: a
// core is done when its last memory operation has been answered.
func (fs *FullSystem) Run(maxSim sim.Tick) bool {
	s := Session{kernels: []*sim.Kernel{fs.K}, sources: fs.sources, step: 10 * sim.Microsecond}
	return s.Run(maxSim) == nil
}

// AggregateIPC averages per-core IPC.
func (fs *FullSystem) AggregateIPC() float64 {
	var sum float64
	for _, c := range fs.Cores {
		sum += c.IPC()
	}
	return sum / float64(len(fs.Cores))
}

// MemBandwidth sums controller bandwidths.
func (fs *FullSystem) MemBandwidth() float64 { return sumBandwidth(fs.Ctrls) }

// AvgBusUtilisation averages controller bus utilisation.
func (fs *FullSystem) AvgBusUtilisation() float64 { return avgBusUtilisation(fs.Ctrls) }
