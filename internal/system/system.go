// Package system assembles complete simulated systems out of the building
// blocks: traffic generators or CPU cores, caches, crossbars and DRAM
// controllers (event-based or cycle-based). It is the Go equivalent of the
// gem5 Python configuration layer the paper describes in §II-E. The
// experiment drivers and the benchmark build their systems through the rigs
// here; cmd/dramctrl (any channel count, behind InterleavedXbar when there is
// more than one), cmd/protocheck and cmd/validate wire a kernel, controllers
// and a source by hand and the examples use the kernel API directly. Whoever
// wires it, every run is driven by the one Session in session.go. ShardedRig
// (parallel.go) has no product caller left: it stays only because the frozen
// benchmark constructs it.
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

// ctrlConfig is what every topology says about its controllers: the model,
// the device, and the matched policies, with channels telling the address
// decoder how many channel bits the crossbar already consumed.
type ctrlConfig struct {
	kind       Kind
	spec       dram.Spec
	mapping    dram.Mapping
	channels   int
	closedPage bool
	// tuneEvent optionally adjusts the matched event-based configuration.
	tuneEvent func(*core.Config)
}

// build constructs one controller on k with matched policies, feeding
// observability events to hub (nil or empty disables instrumentation).
func (cc ctrlConfig) build(k *sim.Kernel, reg *stats.Registry, hub *obs.Hub, name string) (Controller, error) {
	switch cc.kind {
	case EventBased:
		cfg := MatchedEventConfig(cc.spec, cc.mapping, cc.channels, cc.closedPage)
		if cc.tuneEvent != nil {
			cc.tuneEvent(&cfg)
		}
		cfg.Probes = hub
		return core.NewController(k, cfg, reg, name)
	case CycleBased:
		cfg := MatchedCycleConfig(cc.spec, cc.mapping, cc.channels, cc.closedPage)
		cfg.Probes = hub
		return cyclesim.NewController(k, cfg, reg, name)
	}
	return nil, fmt.Errorf("system: unknown controller kind %d", cc.kind)
}

// InterleavedXbar builds the crossbar in front of channels controllers of
// org. It routes at the mapping's interleave granularity, widened to widest
// (the largest request any requestor sends) so no request straddles a channel
// (the paper's cache-line-or-page default, §II-F).
func InterleavedXbar(k *sim.Kernel, reg *stats.Registry, name string, xcfg xbar.Config,
	org dram.Organization, mapping dram.Mapping, channels int, widest uint64) (*xbar.Crossbar, error) {
	dec, err := dram.NewDecoder(org, mapping, channels)
	if err != nil {
		return nil, err
	}
	gran := dec.InterleaveBytes()
	for gran < widest {
		gran *= 2
	}
	return xbar.New(k, xcfg, xbar.InterleaveRoute(channels, gran), reg, name)
}

// genXbar is the frontend MultiChannelRig and ShardedRig share: it checks
// that generators and patterns pair up and builds the crossbar they will
// attach to, wide enough for the largest request.
func genXbar(k *sim.Kernel, reg *stats.Registry, xcfg xbar.Config, cc ctrlConfig,
	gens []trafficgen.Config, patterns []trafficgen.Pattern) (*xbar.Crossbar, error) {
	if len(gens) != len(patterns) || len(gens) == 0 {
		return nil, fmt.Errorf("system: generators (%d) and patterns (%d) must pair up", len(gens), len(patterns))
	}
	var widest uint64
	for _, g := range gens {
		widest = max(widest, g.RequestBytes)
	}
	return InterleavedXbar(k, reg, "xbar", xcfg, cc.spec.Org, cc.mapping, cc.channels, widest)
}

// attachGens builds one generator per configuration on the crossbar's
// kernel and connects it as a requestor — after the memory side, so port and
// statistics order match the topology's Figure 1 reading.
func attachGens(k *sim.Kernel, reg *stats.Registry, xb *xbar.Crossbar,
	cfgs []trafficgen.Config, patterns []trafficgen.Pattern) ([]*trafficgen.Generator, error) {
	gens := make([]*trafficgen.Generator, len(cfgs))
	for i := range cfgs {
		gen, err := trafficgen.New(k, cfgs[i], patterns[i], reg, fmt.Sprintf("gen%d", i))
		if err != nil {
			return nil, err
		}
		mem.Connect(gen.Port(), xb.AttachRequestor("gen"))
		gens[i] = gen
	}
	return gens, nil
}

// attachChannels builds the channel controllers on the crossbar's kernel and
// connects each to a memory-side port.
func attachChannels(k *sim.Kernel, reg *stats.Registry, xb *xbar.Crossbar, cc ctrlConfig) ([]Controller, error) {
	ctrls := make([]Controller, cc.channels)
	for i := range ctrls {
		ctrl, err := cc.build(k, reg, nil, fmt.Sprintf("mc%d", i))
		if err != nil {
			return nil, err
		}
		mem.Connect(xb.AttachMemory("mem"), ctrl.Port())
		ctrls[i] = ctrl
	}
	return ctrls, nil
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
	k := sim.NewKernel()
	reg := stats.NewRegistry("sys")
	cc := ctrlConfig{cfg.Kind, cfg.Spec, cfg.Mapping, 1, cfg.ClosedPage, cfg.TuneEvent}
	ctrl, err := cc.build(k, reg, cfg.Probes, "mc")
	if err != nil {
		return nil, err
	}
	gen, err := trafficgen.New(k, cfg.Gen, cfg.Pattern, reg, "gen")
	if err != nil {
		return nil, err
	}
	mem.Connect(gen.Port(), ctrl.Port())
	return &TrafficRig{K: k, Reg: reg, Gen: gen, Ctrl: ctrl}, nil
}

// session wraps the rig's parts for stepping, by value so Run can keep it on
// the stack.
func (r *TrafficRig) session() Session {
	return Session{kernels: []*sim.Kernel{r.K}, reg: r.Reg, ctrls: []Controller{r.Ctrl}, sources: []Source{r.Gen}, step: quantum}
}

// Run starts the generator and steps the simulation until the generator
// finishes and the controller drains, or until maxSim simulated time
// passes. It reports whether the run completed.
func (r *TrafficRig) Run(maxSim sim.Tick) bool {
	s := r.session()
	return s.Run(maxSim) == nil
}

// NewSession wraps the rig for supervised, checkpointable stepping (see
// Session.Supervise for scope, normally ""); maxSim bounds total simulated
// time across all segments.
func (r *TrafficRig) NewSession(scope string, maxSim sim.Tick) (*Session, error) {
	return r.session().supervised(scope, maxSim)
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
	k := sim.NewKernel()
	reg := stats.NewRegistry("sys")
	cc := ctrlConfig{cfg.Kind, cfg.Spec, cfg.Mapping, cfg.Channels, cfg.ClosedPage, nil}
	xb, err := genXbar(k, reg, cfg.Xbar, cc, cfg.Gens, cfg.Patterns)
	if err != nil {
		return nil, err
	}
	ctrls, err := attachChannels(k, reg, xb, cc)
	if err != nil {
		return nil, err
	}
	gens, err := attachGens(k, reg, xb, cfg.Gens, cfg.Patterns)
	if err != nil {
		return nil, err
	}
	return &MultiChannelRig{K: k, Reg: reg, Gens: gens, Xbar: xb, Ctrls: ctrls}, nil
}

// session wraps the rig's parts for stepping.
func (r *MultiChannelRig) session() Session {
	return Session{kernels: []*sim.Kernel{r.K}, reg: r.Reg, xbar: r.Xbar, ctrls: r.Ctrls, sources: sourcesOf(r.Gens), step: quantum}
}

// Run starts all generators and steps until done or the deadline.
func (r *MultiChannelRig) Run(maxSim sim.Tick) bool {
	s := r.session()
	return s.Run(maxSim) == nil
}

// NewSession wraps the multi-channel rig for supervised stepping; see
// (*TrafficRig).NewSession for the contract.
func (r *MultiChannelRig) NewSession(scope string, maxSim sim.Tick) (*Session, error) {
	return r.session().supervised(scope, maxSim)
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
	if cfg.Workload == nil {
		return nil, fmt.Errorf("system: nil workload factory")
	}
	k := sim.NewKernel()
	reg := stats.NewRegistry("sys")
	fs := &FullSystem{K: k, Reg: reg}

	// Memory side first: channels behind the memory crossbar, interleaved
	// at the mapping granularity but never below the LLC line size (fills
	// must not straddle channels).
	cc := ctrlConfig{cfg.Kind, cfg.Spec, cfg.Mapping, cfg.Channels, cfg.ClosedPage, tuneEvent}
	memXbar, err := InterleavedXbar(k, reg, "memxbar", cfg.MemXbar, cc.spec.Org, cc.mapping, cc.channels, cfg.LLC.LineBytes)
	if err != nil {
		return nil, err
	}
	if fs.Ctrls, err = attachChannels(k, reg, memXbar, cc); err != nil {
		return nil, err
	}

	// Shared LLC between the core crossbar and the memory crossbar.
	llc, err := cache.New(k, cfg.LLC, reg, "llc")
	if err != nil {
		return nil, err
	}
	fs.LLC = llc
	mem.Connect(llc.MemPort(), memXbar.AttachRequestor("llc"))

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
