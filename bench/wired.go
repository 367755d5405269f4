package main

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trafficgen"
	"repro/internal/xbar"
)

// This file hand-wires each workload's topology from the public
// constructors, event model only, with a tap on every link. Names,
// construction order and run loops follow internal/system's rigs exactly;
// tap_test.go checks that the result is the same computation (same stats
// digest, same event count). For the sharded workloads the traced topology
// is the single-kernel one (system.MultiChannelRig's): the sharding cost is
// taken by difference.

// wired is a tapped system plus what only the traced pass needs.
type wired struct {
	*built
	taps     []*tap
	ctrlTap0 *tap // the tap in front of the first controller; it captures
	oracles  []*power.CommandTrace
	evCtrls  []*core.Controller
}

// wireOptions shape a wired build.
type wireOptions struct {
	tr *tracer
	// oracle attaches an obs.Hub with a power.CommandTrace to every
	// controller, for power.CheckTiming after the run. It costs host time,
	// so only the discarded warm-up segment of the traced pass carries it.
	oracle bool
	// captureReqs > 0 keeps that many requests at the first controller's tap.
	captureReqs int
}

func (x *wired) tap(k *sim.Kernel, o wireOptions, name, upLayer, downLayer string, req *mem.RequestPort, resp *mem.ResponsePort) *tap {
	t := newTap(o.tr, k, name, upLayer, downLayer)
	t.splice(req, resp)
	x.taps = append(x.taps, t)
	return t
}

// controller builds one event-model controller as the rigs do.
func (x *wired) controller(k *sim.Kernel, w *workload, o wireOptions, reg *stats.Registry, name string) (*core.Controller, error) {
	cfg := matchedEventConfig(w)
	if o.oracle {
		trace := &power.CommandTrace{}
		hub := obs.NewHub()
		hub.Attach(obs.CommandFunc(trace.Record))
		cfg.Probes = hub
		x.oracles = append(x.oracles, trace)
	}
	ctrl, err := core.NewController(k, cfg, reg, name)
	if err != nil {
		return nil, err
	}
	x.evCtrls = append(x.evCtrls, ctrl)
	x.ctrls = append(x.ctrls, ctrl)
	return ctrl, nil
}

// ctrlTap puts a tap in front of a controller; upLayer names the layer that
// sends to it. The first controller's tap captures its request stream.
func (x *wired) ctrlTap(k *sim.Kernel, o wireOptions, upLayer string, req *mem.RequestPort, ctrl *core.Controller) {
	t := x.tap(k, o, ctrl.Name(), upLayer, "core.", req, ctrl.Port())
	if x.ctrlTap0 == nil {
		x.ctrlTap0 = t
		t.capture = make([]capturedReq, 0, o.captureReqs)
	}
}

// drainOrQuiet mirrors the rigs' end-of-run step: a controller holding
// writes below its watermark is told to drain; it reports whether every
// controller is quiescent.
func (x *wired) drainOrQuiet() bool {
	quiet := true
	for _, c := range x.evCtrls {
		if !c.Quiescent() {
			c.Drain()
			quiet = false
		}
	}
	return quiet
}

// buildWired assembles the tapped topology of w for a segment of reqs
// requests.
func buildWired(w *workload, seed int64, reqs uint64, o wireOptions) (*wired, error) {
	k := sim.NewKernel()
	reg := stats.NewRegistry("sys")
	x := &wired{built: &built{reg: reg, kernels: kernelList(k)}}
	switch w.topo {
	case topoTraffic:
		return x, x.wireTraffic(k, reg, w, seed, reqs, o)
	case topoFullSys:
		return x, x.wireFullSys(k, reg, w, seed, reqs, o)
	case topoSharded:
		return x, x.wireMultiChannel(k, reg, w, seed, reqs, o)
	}
	return nil, fmt.Errorf("bench: unknown topology %d", w.topo)
}

// wireTraffic is system.NewTrafficRig with a tap between generator and
// controller.
func (x *wired) wireTraffic(k *sim.Kernel, reg *stats.Registry, w *workload, seed int64, reqs uint64, o wireOptions) error {
	ctrl, err := x.controller(k, w, o, reg, "mc")
	if err != nil {
		return err
	}
	gen, err := trafficgen.New(k, w.genConfig(reqs, 0), w.newPattern(seed, 0), reg, "gen")
	if err != nil {
		return err
	}
	x.ctrlTap(k, o, "trafficgen.", gen.Port(), ctrl)
	x.gens = []*trafficgen.Generator{gen}
	x.run = func() bool {
		gen.Start()
		deadline := k.Now() + maxSim
		for k.Now() < deadline {
			k.RunUntil(k.Now() + sim.Microsecond)
			if gen.Done() {
				if !x.drainOrQuiet() {
					continue
				}
				return true
			}
		}
		return false
	}
	return nil
}

// routeGranularity is the crossbar interleave the rigs use: the mapping's,
// widened so that no request of size bytes straddles a channel.
func routeGranularity(w *workload, bytes uint64) (uint64, error) {
	dec, err := routeDecoder(w)
	if err != nil {
		return 0, err
	}
	gran := dec.InterleaveBytes()
	for gran < bytes {
		gran *= 2
	}
	return gran, nil
}

// wireMultiChannel is system.NewMultiChannelRig with taps on both sides of
// the crossbar.
func (x *wired) wireMultiChannel(k *sim.Kernel, reg *stats.Registry, w *workload, seed int64, reqs uint64, o wireOptions) error {
	gran, err := routeGranularity(w, spec().Org.BurstBytes())
	if err != nil {
		return err
	}
	xb, err := xbar.New(k, chanXbarConfig(), xbar.InterleaveRoute(w.channels, gran), reg, "xbar")
	if err != nil {
		return err
	}
	for i := 0; i < w.channels; i++ {
		ctrl, err := x.controller(k, w, o, reg, fmt.Sprintf("mc%d", i))
		if err != nil {
			return err
		}
		x.ctrlTap(k, o, "xbar.", xb.AttachMemory("mem"), ctrl)
	}
	for i := 0; i < w.units(); i++ {
		name := fmt.Sprintf("gen%d", i)
		gen, err := trafficgen.New(k, w.genConfig(reqs, i), w.newPattern(seed, i), reg, name)
		if err != nil {
			return err
		}
		x.tap(k, o, name, "trafficgen.", "xbar.", gen.Port(), xb.AttachRequestor("gen"))
		x.gens = append(x.gens, gen)
	}
	x.run = func() bool {
		for _, g := range x.gens {
			g.Start()
		}
		deadline := k.Now() + maxSim
		for k.Now() < deadline {
			k.RunUntil(k.Now() + sim.Microsecond)
			allDone := true
			for _, g := range x.gens {
				if !g.Done() {
					allDone = false
					break
				}
			}
			if !allDone {
				continue
			}
			quiet := xb.Quiescent() && xb.InFlight() == 0
			if !x.drainOrQuiet() {
				quiet = false
			}
			if quiet {
				return true
			}
		}
		return false
	}
	return nil
}

// wireFullSys is system.NewFullSystem with a tap on every link: core -> L1
// -> core crossbar -> LLC -> memory crossbar -> controller.
func (x *wired) wireFullSys(k *sim.Kernel, reg *stats.Registry, w *workload, seed int64, reqs uint64, o wireOptions) error {
	llcCfg := llcConfig()
	gran, err := routeGranularity(w, llcCfg.LineBytes)
	if err != nil {
		return err
	}
	memXbar, err := xbar.New(k, memXbarConfig(), xbar.InterleaveRoute(w.channels, gran), reg, "memxbar")
	if err != nil {
		return err
	}
	for i := 0; i < w.channels; i++ {
		ctrl, err := x.controller(k, w, o, reg, fmt.Sprintf("mc%d", i))
		if err != nil {
			return err
		}
		x.ctrlTap(k, o, "xbar.", memXbar.AttachMemory("mem"), ctrl)
	}
	llc, err := cache.New(k, llcCfg, reg, "llc")
	if err != nil {
		return err
	}
	x.llc = llc
	x.tap(k, o, "llc-memxbar", "cache.llc_", "xbar.", llc.MemPort(), memXbar.AttachRequestor("llc"))

	coreXbar, err := xbar.New(k, coreXbarConfig(), func(mem.Addr) int { return 0 }, reg, "corexbar")
	if err != nil {
		return err
	}
	x.tap(k, o, "corexbar-llc", "xbar.", "cache.llc_", coreXbar.AttachMemory("llc"), llc.CPUPort())

	for i := 0; i < w.units(); i++ {
		l1, err := cache.New(k, l1Config(), reg, fmt.Sprintf("l1_%d", i))
		if err != nil {
			return err
		}
		coreCfg := w.coreConfig(reqs)
		coreCfg.RequestorID = i
		c, err := cpu.New(k, coreCfg, w.newPattern(seed, i), reg, fmt.Sprintf("core%d", i))
		if err != nil {
			return err
		}
		x.tap(k, o, fmt.Sprintf("core%d-l1", i), "cpu.", "cache.l1_", c.Port(), l1.CPUPort())
		x.tap(k, o, fmt.Sprintf("l1_%d-corexbar", i), "cache.l1_", "xbar.", l1.MemPort(), coreXbar.AttachRequestor("l1"))
		x.cores = append(x.cores, c)
		x.l1s = append(x.l1s, l1)
	}
	x.run = func() bool {
		for _, c := range x.cores {
			c.Start()
		}
		deadline := k.Now() + maxSim
		for k.Now() < deadline {
			k.RunUntil(k.Now() + 10*sim.Microsecond)
			done := true
			for _, c := range x.cores {
				if !c.Done() {
					done = false
					break
				}
			}
			if done {
				return true
			}
		}
		return false
	}
	return nil
}

// timingViolations runs the timing oracle over every recorded command trace.
func (x *wired) timingViolations() (commands, violations int) {
	for _, tr := range x.oracles {
		cmds := tr.Commands()
		commands += len(cmds)
		violations += len(power.CheckTiming(spec(), cmds))
	}
	return commands, violations
}

// refusedShare is refused SendTimingReq calls over attempts, across taps.
func (x *wired) refusedShare() float64 {
	var attempts, refused uint64
	for _, t := range x.taps {
		attempts += t.attempts
		refused += t.refused
	}
	if attempts == 0 {
		return 0
	}
	return float64(refused) / float64(attempts)
}
