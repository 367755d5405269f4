package system

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trafficgen"
	"repro/internal/xbar"
)

// This file holds the one run loop. Every topology — a generator on a
// controller, a crossbar fanning out to channels on one kernel, cores over
// caches, the benchmark's rig with each channel sharded onto its own kernel,
// or whatever frontend a CLI attached to a Memory — is driven by the same
// Session: advance, sources done?, drain, all quiescent?, deadline. The rigs'
// Run methods, the supervisor (internal/supervisor) and the CLIs all step it;
// nothing else in the tree re-implements that protocol.

// quantum is the stepping granularity of a memory system on one kernel. The
// full system steps by 10 us and a sharded session by the link lookahead.
const quantum = sim.Microsecond

// Source is a traffic source a session arms and waits for: a
// trafficgen.Generator, a trafficgen.TracePlayer or a cpu.Core, whose Start
// and Done are those of the trafficgen.Issuer each embeds.
type Source interface {
	Start()
	Done() bool
}

// Session is a steppable run of one wired system. Each Step advances every
// kernel to a common tick, then flushes the links, runs the step hook and
// checks completion, so between Steps all kernels are parked at the same tick
// and every link outbox is empty. It satisfies
// supervisor.Session: the same system, started and stepped, passes the same
// boundaries in the same states, which is what a checkpoint's replay needs.
type Session struct {
	// Deadline is the absolute simulated tick by which the run must
	// complete; a Step that reaches it without completing returns an error.
	Deadline sim.Tick
	// OnStep, when set, runs after every advance — the place to drain probe
	// buffers (obs.Tracer.Flush). An error from it fails the Step.
	OnStep func() error

	kernels []*sim.Kernel    // [0] is the frontend; the rest are channel shards
	links   []*mem.ShardLink // one per shard kernel; none on a single kernel
	sources []Source
	xbar    *xbar.Crossbar // nil when sources talk to a controller directly
	ctrls   []Controller
	reg     *stats.Registry

	step  sim.Tick // barrier quantum: 1 us, 10 us, or the link lookahead when sharded
	steps uint64
}

// sourcesOf adapts a rig's generator list to the session's source list.
func sourcesOf(gens []*trafficgen.Generator) []Source {
	out := make([]Source, len(gens))
	for i, g := range gens {
		out[i] = g
	}
	return out
}

// configured is a component built from static configuration that states it
// for a checkpoint's recipe: normally its own Config struct, so a field added
// there is covered without anyone listing it again. A field tagged
// `json:"-"` (probes) is outside the comparison.
type configured interface {
	CheckpointConfig() any
}

// Identity is what the session's components state about their configuration,
// by the ID a checkpoint files each under (xbar, mc<i>, gen<i>), plus the
// session's step quantum, which fixes the ticks a checkpoint can fall on. A
// component that states nothing (a trace player) is absent.
func (s *Session) Identity() map[string]any {
	out := map[string]any{"session": struct{ Step sim.Tick }{s.step}}
	add := func(id string, c any) {
		if cc, ok := c.(configured); ok {
			out[id] = cc.CheckpointConfig()
		}
	}
	if s.xbar != nil {
		add("xbar", s.xbar)
	}
	for i, c := range s.ctrls {
		add(fmt.Sprintf("mc%d", i), c)
	}
	for i, src := range s.sources {
		add(fmt.Sprintf("gen%d", i), src)
	}
	return out
}

// Now returns the frontend kernel's tick (== every kernel's tick between
// Steps).
func (s *Session) Now() sim.Tick { return s.kernels[0].Now() }

// Steps returns how many barriers the session has executed.
func (s *Session) Steps() uint64 { return s.steps }

// Start arms the traffic sources. Call exactly once.
func (s *Session) Start() {
	for _, src := range s.sources {
		src.Start()
	}
}

// Run starts a fresh run and steps it until every source finishes and the
// system drains (nil), or until maxSim simulated time passes or a kernel's
// watchdog trips (the error).
func (s *Session) Run(maxSim sim.Tick) error {
	s.Deadline = s.Now() + maxSim
	s.Start()
	for {
		if done, err := s.Step(); done || err != nil {
			return err
		}
	}
}

// Step advances every kernel one quantum, then flushes the links, runs OnStep
// and reports completion. A kernel's watchdog trip is the error, a
// *sim.WatchdogError whatever the topology, and reaching Deadline is an error
// too. A panic in an event propagates unchanged.
func (s *Session) Step() (bool, error) {
	// A session whose sources finished before it stepped (an empty trace)
	// is complete where it stands. Advancing another quantum would move Now
	// past the completion time and skew every time-normalised statistic (bus
	// utilisation divides by Now), so completion is detected before stepping,
	// not only after.
	if s.complete(false) {
		return true, nil
	}
	// The barrier is now+L, with L the session's quantum on a single kernel and
	// the link latency (= lookahead) when sharded: any packet a shard offers
	// during the quantum is due at its send tick plus L, which is at or after
	// the barrier, so it always lands in the receiving shard's future.
	if err := s.advance(s.Now() + s.step); err != nil {
		return false, err
	}
	s.steps++
	if s.OnStep != nil {
		if err := s.OnStep(); err != nil {
			return false, err
		}
	}
	if s.complete(true) {
		return true, nil
	}
	if s.Now() >= s.Deadline {
		return false, fmt.Errorf("system: simulation did not complete within %s", s.Deadline)
	}
	return false, nil
}

// complete reports the run's stopping condition: every source finished and
// the crossbar, links and controllers empty. With drain set, controllers
// still holding writes back (the event-based model's low watermark) are told
// to flush them once the sources are done.
func (s *Session) complete(drain bool) bool {
	for _, src := range s.sources {
		if !src.Done() {
			return false
		}
	}
	quiet := s.xbar == nil || s.xbar.Quiescent() && s.xbar.InFlight() == 0
	for _, l := range s.links {
		quiet = quiet && l.Quiescent()
	}
	for _, c := range s.ctrls {
		if c.Quiescent() {
			continue
		}
		quiet = false
		if d, ok := c.(Drainer); ok && drain {
			d.Drain()
		}
	}
	return quiet
}

// advance runs every kernel to limit, in order, on the calling goroutine,
// then publishes the links' cross-kernel traffic. The first kernel to fail
// (a watchdog trip) ends the advance with its error.
func (s *Session) advance(limit sim.Tick) error {
	for _, k := range s.kernels {
		if _, err := k.RunUntilErr(limit); err != nil {
			return err
		}
	}
	for _, l := range s.links {
		l.Flush()
	}
	return nil
}

// Close does nothing: a session holds no goroutine or file. It stays because
// the frozen benchmark calls it.
func (s *Session) Close() {}
