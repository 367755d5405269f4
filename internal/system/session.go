package system

import (
	"fmt"

	"repro/internal/checkpoint"
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
// trafficgen.Generator, a trafficgen.TracePlayer or a cpu.Core.
type Source interface {
	Start()
	Done() bool
}

// Session is a steppable run of one wired system. Each Step advances every
// kernel to a common tick and then runs a single-threaded section (link
// flush, step hook, completion check), so between Steps all kernels are
// parked at the same tick and every link outbox is empty. On one kernel that
// is a valid checkpoint boundary. It satisfies supervisor.Session.
type Session struct {
	// Deadline is the absolute simulated tick by which the run must
	// complete; a Step that reaches it without completing returns an error.
	Deadline sim.Tick
	// OnStep, when set, runs after every advance in the single-threaded
	// section — the place to drain probe buffers (obs.Tracer.Flush). An error
	// from it fails the Step.
	OnStep func() error

	kernels []*sim.Kernel    // [0] is the frontend; the rest are channel shards
	links   []*mem.ShardLink // one per shard kernel; none on a single kernel
	sources []Source
	xbar    *xbar.Crossbar // nil when sources talk to a controller directly
	ctrls   []Controller
	reg     *stats.Registry

	step    sim.Tick // barrier quantum: 1 us, 10 us, or the link lookahead when sharded
	workers []*shardWorker

	mgr   *checkpoint.Manager // nil until Supervise
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

// Supervise builds the session's checkpoint manager, registering every
// component in a fixed, configuration-derived order. A checkpoint's identity
// is what the components state about themselves (checkpoint.Configured) plus
// what the session states here: its step quantum, which fixes the barrier
// schedule, and scope, a caller label compared verbatim. Every configuration
// field but the probes is stated by its component, so there is nothing left
// for a label to name: every caller passes "", and the parameter is kept only
// because bench/ (frozen for product PRs) calls the rigs' NewSession(scope,
// …), which forwards it here. Callers with further components (the tracer)
// register them on Manager() afterwards. Only one-kernel sessions checkpoint:
// a shard link carries no save/restore, so a sharded session is refused.
func (s *Session) Supervise(scope string) error {
	if len(s.links) > 0 {
		return fmt.Errorf("system: a sharded session does not support checkpointing")
	}
	mgr := checkpoint.NewManager()
	mgr.Describe("session", struct {
		Scope string
		Step  sim.Tick
	}{scope, s.step})
	var err error
	register := func(id string, c any) {
		if cc, ok := c.(checkpoint.Checkpointable); ok {
			mgr.Register(id, cc)
		} else if err == nil {
			err = fmt.Errorf("system: %s (%T) does not support checkpointing", id, c)
		}
	}
	for i, k := range s.kernels {
		register(kernelName(i), checkpoint.WrapKernel(k))
	}
	if s.xbar != nil {
		register("xbar", s.xbar)
	}
	for i, c := range s.ctrls {
		register(fmt.Sprintf("mc%d", i), c)
	}
	for i, src := range s.sources {
		register(fmt.Sprintf("gen%d", i), src)
	}
	register("stats", checkpoint.WrapStats(s.reg))
	if err == nil {
		s.mgr = mgr
	}
	return err
}

// supervised is the rigs' NewSession: Supervise plus the deadline.
func (s Session) supervised(scope string, maxSim sim.Tick) (*Session, error) {
	s.Deadline = maxSim
	if err := s.Supervise(scope); err != nil {
		s.Close()
		return nil, err
	}
	return &s, nil
}

// Manager returns the checkpoint manager (nil before Supervise).
func (s *Session) Manager() *checkpoint.Manager { return s.mgr }

// Now returns the frontend kernel's tick (== every kernel's tick between
// Steps).
func (s *Session) Now() sim.Tick { return s.kernels[0].Now() }

// Steps returns how many barriers the session has executed.
func (s *Session) Steps() uint64 { return s.steps }

// Start arms the traffic sources. Call exactly once for a fresh run; never
// after a restore (the checkpoint carries the sources' event state).
func (s *Session) Start() {
	for _, src := range s.sources {
		src.Start()
	}
}

// Run starts a fresh run and steps it until every source finishes and the
// system drains (nil), or until maxSim simulated time passes or a kernel's
// watchdog trips (the error). A panic in any shard is re-raised on the
// calling goroutine.
func (s *Session) Run(maxSim sim.Tick) error {
	s.Deadline = s.Now() + maxSim
	s.Start()
	for {
		if done, err := s.Step(); done || err != nil {
			return err
		}
	}
}

// Step advances one quantum plus the single-threaded section and reports
// completion. A watchdog trip surfaces as the error (sharded: as a
// *ShardPanicError panic), and reaching Deadline is an error too.
func (s *Session) Step() (bool, error) {
	// A session restored from a completion checkpoint already sits at the
	// boundary where the run finished. Advancing another quantum would move
	// Now past the recorded completion time and skew every time-normalised
	// statistic (bus utilisation divides by Now), so completion must be
	// detected before stepping, not only after.
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

// advance runs every kernel to limit and publishes cross-shard traffic. The
// channel send/receive pairs give the coordinator-worker handoff the
// happens-before edges the memory model (and the race detector) require.
// Shard failures are collected from EVERY worker — the handoff always
// completes before anything is re-raised — and re-thrown as one
// *ShardPanicError carrying worker and kernel identity for each.
func (s *Session) advance(limit sim.Tick) error {
	if len(s.kernels) == 1 {
		_, err := s.kernels[0].RunUntilErr(limit)
		return err
	}
	var pvs []ShardPanic
	if len(s.workers) == 0 {
		for i, k := range s.kernels {
			if pv := runShardKernel(k, limit); pv != nil {
				pvs = append(pvs, ShardPanic{Worker: 0, Kernel: kernelName(i), Value: pv})
			}
		}
	} else {
		for _, w := range s.workers {
			w.limit <- limit
		}
		for _, w := range s.workers {
			pvs = append(pvs, <-w.done...)
		}
	}
	if len(pvs) > 0 {
		panic(&ShardPanicError{Panics: pvs})
	}
	for _, l := range s.links {
		l.Flush()
	}
	return nil
}

// Close stops the worker goroutines. The system itself stays usable (stats,
// bandwidth queries), and further Steps run serially.
func (s *Session) Close() {
	for _, w := range s.workers {
		close(w.limit)
	}
	s.workers = nil
}

// kernelName labels kernels[i] for checkpoint sections and panic
// attribution.
func kernelName(i int) string {
	if i == 0 {
		return "front"
	}
	return fmt.Sprintf("chan%d", i-1)
}

// ShardPanic identifies one shard kernel's failure: which worker goroutine
// ran it, which kernel it was, and the recovered panic value (or the
// *sim.WatchdogError that stopped it).
type ShardPanic struct {
	Worker int    // worker index (0-based)
	Kernel string // "front" or "chan<N>"
	Value  any    // the recovered panic value
}

// ShardPanicError aggregates every shard failure from one quantum. With
// several workers more than one shard can fail in the same quantum; keeping
// only one hides the others and makes the surviving report depend on
// goroutine timing.
type ShardPanicError struct {
	Panics []ShardPanic
}

func (e *ShardPanicError) Error() string {
	s := fmt.Sprintf("system: %d shard panic(s) in quantum:", len(e.Panics))
	for _, p := range e.Panics {
		s += fmt.Sprintf(" [worker %d, kernel %s: %v]", p.Worker, p.Kernel, p.Value)
	}
	return s
}

// shardWorker is one persistent goroutine stepping a fixed subset of
// kernels each quantum.
type shardWorker struct {
	limit chan sim.Tick
	done  chan []ShardPanic // empty slice (as nil) on success
}

// startWorkers spins up n goroutines over the kernels, assigned round-robin;
// n <= 1 returns none and the session steps every kernel on the calling
// goroutine. Either way the schedule is identical.
func startWorkers(kernels []*sim.Kernel, n int) []*shardWorker {
	if n > len(kernels) {
		n = len(kernels)
	}
	if n <= 1 {
		return nil
	}
	workers := make([]*shardWorker, n)
	for j := range workers {
		w := &shardWorker{limit: make(chan sim.Tick), done: make(chan []ShardPanic, 1)}
		workers[j] = w
		go func() {
			for limit := range w.limit {
				// Recover per kernel, not per batch: a panicking shard must
				// not stop the worker from finishing its remaining kernels,
				// and the handoff to the coordinator always completes — so
				// the pool stays in a defined state and Close can never hang
				// on a dead worker.
				var pvs []ShardPanic
				for i := j; i < len(kernels); i += n {
					if pv := runShardKernel(kernels[i], limit); pv != nil {
						pvs = append(pvs, ShardPanic{Worker: j, Kernel: kernelName(i), Value: pv})
					}
				}
				w.done <- pvs
			}
		}()
	}
	return workers
}

// runShardKernel advances one kernel to the barrier, translating a panic or
// a watchdog trip into a returned value.
func runShardKernel(k *sim.Kernel, limit sim.Tick) (pv any) {
	defer func() {
		if r := recover(); r != nil {
			pv = r
		}
	}()
	if _, err := k.RunUntilErr(limit); err != nil {
		return err
	}
	return nil
}
