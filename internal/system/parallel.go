package system

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trafficgen"
	"repro/internal/xbar"
)

// This file implements the sharded multi-channel rig. Channel interleaving
// happens in the crossbar (paper §II-E), so downstream of it each DRAM
// channel is an independent timing domain: its controller, DRAM state,
// refresh machinery and statistics never touch another channel's. The rig
// gives every channel its own sim.Kernel behind a mem.ShardLink and steps the
// kernels one after another in fixed time quanta — conservative
// discrete-event simulation with the channel links as the lookahead device.
//
// Determinism argument, in full:
//
//  1. Within a quantum, a kernel only reads and writes its own state. The
//     single cross-kernel channel is mem.ShardLink, and during a quantum a
//     kernel only appends to its side's outbox.
//  2. Outboxes are published once every kernel has reached the quantum's
//     end, by Session.advance, in a fixed order. Every cross-kernel event (a
//     link delivery) is therefore scheduled at a fixed point of the run.
//  3. The quantum never exceeds the link latency, so a published packet is
//     always due at or after the barrier tick: it lands in the receiving
//     kernel's future and can never reorder against events the receiver
//     already executed.
//
// Hence the event sequence of every kernel — and every statistic — is a
// pure function of the configuration, whatever order the kernels are stepped
// in within a quantum.
//
// The sharded topology is not timing-identical to MultiChannelRig: each
// request pays one extra link hop each way (the lookahead latency), which
// models the physical channel interconnect the single-kernel rig folds into
// the crossbar. It has never paid: stepped serially the sharded rig costs
// about 1.7x the one-kernel rig on the same traffic, and stepping the kernels
// on worker goroutines ran at 0.4-0.5x of that serial speed (the barrier is
// 2 ns of simulated time), so there are no workers. No product command builds
// it — dramctrl -channels N is N controllers behind a crossbar on one kernel —
// and it stays only because the frozen benchmark constructs it, with exactly
// the surface the benchmark uses: no probes, no controller tuning, no
// checkpointing. It is built by NewMemory like every other memory side,
// through the placement hook only it passes. ROADMAP items 4-5 have the
// removal order.

// ShardedConfig shapes a ShardedRig.
type ShardedConfig struct {
	Kind       Kind
	Spec       dram.Spec
	Mapping    dram.Mapping
	ClosedPage bool
	Channels   int
	Xbar       xbar.Config
	// Gens and Patterns pair up; one generator per entry.
	Gens     []trafficgen.Config
	Patterns []trafficgen.Pattern
	// Workers is ignored: every kernel is stepped on the calling goroutine.
	// The field stays because the frozen benchmark sets it.
	Workers int
}

// ShardedRig is the sharded counterpart of MultiChannelRig: generators and
// crossbar on a frontend kernel, each channel controller on its own kernel
// behind a ShardLink.
type ShardedRig struct {
	Front *sim.Kernel
	Chans []*sim.Kernel
	Reg   *stats.Registry
	Gens  []*trafficgen.Generator
	Xbar  *xbar.Crossbar
	Ctrls []Controller
	Links []*mem.ShardLink

	lookahead sim.Tick
}

// NewShardedRig builds the sharded multi-channel system.
func NewShardedRig(cfg ShardedConfig) (*ShardedRig, error) {
	// The one-way link latency, and so the barrier quantum, is the crossbar
	// latency (or 1ns if that is 0).
	lookahead := cfg.Xbar.Latency
	if lookahead <= 0 {
		lookahead = sim.Nanosecond
	}

	mc := matchedMemory(cfg.Kind, cfg.Spec, cfg.Mapping, cfg.Channels, cfg.ClosedPage, nil)
	mc.Xbar = &cfg.Xbar
	var err error
	if mc.Widest, err = widestRequest(cfg.Gens, cfg.Patterns); err != nil {
		return nil, err
	}
	rig := &ShardedRig{lookahead: lookahead}
	m, err := newMemory(mc, func(front *sim.Kernel, i int) (*sim.Kernel, func(*mem.RequestPort, *mem.ResponsePort)) {
		ck := sim.NewKernel()
		link := mem.NewShardLink(fmt.Sprintf("link%d", i), front, ck, lookahead)
		rig.Chans = append(rig.Chans, ck)
		rig.Links = append(rig.Links, link)
		return ck, func(xbarSide *mem.RequestPort, ctrl *mem.ResponsePort) {
			mem.Connect(xbarSide, link.FrontPort())
			mem.Connect(link.BackPort(), ctrl)
		}
	})
	if err != nil {
		return nil, err
	}
	rig.Front, rig.Reg, rig.Xbar, rig.Ctrls = m.K, m.Reg, m.Xbar, m.Ctrls
	if rig.Gens, err = attachGens(m, cfg.Gens, cfg.Patterns); err != nil {
		return nil, err
	}
	return rig, nil
}

// session wraps the rig's parts for stepping.
func (r *ShardedRig) session() Session {
	return Session{
		kernels: append([]*sim.Kernel{r.Front}, r.Chans...), links: r.Links,
		reg: r.Reg, xbar: r.Xbar, ctrls: r.Ctrls, sources: sourcesOf(r.Gens),
		step: r.lookahead,
	}
}

// NewSession wraps the sharded rig for stepping from outside until maxSim.
// The label is unused and the error always nil; the signature is the one the
// frozen benchmark calls.
func (r *ShardedRig) NewSession(_ string, maxSim sim.Tick) (*Session, error) {
	s := r.session()
	s.Deadline = maxSim
	return &s, nil
}

// Run starts all generators and steps the shards in lookahead-sized quanta
// until every generator finishes and the system drains, or until maxSim
// simulated time passes. It reports whether the run completed.
func (r *ShardedRig) Run(maxSim sim.Tick) bool {
	s := r.session()
	return s.Run(maxSim) == nil
}

// AggregateBandwidth sums channel bandwidths.
func (r *ShardedRig) AggregateBandwidth() float64 { return sumBandwidth(r.Ctrls) }

// AvgBusUtilisation averages controller bus utilisation.
func (r *ShardedRig) AvgBusUtilisation() float64 { return avgBusUtilisation(r.Ctrls) }
