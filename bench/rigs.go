package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/system"
	"repro/internal/trafficgen"
)

// This is the only file that calls into internal/system. The planned rig
// collapse (ROADMAP: one rig where single-channel is the 1-shard case) needs
// a follow-up here and nowhere else in the benchmark.

func (m model) kind() system.Kind {
	if m == eventModel {
		return system.EventBased
	}
	return system.CycleBased
}

// matchedEventConfig is the event-model controller configuration the rigs
// use; the hand-wired traced topology and the isolation pass build their
// controllers from the same one.
func matchedEventConfig(w *workload) core.Config {
	return system.MatchedEventConfig(spec(), w.mapping, w.channels, w.closedPage)
}

func ctrlList(cs []system.Controller) []controller {
	out := make([]controller, len(cs))
	for i, c := range cs {
		out[i] = c
	}
	return out
}

func (w *workload) gensAndPatterns(seed int64, reqs uint64) ([]trafficgen.Config, []trafficgen.Pattern) {
	gens := make([]trafficgen.Config, w.units())
	pats := make([]trafficgen.Pattern, w.units())
	for i := range gens {
		gens[i] = w.genConfig(reqs, i)
		pats[i] = w.newPattern(seed, i)
	}
	return gens, pats
}

// buildRig assembles the workload's system through internal/system, the way
// the product's own drivers do. singleKernel swaps the sharded rig for its
// one-kernel twin (system.MultiChannelRig).
func buildRig(w *workload, m model, seed int64, reqs uint64, workers int, singleKernel bool) (*built, error) {
	switch w.topo {
	case topoTraffic:
		rig, err := system.NewTrafficRig(system.RigConfig{
			Kind: m.kind(), Spec: spec(), Mapping: w.mapping, ClosedPage: w.closedPage,
			Gen: w.genConfig(reqs, 0), Pattern: w.newPattern(seed, 0),
		})
		if err != nil {
			return nil, err
		}
		return &built{
			run: func() bool { return rig.Run(maxSim) }, reg: rig.Reg,
			kernels: kernelList(rig.K), ctrls: []controller{rig.Ctrl},
			gens: []*trafficgen.Generator{rig.Gen},
		}, nil

	case topoFullSys:
		fs, err := system.NewFullSystem(system.MultiCoreConfig{
			Cores: fullSysCores, Core: w.coreConfig(reqs),
			Workload: func(id int) trafficgen.Pattern { return w.newPattern(seed, id) },
			L1:       l1Config(), LLC: llcConfig(),
			Kind: m.kind(), Spec: spec(), Mapping: w.mapping,
			ClosedPage: w.closedPage, Channels: w.channels,
			CoreXbar: coreXbarConfig(), MemXbar: memXbarConfig(),
		})
		if err != nil {
			return nil, err
		}
		return &built{
			run: func() bool { return fs.Run(maxSim) }, reg: fs.Reg,
			kernels: kernelList(fs.K), ctrls: ctrlList(fs.Ctrls),
			cores: fs.Cores, l1s: fs.L1s, llc: fs.LLC,
		}, nil

	case topoSharded:
		gens, pats := w.gensAndPatterns(seed, reqs)
		if singleKernel {
			rig, err := system.NewMultiChannelRig(system.MultiChannelConfig{
				Kind: m.kind(), Spec: spec(), Mapping: w.mapping, ClosedPage: w.closedPage,
				Channels: w.channels, Xbar: chanXbarConfig(), Gens: gens, Patterns: pats,
			})
			if err != nil {
				return nil, err
			}
			return &built{
				run: func() bool { return rig.Run(maxSim) }, reg: rig.Reg,
				kernels: kernelList(rig.K), ctrls: ctrlList(rig.Ctrls), gens: rig.Gens,
			}, nil
		}
		rig, err := system.NewShardedRig(system.ShardedConfig{
			Kind: m.kind(), Spec: spec(), Mapping: w.mapping, ClosedPage: w.closedPage,
			Channels: w.channels, Xbar: chanXbarConfig(), Gens: gens, Patterns: pats,
			Workers: workers,
		})
		if err != nil {
			return nil, err
		}
		b := &built{
			reg: rig.Reg, kernels: append(kernelList(rig.Front), rig.Chans...),
			ctrls: ctrlList(rig.Ctrls), gens: rig.Gens,
		}
		// Step the session from here rather than calling rig.Run, which is
		// the same loop, so the barrier count and the time of each Step are
		// visible from outside.
		b.run = func() bool {
			s, err := rig.NewSession("", maxSim)
			if err != nil {
				return false
			}
			defer s.Close()
			s.Start()
			for {
				done, err := s.Step()
				if done || err != nil {
					b.steps = s.Steps()
					return done
				}
			}
		}
		return b, nil
	}
	return nil, fmt.Errorf("bench: unknown topology %d", w.topo)
}
