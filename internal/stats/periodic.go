package stats

import (
	"fmt"

	"repro/internal/sim"
)

// Periodic sampling (paper §II-E: gem5's statistics framework can
// "initialise, reset and output a large selection of performance-related
// numbers at arbitrary points in time"). A Sampler fires a callback at a
// fixed simulated interval; obs.SamplerProbe, the one time-series mechanism,
// samples controller state and bandwidth on top of it.

// Sampler invokes a callback every interval of simulated time.
type Sampler struct {
	k        *sim.Kernel
	interval sim.Tick
	fn       func(now sim.Tick)
	ev       *sim.Event
}

// NewSampler builds a sampler; call Start to begin.
func NewSampler(k *sim.Kernel, interval sim.Tick, fn func(now sim.Tick)) (*Sampler, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("stats: sampler interval must be positive")
	}
	if fn == nil {
		return nil, fmt.Errorf("stats: nil sampler callback")
	}
	s := &Sampler{k: k, interval: interval, fn: fn}
	s.ev = sim.NewEventPri("stats.sampler", sim.StatsPriority, s.fire)
	return s, nil
}

func (s *Sampler) fire() {
	s.fn(s.k.Now())
	s.k.Schedule(s.ev, s.k.Now()+s.interval)
}

// Start schedules the first sample one interval from now; the sampler then
// runs for the rest of the simulation.
func (s *Sampler) Start() {
	if !s.ev.Scheduled() {
		s.k.Schedule(s.ev, s.k.Now()+s.interval)
	}
}
