package stats

import (
	"fmt"

	"repro/internal/sim"
)

// Periodic sampling (paper §II-E: gem5's statistics framework can
// "initialise, reset and output a large selection of performance-related
// numbers at arbitrary points in time"). A Sampler fires a callback at a
// fixed simulated interval; Series captures one metric as a time series on
// top of it, and obs.SamplerProbe samples controller state the same way.

// Sampler invokes a callback every interval of simulated time.
type Sampler struct {
	k        *sim.Kernel
	interval sim.Tick
	fn       func(now sim.Tick)
	ev       *sim.Event
	running  bool
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
	if !s.running {
		return
	}
	s.fn(s.k.Now())
	s.k.Schedule(s.ev, s.k.Now()+s.interval)
}

// Start schedules the first sample one interval from now.
func (s *Sampler) Start() {
	if s.running {
		return
	}
	s.running = true
	s.k.Schedule(s.ev, s.k.Now()+s.interval)
}

// Stop cancels future samples.
func (s *Sampler) Stop() {
	if !s.running {
		return
	}
	s.running = false
	if s.ev.Scheduled() {
		s.k.Deschedule(s.ev)
	}
}

// Point is one time-series sample.
type Point struct {
	At    sim.Tick
	Value float64
}

// Series captures a metric over simulated time: every interval it samples
// the probe function. Use it to watch bandwidth, queue depth or latency
// evolve through a run.
type Series struct {
	sampler *Sampler
	probe   func() float64
	points  []Point
	// Delta makes the series record per-interval differences of a
	// monotonically growing probe (e.g. bytes moved -> bytes per interval).
	delta bool
	last  float64
}

// NewSeries builds a time series over probe, sampled every interval.
// With delta=true the recorded value is the increase since the previous
// sample (turning cumulative counters into rates).
func NewSeries(k *sim.Kernel, interval sim.Tick, probe func() float64, delta bool) (*Series, error) {
	if probe == nil {
		return nil, fmt.Errorf("stats: nil series probe")
	}
	se := &Series{probe: probe, delta: delta}
	var err error
	se.sampler, err = NewSampler(k, interval, func(now sim.Tick) {
		v := probe()
		if se.delta {
			d := v - se.last
			se.last = v
			v = d
		}
		se.points = append(se.points, Point{At: now, Value: v})
	})
	if err != nil {
		return nil, err
	}
	return se, nil
}

// Start begins sampling.
func (s *Series) Start() { s.sampler.Start() }

// Stop ends sampling.
func (s *Series) Stop() { s.sampler.Stop() }

// Points returns the captured samples in time order.
func (s *Series) Points() []Point {
	out := make([]Point, len(s.points))
	copy(out, s.points)
	return out
}

// Max returns the largest captured value (0 for an empty series).
func (s *Series) Max() float64 {
	var m float64
	for _, p := range s.points {
		if p.Value > m {
			m = p.Value
		}
	}
	return m
}

// Mean returns the average captured value (0 for an empty series).
func (s *Series) Mean() float64 {
	if len(s.points) == 0 {
		return 0
	}
	var sum float64
	for _, p := range s.points {
		sum += p.Value
	}
	return sum / float64(len(s.points))
}
