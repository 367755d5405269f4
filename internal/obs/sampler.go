package obs

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Periodic time-series sampling of controller-internal state that the
// aggregate statistics cannot reconstruct after the fact: instantaneous
// queue depths, the rolling bus-utilisation and row-hit figures, and which
// banks hold an open row (per-bank state residency), and the bandwidth of
// each interval (paper §II-E: statistics at arbitrary points in time). This is
// the one time-series mechanism: samples land in the run's stats.Registry as
// averages, and every tick's rows are handed to one publisher hook, which
// feeds the live HTTP endpoint and the bandwidth-over-time table.

// Sample is one instantaneous observation of a controller.
type Sample struct {
	ReadQueueLen   int
	WriteQueueLen  int
	BusUtilisation float64
	RowHitRate     float64
	BanksOpen      []bool // row-open state per bank, rank-major
	Draining       bool   // bus currently in write-drain mode
	// Per-rank CKE state (nil from controllers without low-power modelling):
	// at most one of the two is true for a given rank.
	RankPowerDown   []bool
	RankSelfRefresh []bool
	// BytesMoved is the data the controller has transferred so far, reads
	// and writes. The sampler turns successive readings into Bandwidth.
	BytesMoved float64
	// Bandwidth is the bytes per second moved over the interval this sample
	// closes. The sampler fills it in; a source leaves it zero.
	Bandwidth float64
}

// SampleSource is implemented by controllers that can be sampled. Both
// memory-controller models implement it. Name prefixes the source's metrics
// in the registry ("obs.<name>.readQueueDepth", ...).
type SampleSource interface {
	Name() string
	ObsSample() Sample
}

// sampler periodically samples a set of sources into registry averages. It
// is driven by its own kernel event, not by a component's events, so it is
// not a Probe; it lives here because it shares the observability
// configuration surface (-obs-sample).
type sampler struct {
	k        *sim.Kernel
	ev       *sim.Event
	interval sim.Tick

	sources []sampledSource
	rows    []Sample // this tick's samples, index-aligned with sources
	// onSample, when set, runs after each sampling pass on the kernel
	// goroutine with that pass's rows (valid until it returns) — the one
	// publisher of the time series.
	onSample func(now sim.Tick, rows []Sample)
}

// sampledSource is one source with its pre-registered stats.
type sampledSource struct {
	src       SampleSource
	lastBytes float64 // BytesMoved at the previous sample

	readDepth  *stats.Average
	writeDepth *stats.Average
	busUtil    *stats.Average
	rowHit     *stats.Average
	draining   *stats.Average
	bandwidth  *stats.Average
	banksOpen  []*stats.Average // residency per bank, index-aligned with Sample.BanksOpen
	rankPD     []*stats.Average // power-down residency per rank
	rankSR     []*stats.Average // self-refresh residency per rank
}

// StartSampler samples the sources every interval of simulated time for the
// rest of the simulation, the first sample one interval from now. It
// registers the time-series averages under reg ("obs." prefix); samples fire
// at stats priority, each source read once per tick, and onSample, when set,
// runs after each pass on the kernel goroutine with that pass's rows (valid
// until it returns).
func StartSampler(k *sim.Kernel, reg *stats.Registry, interval sim.Tick, sources []SampleSource, onSample func(now sim.Tick, rows []Sample)) error {
	if interval <= 0 {
		return fmt.Errorf("obs: sampler interval must be positive")
	}
	if len(sources) == 0 {
		return fmt.Errorf("obs: sampler needs at least one source")
	}
	p := &sampler{k: k, interval: interval, onSample: onSample, rows: make([]Sample, len(sources))}
	p.ev = sim.NewEventPri("obs.sampler", sim.StatsPriority, p.take)
	obsReg := reg.Child("obs")
	for _, s := range sources {
		r := obsReg.Child(s.Name())
		ss := sampledSource{
			src:        s,
			readDepth:  r.NewAverage("readQueueDepth", "sampled read-queue depth"),
			writeDepth: r.NewAverage("writeQueueDepth", "sampled write-queue depth"),
			busUtil:    r.NewAverage("busUtilisation", "sampled data-bus utilisation"),
			rowHit:     r.NewAverage("rowHitRate", "sampled row-hit rate"),
			draining:   r.NewAverage("drainResidency", "fraction of samples in write-drain mode"),
			bandwidth:  r.NewAverage("bandwidth", "sampled bandwidth (bytes/s over each interval)"),
		}
		probe := s.ObsSample()
		ss.lastBytes = probe.BytesMoved
		for i := range probe.BanksOpen {
			ss.banksOpen = append(ss.banksOpen,
				r.NewAverage(fmt.Sprintf("bank%d.openResidency", i),
					"fraction of samples with a row open in this bank"))
		}
		for i := range probe.RankPowerDown {
			ss.rankPD = append(ss.rankPD,
				r.NewAverage(fmt.Sprintf("rank%d.pdResidency", i),
					"fraction of samples with this rank in power-down"))
			ss.rankSR = append(ss.rankSR,
				r.NewAverage(fmt.Sprintf("rank%d.srResidency", i),
					"fraction of samples with this rank in self-refresh"))
		}
		p.sources = append(p.sources, ss)
	}
	k.Schedule(p.ev, k.Now()+interval)
	return nil
}

// take runs one sampling pass and schedules the next.
func (p *sampler) take() {
	now := p.k.Now()
	for i := range p.sources {
		s := &p.sources[i]
		sm := s.src.ObsSample()
		sm.Bandwidth = (sm.BytesMoved - s.lastBytes) / p.interval.Seconds()
		s.lastBytes = sm.BytesMoved
		p.rows[i] = sm
		s.bandwidth.Sample(sm.Bandwidth)
		s.readDepth.Sample(float64(sm.ReadQueueLen))
		s.writeDepth.Sample(float64(sm.WriteQueueLen))
		s.busUtil.Sample(sm.BusUtilisation)
		s.rowHit.Sample(sm.RowHitRate)
		s.draining.Sample(b2f(sm.Draining))
		for i, open := range sm.BanksOpen {
			if i < len(s.banksOpen) {
				s.banksOpen[i].Sample(b2f(open))
			}
		}
		for i, low := range sm.RankPowerDown {
			if i < len(s.rankPD) {
				s.rankPD[i].Sample(b2f(low))
			}
		}
		for i, low := range sm.RankSelfRefresh {
			if i < len(s.rankSR) {
				s.rankSR[i].Sample(b2f(low))
			}
		}
	}
	if p.onSample != nil {
		p.onSample(now, p.rows)
	}
	p.k.Schedule(p.ev, now+p.interval)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
