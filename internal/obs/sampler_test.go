package obs_test

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// growingSource is a sample source whose byte count a test moves; it counts
// how often it is read.
type growingSource struct {
	name  string
	bytes float64
	reads int
}

func (s *growingSource) Name() string { return s.name }

func (s *growingSource) ObsSample() obs.Sample {
	s.reads++
	return obs.Sample{BytesMoved: s.bytes}
}

// The bandwidth column is the per-interval difference of the cumulative byte
// count, as a rate: in the rows handed to the publisher and as the registry
// average, with every source read exactly once per tick.
func TestSamplerBandwidthColumn(t *testing.T) {
	k := sim.NewKernel()
	reg := stats.NewRegistry("t")
	a, b := &growingSource{name: "a"}, &growingSource{name: "b"}
	// a moves 10 bytes and b 30 every 50 ns: 20 and 60 per sampling interval.
	var grow *sim.Event
	grow = sim.NewEventPri("grow", sim.StatsPriority, func() {
		a.bytes += 10
		b.bytes += 30
		k.Schedule(grow, k.Now()+50*sim.Nanosecond)
	})
	k.Schedule(grow, 50*sim.Nanosecond)

	var ticks []sim.Tick
	var got [][2]float64
	err := obs.StartSampler(k, reg, 100*sim.Nanosecond, []obs.SampleSource{a, b},
		func(now sim.Tick, rows []obs.Sample) {
			ticks = append(ticks, now)
			got = append(got, [2]float64{rows[0].Bandwidth, rows[1].Bandwidth})
		})
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntil(500 * sim.Nanosecond)

	if len(ticks) != 5 || ticks[0] != 100*sim.Nanosecond || ticks[4] != 500*sim.Nanosecond {
		t.Fatalf("publisher ran at %v, want every 100 ns to 500 ns", ticks)
	}
	// One read to size the per-bank statistics at construction, then one per
	// tick — not a second one for the publisher.
	if a.reads != 1+len(ticks) || b.reads != 1+len(ticks) {
		t.Errorf("sources read %d and %d times over %d ticks, want %d each", a.reads, b.reads, len(ticks), 1+len(ticks))
	}
	// The first sample races the coincident grow tick (same-tick event
	// order); steady state is 20 and 60 bytes per 100 ns.
	for i, row := range got[1:] {
		if row != [2]float64{20 / 100e-9, 60 / 100e-9} {
			t.Errorf("tick %d: bandwidths %v, want [2e8 6e8] bytes/s", i+1, row)
		}
	}
	var sumA float64
	for _, row := range got {
		sumA += row[0]
	}
	avg, ok := reg.Get("t.obs.a.bandwidth").(*stats.Average)
	if !ok || avg.Count() != 5 || avg.Sum() != sumA {
		t.Errorf("t.obs.a.bandwidth = %v, want the average of the 5 published rows (sum %v)", avg, sumA)
	}
}

func TestSamplerFiresAtInterval(t *testing.T) {
	k := sim.NewKernel()
	var fired []sim.Tick
	err := obs.StartSampler(k, stats.NewRegistry("t"), 100*sim.Nanosecond, []obs.SampleSource{&growingSource{name: "a"}},
		func(now sim.Tick, _ []obs.Sample) { fired = append(fired, now) })
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntil(550 * sim.Nanosecond)
	if len(fired) != 5 {
		t.Fatalf("fired %d times, want 5", len(fired))
	}
	for i, at := range fired {
		if at != sim.Tick(i+1)*100*sim.Nanosecond {
			t.Fatalf("sample %d at %s", i, at)
		}
	}
}

func TestSamplerValidation(t *testing.T) {
	k := sim.NewKernel()
	src := []obs.SampleSource{&growingSource{name: "a"}}
	for _, interval := range []sim.Tick{0, -sim.Nanosecond} {
		if err := obs.StartSampler(k, stats.NewRegistry("t"), interval, src, nil); err == nil {
			t.Errorf("interval %s accepted", interval)
		}
	}
	if err := obs.StartSampler(k, stats.NewRegistry("t"), 10, nil, nil); err == nil {
		t.Error("a sampler without sources accepted")
	}
}
