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
	grow, err := stats.NewSampler(k, 50*sim.Nanosecond, func(sim.Tick) { a.bytes += 10; b.bytes += 30 })
	if err != nil {
		t.Fatal(err)
	}
	grow.Start()

	var ticks []sim.Tick
	var got [][2]float64
	p, err := obs.NewSamplerProbe(k, reg, 100*sim.Nanosecond, []obs.SampleSource{a, b},
		func(now sim.Tick, rows []obs.Sample) {
			ticks = append(ticks, now)
			got = append(got, [2]float64{rows[0].Bandwidth, rows[1].Bandwidth})
		})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
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
