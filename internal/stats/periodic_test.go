package stats

import (
	"testing"

	"repro/internal/sim"
)

func TestSamplerFiresAtInterval(t *testing.T) {
	k := sim.NewKernel()
	var fired []sim.Tick
	s, err := NewSampler(k, 100*sim.Nanosecond, func(now sim.Tick) { fired = append(fired, now) })
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	k.RunUntil(550 * sim.Nanosecond)
	if len(fired) != 5 {
		t.Fatalf("fired %d times, want 5", len(fired))
	}
	for i, at := range fired {
		if at != sim.Tick(i+1)*100*sim.Nanosecond {
			t.Fatalf("sample %d at %s", i, at)
		}
	}
	s.Stop()
	k.RunUntil(sim.Microsecond)
	if len(fired) != 5 {
		t.Fatal("sampler fired after Stop")
	}
	// Restart works.
	s.Start()
	k.RunUntil(k.Now() + 250*sim.Nanosecond)
	if len(fired) != 7 {
		t.Fatalf("fired %d after restart, want 7", len(fired))
	}
}

func TestSamplerValidation(t *testing.T) {
	k := sim.NewKernel()
	if _, err := NewSampler(k, 0, func(sim.Tick) {}); err == nil {
		t.Fatal("zero interval accepted")
	}
	if _, err := NewSampler(k, 10, nil); err == nil {
		t.Fatal("nil callback accepted")
	}
}

func TestSeriesAbsoluteAndDelta(t *testing.T) {
	k := sim.NewKernel()
	counter := 0.0
	// Something grows by 10 per 50 ns.
	grow, _ := NewSampler(k, 50*sim.Nanosecond, func(sim.Tick) { counter += 10 })
	grow.Start()

	abs, err := NewSeries(k, 100*sim.Nanosecond, func() float64 { return counter }, false)
	if err != nil {
		t.Fatal(err)
	}
	rate, err := NewSeries(k, 100*sim.Nanosecond, func() float64 { return counter }, true)
	if err != nil {
		t.Fatal(err)
	}
	abs.Start()
	rate.Start()
	k.RunUntil(500 * sim.Nanosecond)

	absPts := abs.Points()
	if len(absPts) != 5 {
		t.Fatalf("abs points = %d", len(absPts))
	}
	// Absolute series grows; delta series is flat at 20 per interval.
	if absPts[4].Value <= absPts[0].Value {
		t.Fatal("absolute series not growing")
	}
	// The first sample races the coincident grow tick (same-tick event
	// order); steady state is 20 per interval.
	for i, p := range rate.Points()[1:] {
		if p.Value != 20 {
			t.Fatalf("delta point %d = %v, want 20", i+1, p.Value)
		}
	}
	if rate.Max() != 20 {
		t.Fatalf("max = %v", rate.Max())
	}
	var empty Series
	if empty.Mean() != 0 || empty.Max() != 0 {
		t.Fatal("empty series stats not zero")
	}
}
