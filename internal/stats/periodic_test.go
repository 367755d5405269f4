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
	// A second Start does not double the cadence.
	s.Start()
	k.RunUntil(k.Now() + 250*sim.Nanosecond)
	if len(fired) != 8 {
		t.Fatalf("fired %d times by 800 ns, want 8", len(fired))
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
