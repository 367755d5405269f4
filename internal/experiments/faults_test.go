package experiments

// The reliability extension's sweep (DESIGN §2.4) lives with its one test;
// dramctrl's -ber-* flags run the same injector on any configuration.

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/dram"
	"repro/internal/faults"
	"repro/internal/stats"
	"repro/internal/trafficgen"
)

// FaultSweepSpec describes a fault-injection sweep: random read-heavy
// traffic on the event-based controller while the per-burst bit-error rate
// is swept, exercising the full RAS path (ECC correction, demand scrubbing,
// replay with backoff, row retirement, poisoned completions).
type FaultSweepSpec struct {
	Spec dram.Spec
	// Seed drives the deterministic fault injector; identical seeds
	// reproduce identical fault histories.
	Seed uint64
	// BERs are the per-burst correctable-error rates swept; uncorrectable
	// and transient rates are derived (1/10 and 1/4 of each point).
	BERs []float64
	// RetryLimit bounds replays before a row is retired.
	RetryLimit int
	// Requests per measurement point.
	Requests uint64
}

// DefaultFaultSweep returns the standard sweep.
func DefaultFaultSweep(requests uint64) FaultSweepSpec {
	return FaultSweepSpec{
		Spec:       dram.DDR3_1600_x64(),
		Seed:       42,
		BERs:       []float64{0, 1e-3, 1e-2, 1e-1},
		RetryLimit: 4,
		Requests:   requests,
	}
}

// FaultRow is the RAS accounting for one error-rate point.
type FaultRow struct {
	BER         float64
	Corrected   uint64
	Uncorrected uint64
	Retried     uint64
	Retired     uint64
	Scrubs      uint64
	// AvgReadNs shows the latency cost of the fault handling.
	AvgReadNs float64
}

// scalar reads one controller scalar from the rig's registry.
func scalar(reg *stats.Registry, name string) uint64 {
	s, ok := reg.Get("sys.mc." + name).(*stats.Scalar)
	if !ok {
		return 0
	}
	return uint64(s.Value())
}

// Point is the measurement at one error rate: random 90 %-read traffic on the
// event-based controller, 16 requests outstanding.
func (s FaultSweepSpec) Point(ber float64) Point {
	p := matched(fmt.Sprintf("fault sweep ber=%g", ber), s.Spec, dram.RoRaBaCoCh, false, 1, s.Requests,
		&trafficgen.Random{Start: 0, End: 1 << 26, Align: s.Spec.Org.BurstBytes(), ReadPercent: 90, Seed: 7})
	p.Gen.MaxOutstanding = 16
	p.Event.Faults = faults.Config{
		Seed:                  s.Seed,
		CorrectablePerBurst:   ber,
		UncorrectablePerBurst: ber / 10,
		TransientPerBurst:     ber / 4,
	}
	p.Event.FaultRetryLimit = s.RetryLimit
	return p
}

// RunFaultSweep executes the sweep. Every accepted request completes — an
// uncorrectable error poisons its response instead of crashing the run — so
// a finished sweep is itself evidence of the graceful-failure contract.
func (r Runner) RunFaultSweep(s FaultSweepSpec) ([]FaultRow, error) {
	var rows []FaultRow
	for _, ber := range s.BERs {
		rig, err := r.Run(s.Point(ber))
		if err != nil {
			return rows, err
		}
		rows = append(rows, FaultRow{
			BER:         ber,
			Corrected:   scalar(rig.Reg, "correctedErrors"),
			Uncorrected: scalar(rig.Reg, "uncorrectedErrors"),
			Retried:     scalar(rig.Reg, "retriedBursts"),
			Retired:     scalar(rig.Reg, "retiredRows"),
			Scrubs:      scalar(rig.Reg, "scrubWrites"),
			AvgReadNs:   rig.Ctrls[0].AvgReadLatencyNs(),
		})
	}
	return rows, nil
}

// The whole default fault sweep: seed-stable, fault-free at a zero rate,
// correcting more errors as the rate grows, and completing at the hottest
// rate with its uncorrectable errors delivered as poisoned responses rather
// than a crashed run.
func TestFaultSweep(t *testing.T) {
	spec := DefaultFaultSweep(1000)
	a, err := Runner{}.RunFaultSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(spec.BERs) {
		t.Fatalf("rows = %d, want one per BER (%d)", len(a), len(spec.BERs))
	}
	zero, hot := a[0], a[len(a)-1]
	if zero.BER != 0 || zero.Corrected+zero.Uncorrected+zero.Retried+zero.Retired+zero.Scrubs != 0 {
		t.Fatalf("zero-rate point has faults: %+v", zero)
	}
	for i := 1; i < len(a); i++ {
		if a[i].Corrected < a[i-1].Corrected {
			t.Errorf("corrected errors fell as BER grew: %+v then %+v", a[i-1], a[i])
		}
	}
	if hot.Corrected == 0 || hot.Scrubs == 0 {
		t.Errorf("hottest point saw no correctable errors: %+v", hot)
	}
	if hot.Uncorrected == 0 {
		t.Errorf("hottest point saw no uncorrectable errors, so none completed poisoned: %+v", hot)
	}
	if hot.AvgReadNs <= zero.AvgReadNs {
		t.Errorf("fault handling did not cost latency: %v <= %v", hot.AvgReadNs, zero.AvgReadNs)
	}
	b, err := Runner{}.RunFaultSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a, b) {
		t.Fatalf("seed-%d sweep not reproducible:\n%+v\n%+v", spec.Seed, a, b)
	}
}
