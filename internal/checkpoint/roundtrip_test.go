package checkpoint_test

// The tentpole acceptance test: checkpointing at an arbitrary mid-run point
// and resuming in a fresh process image must be bit-identical — byte-for-byte
// on the final statistics dump — to the uninterrupted run. The matrix covers
// both controller models, every page policy, and the multi-channel rig.

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/system"
	"repro/internal/trafficgen"
	"repro/internal/xbar"
)

// session is what every rig's NewSession returns.
type session = *system.Session

// runToEnd steps a started (or restored) session to completion.
func runToEnd(t *testing.T, s session) {
	t.Helper()
	for i := 0; i < 1_000_000; i++ {
		done, err := s.Step()
		if err != nil {
			t.Fatalf("step: %v", err)
		}
		if done {
			return
		}
	}
	t.Fatal("simulation did not finish within the step budget")
}

// dumpStats renders the registry as the canonical JSON byte string the
// bit-identical comparison is defined over.
func dumpStats(t *testing.T, reg *stats.Registry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.DumpJSON(&buf); err != nil {
		t.Fatalf("dump stats: %v", err)
	}
	return buf.Bytes()
}

// randomPattern returns the address pattern all roundtrip cases share: mixed
// reads and writes drawn from a seeded RNG, which exercises the draw-count
// replay that makes generators restorable.
func randomPattern() trafficgen.Pattern {
	return &trafficgen.Random{
		Start: 0, End: 1 << 26, Align: 64, ReadPercent: 67, Seed: 3,
	}
}

// trafficCase is one cell of the single-rig determinism matrix.
type trafficCase struct {
	name string
	kind system.Kind
	// closed drives the cycle model's two-policy split and the matched
	// default for the event model; tune overrides the event page policy for
	// the adaptive variants.
	closed bool
	tune   func(*core.Config)
}

func trafficCases() []trafficCase {
	page := func(p core.PagePolicy) func(*core.Config) {
		return func(c *core.Config) { c.Page = p }
	}
	return []trafficCase{
		{name: "event-open", kind: system.EventBased, tune: page(core.Open)},
		{name: "event-open-adaptive", kind: system.EventBased, tune: page(core.OpenAdaptive)},
		{name: "event-closed", kind: system.EventBased, closed: true, tune: page(core.Closed)},
		{name: "event-closed-adaptive", kind: system.EventBased, closed: true, tune: page(core.ClosedAdaptive)},
		{name: "cycle-open", kind: system.CycleBased},
		{name: "cycle-closed", kind: system.CycleBased, closed: true},
	}
}

func buildTrafficRig(t *testing.T, tc trafficCase, requests uint64) *system.TrafficRig {
	t.Helper()
	rig, err := system.NewTrafficRig(system.RigConfig{
		Kind:       tc.kind,
		Spec:       dram.DDR3_1333_8x8(),
		Mapping:    dram.RoRaBaCoCh,
		ClosedPage: tc.closed,
		Gen: trafficgen.Config{
			RequestBytes:   64,
			MaxOutstanding: 16,
			Count:          requests,
		},
		Pattern:   randomPattern(),
		TuneEvent: tc.tune,
	})
	if err != nil {
		t.Fatalf("build rig: %v", err)
	}
	return rig
}

// TestTrafficRigResumeBitIdentical checkpoints every model x page-policy
// combination mid-run, restores into a freshly built rig, finishes both, and
// requires byte-identical statistics.
func TestTrafficRigResumeBitIdentical(t *testing.T) {
	const requests = 4000
	for _, tc := range trafficCases() {
		t.Run(tc.name, func(t *testing.T) {
			deadline := sim.Second

			// Reference: uninterrupted.
			ref := buildTrafficRig(t, tc, requests)
			rs, err := ref.NewSession("", deadline)
			if err != nil {
				t.Fatalf("session: %v", err)
			}
			rs.Start()
			runToEnd(t, rs)
			want := dumpStats(t, ref.Reg)
			endTick := rs.Now()

			// Interrupted: run a fraction of the way, checkpoint, abandon.
			mid := buildTrafficRig(t, tc, requests)
			ms, err := mid.NewSession("", deadline)
			if err != nil {
				t.Fatalf("session: %v", err)
			}
			ms.Start()
			for ms.Now() < endTick/3 {
				done, err := ms.Step()
				if err != nil {
					t.Fatalf("step: %v", err)
				}
				if done {
					t.Fatalf("run finished at %s, before the checkpoint point", ms.Now())
				}
			}
			img, err := ms.Manager().Save()
			if err != nil {
				t.Fatalf("save at %s: %v", ms.Now(), err)
			}

			// Resumed: a fresh rig (a fresh process image, as far as the
			// simulation can tell), restored, run to completion. No Start —
			// the checkpoint carries the generator's event state.
			res := buildTrafficRig(t, tc, requests)
			ss, err := res.NewSession("", deadline)
			if err != nil {
				t.Fatalf("session: %v", err)
			}
			if err := ss.Manager().Restore(img); err != nil {
				t.Fatalf("restore: %v", err)
			}
			if ss.Now() != ms.Now() {
				t.Fatalf("restored clock %s, saved at %s", ss.Now(), ms.Now())
			}
			runToEnd(t, ss)

			if ss.Now() != endTick {
				t.Errorf("resumed run ended at %s, uninterrupted at %s", ss.Now(), endTick)
			}
			if got := dumpStats(t, res.Reg); !bytes.Equal(got, want) {
				t.Errorf("resumed statistics differ from uninterrupted run\nuninterrupted: %s\nresumed:       %s", want, got)
			}
			samePower(t, ref.Ctrl, res.Ctrl)
		})
	}
}

// samePower requires a resumed controller to report the uninterrupted run's
// power activity: the DRAM power model reads state (the all-precharged time,
// per-rank residencies) that no statistic dumps.
func samePower(t *testing.T, ref, resumed system.Controller) {
	t.Helper()
	if got, want := resumed.PowerStats(), ref.PowerStats(); !reflect.DeepEqual(got, want) {
		t.Errorf("resumed power activity differs from uninterrupted run\nuninterrupted: %+v\nresumed:       %+v", want, got)
	}
}

func buildMultiChannelRig(t *testing.T, requests uint64) *system.MultiChannelRig {
	t.Helper()
	rig, err := system.NewMultiChannelRig(system.MultiChannelConfig{
		Kind:     system.EventBased,
		Spec:     dram.DDR3_1333_8x8(),
		Mapping:  dram.RoRaBaCoCh,
		Channels: 2,
		Xbar:     xbar.Config{Latency: 2 * sim.Nanosecond, QueueDepth: 64},
		Gens: []trafficgen.Config{{
			RequestBytes:   64,
			MaxOutstanding: 32,
			Count:          requests,
		}},
		Patterns: []trafficgen.Pattern{randomPattern()},
	})
	if err != nil {
		t.Fatalf("build multi-channel rig: %v", err)
	}
	return rig
}

// TestCompletionCheckpointRestoresDone closes the matrix at its far end: a
// session restored from the checkpoint of a FINISHED run must report done on
// its first Step without advancing — same Now, same statistics, and saving it
// again yields the same bytes — for every topology and both models. (Advancing
// past the recorded end skews every time-normalised statistic; bus utilisation
// divides by Now.)
func TestCompletionCheckpointRestoresDone(t *testing.T) {
	const requests = 1000
	type built struct {
		s   session
		reg *stats.Registry
	}
	open := func(s session, err error, reg *stats.Registry) built {
		if err != nil {
			t.Fatalf("session: %v", err)
		}
		return built{s, reg}
	}
	type matrixCase struct {
		name  string
		build func() built
	}
	cases := []matrixCase{{"multichannel", func() built {
		r := buildMultiChannelRig(t, requests)
		s, err := r.NewSession("", sim.Second)
		return open(s, err, r.Reg)
	}}}
	for _, tc := range trafficCases() {
		cases = append(cases, matrixCase{"traffic-" + tc.name, func() built {
			r := buildTrafficRig(t, tc, requests)
			s, err := r.NewSession("", sim.Second)
			return open(s, err, r.Reg)
		}})
	}
	for _, c := range cases {
		build := c.build
		t.Run(c.name, func(t *testing.T) {
			ref := build()
			ref.s.Start()
			runToEnd(t, ref.s)
			img, err := ref.s.Manager().Save()
			if err != nil {
				t.Fatalf("save: %v", err)
			}
			want := dumpStats(t, ref.reg)

			res := build()
			if err := res.s.Manager().Restore(img); err != nil {
				t.Fatalf("restore: %v", err)
			}
			done, err := res.s.Step()
			if err != nil || !done {
				t.Fatalf("Step on a restored finished run = (%v, %v), want done", done, err)
			}
			if res.s.Now() != ref.s.Now() {
				t.Errorf("Step advanced a finished run from %s to %s", ref.s.Now(), res.s.Now())
			}
			if got := dumpStats(t, res.reg); !bytes.Equal(got, want) {
				t.Error("statistics changed across restore+Step")
			}
			again, err := res.s.Manager().Save()
			if err != nil {
				t.Fatalf("re-save: %v", err)
			}
			if !bytes.Equal(again, img) {
				t.Error("re-saved checkpoint differs from the one restored")
			}
		})
	}
}

// TestMultiChannelResumeBitIdentical covers the single-kernel crossbar
// topology, whose checkpoint must carry the crossbar queues and, on every
// packet behind the crossbar, the route its response returns by.
func TestMultiChannelResumeBitIdentical(t *testing.T) {
	const requests = 2000
	build := func() *system.MultiChannelRig { return buildMultiChannelRig(t, requests) }
	deadline := sim.Second

	ref := build()
	rs, err := ref.NewSession("", deadline)
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	rs.Start()
	runToEnd(t, rs)
	want := dumpStats(t, ref.Reg)
	endTick := rs.Now()

	mid := build()
	ms, err := mid.NewSession("", deadline)
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	ms.Start()
	for ms.Now() < endTick/3 {
		done, err := ms.Step()
		if err != nil {
			t.Fatalf("step: %v", err)
		}
		if done {
			t.Fatalf("run finished at %s, before the checkpoint point", ms.Now())
		}
	}
	img, err := ms.Manager().Save()
	if err != nil {
		t.Fatalf("save at %s: %v", ms.Now(), err)
	}
	if !bytes.Contains(img, []byte(`"route":[{"xbar":`)) || !bytes.Contains(img, []byte(`"inFlight":`)) {
		t.Fatalf("checkpoint at %s has no request behind the crossbar: the resume would prove nothing about routes", ms.Now())
	}

	res := build()
	ss, err := res.NewSession("", deadline)
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	if err := ss.Manager().Restore(img); err != nil {
		t.Fatalf("restore: %v", err)
	}
	runToEnd(t, ss)
	if got := dumpStats(t, res.Reg); !bytes.Equal(got, want) {
		t.Errorf("resumed multi-channel statistics differ from uninterrupted run\nuninterrupted: %s\nresumed:       %s", want, got)
	}
}

// lowPowerPattern is the bursty workload the low-power roundtrip cases share:
// every 16th request is followed by a multi-microsecond off period, long
// enough for ranks to enter power-down and then deepen into self-refresh.
func lowPowerPattern() trafficgen.Pattern {
	return &trafficgen.Bursty{
		Start: 0, End: 1 << 26, Align: 64, ReadPercent: 67, Seed: 5,
		BurstLen: 16, OffTime: 5 * sim.Microsecond,
	}
}

// tuneLowPower arms both idle thresholds on the event controller.
func tuneLowPower(c *core.Config) {
	c.Page = core.Open
	c.PowerDownIdle = 300 * sim.Nanosecond
	c.SelfRefreshIdle = 2 * sim.Microsecond
}

// anyRankLowPower reports whether any rank of ctrl is currently powered down
// or in self-refresh.
func anyRankLowPower(ctrl *core.Controller, ranks int) (pd, sr bool) {
	for ri := 0; ri < ranks; ri++ {
		p, s := ctrl.RankLowPower(ri)
		pd, sr = pd || p, sr || s
	}
	return pd, sr
}

// TestResumeMidLowPower checkpoints the single rig at two adversarial
// instants — while a rank is mid-power-down and while it is mid-self-refresh —
// and requires the resumed runs to be byte-identical to the uninterrupted one.
// The CKE FSM fields (state, entry tick, residency accumulators, pending idle
// timers) all live in the checkpoint; any one missing shows up here.
func TestResumeMidLowPower(t *testing.T) {
	const requests = 3000
	spec := dram.DDR3_1600_x64_2R()
	build := func() *system.TrafficRig {
		rig, err := system.NewTrafficRig(system.RigConfig{
			Kind:    system.EventBased,
			Spec:    spec,
			Mapping: dram.RoRaBaCoCh,
			Gen: trafficgen.Config{
				RequestBytes:   64,
				MaxOutstanding: 16,
				Count:          requests,
			},
			Pattern:   lowPowerPattern(),
			TuneEvent: tuneLowPower,
		})
		if err != nil {
			t.Fatalf("build rig: %v", err)
		}
		return rig
	}
	deadline := sim.Second

	ref := build()
	rs, err := ref.NewSession("", deadline)
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	rs.Start()
	runToEnd(t, rs)
	want := dumpStats(t, ref.Reg)
	endTick := rs.Now()
	if act := ref.Ctrl.PowerStats(); act.PowerDownTime == 0 || act.SelfRefreshTime == 0 {
		t.Fatalf("workload never entered low power (pd %s, sr %s) — nothing to test",
			act.PowerDownTime, act.SelfRefreshTime)
	}

	for _, mode := range []string{"mid-powerdown", "mid-selfrefresh"} {
		t.Run(mode, func(t *testing.T) {
			mid := build()
			ms, err := mid.NewSession("", deadline)
			if err != nil {
				t.Fatalf("session: %v", err)
			}
			ms.Start()
			ctrl := mid.Ctrl.(*core.Controller)
			for {
				done, err := ms.Step()
				if err != nil {
					t.Fatalf("step: %v", err)
				}
				if done {
					t.Fatalf("run finished without hitting a %s instant", mode)
				}
				pd, sr := anyRankLowPower(ctrl, spec.Org.RanksPerChannel)
				if (mode == "mid-powerdown" && pd) || (mode == "mid-selfrefresh" && sr) {
					break
				}
			}
			img, err := ms.Manager().Save()
			if err != nil {
				t.Fatalf("save at %s: %v", ms.Now(), err)
			}

			res := build()
			ss, err := res.NewSession("", deadline)
			if err != nil {
				t.Fatalf("session: %v", err)
			}
			if err := ss.Manager().Restore(img); err != nil {
				t.Fatalf("restore: %v", err)
			}
			// The restored image must agree that the rank is still in the
			// low-power state it was saved in.
			pd, sr := anyRankLowPower(res.Ctrl.(*core.Controller), spec.Org.RanksPerChannel)
			if mode == "mid-powerdown" && !pd {
				t.Error("restored rig lost the power-down state")
			}
			if mode == "mid-selfrefresh" && !sr {
				t.Error("restored rig lost the self-refresh state")
			}
			runToEnd(t, ss)

			if ss.Now() != endTick {
				t.Errorf("resumed run ended at %s, uninterrupted at %s", ss.Now(), endTick)
			}
			if got := dumpStats(t, res.Reg); !bytes.Equal(got, want) {
				t.Errorf("resumed %s statistics differ from uninterrupted run\nuninterrupted: %s\nresumed:       %s", mode, want, got)
			}
			samePower(t, ref.Ctrl, res.Ctrl)
		})
	}
}

// TestResumeWithFaultsMidReplay checkpoints a fault-injected run — transient
// rates high enough that read bursts are essentially always parked in a
// replay backoff at the save point — and requires the resumed run to report
// identical corrected / uncorrectable / retry / retirement counts.
func TestResumeWithFaultsMidReplay(t *testing.T) {
	tc := trafficCase{
		name: "event-faults",
		kind: system.EventBased,
		tune: func(c *core.Config) {
			c.Page = core.Open
			c.Faults.Seed = 11
			c.Faults.CorrectablePerBurst = 0.05
			c.Faults.UncorrectablePerBurst = 0.01
			c.Faults.TransientPerBurst = 0.30
			c.FaultRetryLimit = 2
		},
	}
	const requests = 3000
	deadline := sim.Second

	rasCounts := func(reg *stats.Registry) map[string]float64 {
		out := make(map[string]float64)
		for _, name := range []string{
			"sys.mc.correctedErrors", "sys.mc.uncorrectedErrors",
			"sys.mc.retriedBursts", "sys.mc.retiredRows",
		} {
			sc, ok := reg.Get(name).(*stats.Scalar)
			if !ok {
				t.Fatalf("stat %q missing", name)
			}
			out[name] = sc.Value()
		}
		return out
	}

	ref := buildTrafficRig(t, tc, requests)
	rs, err := ref.NewSession("", deadline)
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	rs.Start()
	runToEnd(t, rs)
	want := dumpStats(t, ref.Reg)
	wantRAS := rasCounts(ref.Reg)
	endTick := rs.Now()
	if wantRAS["sys.mc.retriedBursts"] == 0 || wantRAS["sys.mc.correctedErrors"] == 0 ||
		wantRAS["sys.mc.uncorrectedErrors"] == 0 || wantRAS["sys.mc.retiredRows"] == 0 {
		t.Fatalf("fault workload too tame to test anything: %v", wantRAS)
	}

	mid := buildTrafficRig(t, tc, requests)
	ms, err := mid.NewSession("", deadline)
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	ms.Start()
	for ms.Now() < endTick/2 {
		done, err := ms.Step()
		if err != nil {
			t.Fatalf("step: %v", err)
		}
		if done {
			t.Fatalf("run finished at %s, before the checkpoint point", ms.Now())
		}
	}
	img, err := ms.Manager().Save()
	if err != nil {
		t.Fatalf("save at %s: %v", ms.Now(), err)
	}

	res := buildTrafficRig(t, tc, requests)
	ss, err := res.NewSession("", deadline)
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	if err := ss.Manager().Restore(img); err != nil {
		t.Fatalf("restore: %v", err)
	}
	runToEnd(t, ss)

	if gotRAS := rasCounts(res.Reg); fmt.Sprint(gotRAS) != fmt.Sprint(wantRAS) {
		t.Errorf("RAS counters diverged after resume:\nuninterrupted: %v\nresumed:       %v", wantRAS, gotRAS)
	}
	if got := dumpStats(t, res.Reg); !bytes.Equal(got, want) {
		t.Errorf("resumed fault-injected statistics differ from uninterrupted run\nuninterrupted: %s\nresumed:       %s", want, got)
	}
}
