package checkpoint_test

// Cross-standard checkpoint safety: a checkpoint taken under one DRAM
// standard must refuse to restore under another. The protection is the
// controller stating its own device (checkpoint.Configured) — no caller has
// to remember to — so a DDR5 image offered to a DDR4 rig fails loudly at
// Restore instead of silently resuming group/refresh state into a device
// with different topology.

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/dram"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trafficgen"
)

// buildStandardRig builds a single-channel event rig on the given spec.
func buildStandardRig(t *testing.T, spec dram.Spec) *system.TrafficRig {
	t.Helper()
	rig, err := system.NewTrafficRig(system.RigConfig{
		Kind:    system.EventBased,
		Spec:    spec,
		Mapping: dram.RoRaBaCoCh,
		Gen: trafficgen.Config{
			RequestBytes:   64,
			MaxOutstanding: 16,
			Count:          2000,
		},
		Pattern: randomPattern(),
	})
	if err != nil {
		t.Fatalf("build rig (%s): %v", spec.Name, err)
	}
	return rig
}

// TestCrossStandardResumeRejected saves a DDR5 run mid-flight and offers the
// image to a DDR4 rig, both sessions built with the empty scope. Restore must
// fail with a configuration-mismatch error that names the controller and the
// device field, and must fail before mutating the target session (which then
// still runs to the same statistics as a rig nobody offered an image to).
func TestCrossStandardResumeRejected(t *testing.T) {
	ddr5 := dram.DDR5_4800_x64()
	ddr4 := dram.DDR4_3200_x64()

	src := buildStandardRig(t, ddr5)
	ssrc, err := src.NewSession("", sim.Second)
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	ssrc.Start()
	for i := 0; i < 200; i++ {
		if _, err := ssrc.Step(); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
	img, err := ssrc.Manager().Save()
	if err != nil {
		t.Fatalf("save at %s: %v", ssrc.Now(), err)
	}

	dst := buildStandardRig(t, ddr4)
	sdst, err := dst.NewSession("", sim.Second)
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	err = sdst.Manager().Restore(img)
	if err == nil {
		t.Fatal("restoring a DDR5 checkpoint into a DDR4 rig succeeded; want configuration mismatch")
	}
	for _, want := range []string{"mismatch", "mc0: Device.Family", `"DDR5"`, `"DDR4"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("mismatch error %q does not mention %q", err, want)
		}
	}
	if sdst.Now() != 0 {
		t.Fatalf("rejected restore advanced the target clock to %s", sdst.Now())
	}

	// The rejected session is untouched: it runs to the statistics of a
	// fresh rig.
	sdst.Start()
	runToEnd(t, sdst)
	fresh := buildStandardRig(t, ddr4)
	if !fresh.Run(sim.Second) {
		t.Fatal("fresh DDR4 run did not complete")
	}
	if got, want := dumpStats(t, dst.Reg), dumpStats(t, fresh.Reg); !bytes.Equal(got, want) {
		t.Fatal("a rig that refused a checkpoint no longer runs like a fresh one")
	}
}

// TestSameStandardResumeAccepted is the control: the identical flow with
// matching specs restores cleanly, proving the rejection above is the
// stated device and not an artifact of the harness.
func TestSameStandardResumeAccepted(t *testing.T) {
	ddr5 := dram.DDR5_4800_x64()

	src := buildStandardRig(t, ddr5)
	ssrc, err := src.NewSession("", sim.Second)
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	ssrc.Start()
	for i := 0; i < 200; i++ {
		if _, err := ssrc.Step(); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
	img, err := ssrc.Manager().Save()
	if err != nil {
		t.Fatalf("save at %s: %v", ssrc.Now(), err)
	}

	dst := buildStandardRig(t, ddr5)
	sdst, err := dst.NewSession("", sim.Second)
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	if err := sdst.Manager().Restore(img); err != nil {
		t.Fatalf("same-standard restore failed: %v", err)
	}
	if sdst.Now() != ssrc.Now() {
		t.Fatalf("restored clock %s, saved at %s", sdst.Now(), ssrc.Now())
	}
	runToEnd(t, sdst)
}
