package supervisor

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/mem"
	"repro/internal/sim"
)

// fakeSim is a one-integer "simulation" whose progress is checkpointable.
type fakeSim struct {
	ticks int
	total int
}

func (f *fakeSim) CheckpointSave(mem.PacketTable) (any, error) {
	return map[string]int{"ticks": f.ticks}, nil
}

func (f *fakeSim) CheckpointRestore(_ mem.PacketLookup, _ sim.Restorer, data []byte) error {
	var st map[string]int
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	f.ticks = st["ticks"]
	return nil
}

// fakeSession wraps a fakeSim as a supervisor.Session. failAt injects a panic
// when progress reaches that tick (0 disables); onStep observes every step.
type fakeSession struct {
	sim     *fakeSim
	mgr     *checkpoint.Manager
	failAt  int
	onStep  func(ticks int)
	started bool
}

// newFake builds a session that completes after total steps of 1 µs each.
func newFake(total int) *fakeSession {
	fs := &fakeSim{total: total}
	m := checkpoint.NewManager()
	m.Register("sim", fs)
	return &fakeSession{sim: fs, mgr: m}
}

func (s *fakeSession) Manager() *checkpoint.Manager { return s.mgr }
func (s *fakeSession) Now() sim.Tick                { return sim.Tick(s.sim.ticks) * sim.Microsecond }
func (s *fakeSession) Start()                       { s.started = true }

func (s *fakeSession) Step() (bool, error) {
	s.sim.ticks++
	if s.onStep != nil {
		s.onStep(s.sim.ticks)
	}
	if s.failAt != 0 && s.sim.ticks == s.failAt {
		panic("injected fault")
	}
	return s.sim.ticks >= s.sim.total, nil
}

// A step that panics ends the run with a tick-stamped error and a restorable
// postmortem image, leaves the last good checkpoint as it was, and a second
// run with Resume continues from that checkpoint to the uninterrupted end.
func TestRecoversFromInjectedPanic(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	cfg := Config{Checkpoint: ckpt, Every: 2 * sim.Microsecond}

	failing := newFake(10)
	failing.failAt = 7
	var log bytes.Buffer
	cfg.Log = &log
	res, err := Run(cfg, failing)
	if err == nil || !strings.Contains(err.Error(), "panic at 7us: injected fault") {
		t.Fatalf("err = %v, want the injected fault stamped with its tick\nlog:\n%s", err, log.String())
	}
	if res.Done || res.Interrupted || res.Now != 7*sim.Microsecond || res.Checkpoints != 3 {
		t.Fatalf("result = %+v, want a failure at 7µs after the periodic checkpoints at 2, 4 and 6µs", res)
	}

	restoredAt := func(path string) sim.Tick {
		t.Helper()
		s := newFake(10)
		if err := s.Manager().RestoreFile(path); err != nil {
			t.Fatalf("%s does not restore: %v", path, err)
		}
		return s.Now()
	}
	if at := restoredAt(ckpt + ".postmortem"); at != 7*sim.Microsecond {
		t.Errorf("postmortem holds tick %s, want the failed state at 7µs", at)
	}
	if at := restoredAt(ckpt); at != 6*sim.Microsecond {
		t.Errorf("last good checkpoint holds tick %s, want the pre-failure 6µs", at)
	}

	healthy := newFake(10)
	firstTick := 0
	healthy.onStep = func(ticks int) {
		if firstTick == 0 {
			firstTick = ticks
		}
	}
	cfg.Resume = true
	res, err = Run(cfg, healthy)
	if err != nil {
		t.Fatalf("resume: %v\nlog:\n%s", err, log.String())
	}
	if !res.Done || res.Now != 10*sim.Microsecond {
		t.Fatalf("result = %+v, want completion at the uninterrupted end tick 10µs", res)
	}
	if healthy.started || firstTick != 7 {
		t.Errorf("started = %v, first step at tick %d; want a restored session continuing at 7", healthy.started, firstTick)
	}
	if !strings.Contains(log.String(), "resumed from "+ckpt+" at 6us") {
		t.Errorf("log missing the resume line:\n%s", log.String())
	}
}

func TestGracefulSignalStop(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	sig := make(chan os.Signal, 1)
	s := newFake(1000)
	s.onStep = func(ticks int) {
		if ticks == 5 {
			sig <- syscall.SIGINT
		}
	}
	res, err := Run(Config{Checkpoint: ckpt, Notify: sig}, s)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Done || !res.Interrupted {
		t.Fatalf("result = %+v, want graceful interrupt", res)
	}
	if res.Now != 5*sim.Microsecond {
		t.Fatalf("stopped at %s, want the step after the signal (5µs)", res.Now)
	}
	// The stop wrote a final checkpoint so the run can be resumed later.
	if res.Checkpoints != 1 {
		t.Fatalf("checkpoints = %d, want 1 final save", res.Checkpoints)
	}
	s2 := newFake(1000)
	firstTick := 0
	s2.onStep = func(ticks int) {
		if firstTick == 0 {
			firstTick = ticks
		}
	}
	res2, err := Run(Config{Checkpoint: ckpt, Resume: true}, s2)
	if err != nil {
		t.Fatalf("resume run: %v", err)
	}
	if !res2.Done || s2.started {
		t.Fatalf("result = %+v started = %v, want resumed (not started) completion", res2, s2.started)
	}
	if firstTick != 6 {
		t.Fatalf("first step after resume at tick %d, want 6 (continue from the checkpoint, not scratch)", firstTick)
	}
}

func TestResumeMissingFileStartsFresh(t *testing.T) {
	s := newFake(3)
	res, err := Run(Config{
		Checkpoint: filepath.Join(t.TempDir(), "none.ckpt"),
		Resume:     true,
	}, s)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.Done || !s.started {
		t.Fatalf("result = %+v started = %v, want a fresh completed run", res, s.started)
	}
}

func TestResumeRejectsCorruptCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	corrupt := []byte("DRAMCKPT v1 crc32=00000000 len=3\nxyz")
	if err := os.WriteFile(ckpt, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	s := newFake(3)
	res, err := Run(Config{Checkpoint: ckpt, Resume: true}, s)
	if err == nil || !strings.Contains(err.Error(), "resume:") {
		t.Fatalf("err = %v, want a resume failure", err)
	}
	// A bad checkpoint ends the run before anything is stepped or written.
	if s.started || s.sim.ticks != 0 || res.Checkpoints != 0 {
		t.Fatalf("started = %v ticks = %d result = %+v, want an untouched session", s.started, s.sim.ticks, res)
	}
	if got, err := os.ReadFile(ckpt); err != nil || !bytes.Equal(got, corrupt) {
		t.Fatalf("the refused checkpoint was changed (err %v)", err)
	}
}
