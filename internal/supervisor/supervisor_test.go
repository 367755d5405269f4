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
	started *bool
	closed  *int
}

func (s *fakeSession) Manager() *checkpoint.Manager { return s.mgr }
func (s *fakeSession) Now() sim.Tick                { return sim.Tick(s.sim.ticks) * sim.Microsecond }
func (s *fakeSession) Start()                       { *s.started = true }
func (s *fakeSession) Close()                       { *s.closed++ }

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

// harness builds factory-made fake sessions, failing the first nFail segments
// at failAt ticks of progress.
type harness struct {
	total, failAt, nFail int
	builds, closed       int
	started              []bool
	sims                 []*fakeSim
	onStep               func(ticks int)
}

func (h *harness) factory() (Session, error) {
	fs := &fakeSim{total: h.total}
	h.sims = append(h.sims, fs)
	h.started = append(h.started, false)
	m := checkpoint.NewManager()
	m.Register("sim", fs)
	s := &fakeSession{
		sim:     fs,
		mgr:     m,
		onStep:  h.onStep,
		started: &h.started[len(h.started)-1],
		closed:  &h.closed,
	}
	if h.builds < h.nFail {
		s.failAt = h.failAt
	}
	h.builds++
	return s, nil
}

func TestRecoversFromInjectedPanic(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	h := &harness{total: 10, failAt: 7, nFail: 1}
	var log bytes.Buffer
	res, err := Run(Config{
		Checkpoint: ckpt,
		Every:      2 * sim.Microsecond,
		MaxRetries: 3,
		Log:        &log,
	}, h.factory)
	if err != nil {
		t.Fatalf("run: %v\nlog:\n%s", err, log.String())
	}
	if !res.Done || res.Retries != 1 {
		t.Fatalf("result = %+v, want Done with 1 retry", res)
	}
	if res.Now != 10*sim.Microsecond {
		t.Fatalf("finished at %s, want 10µs", res.Now)
	}
	if h.builds != 2 || h.closed != 2 {
		t.Fatalf("builds = %d, closed = %d, want 2/2 (rebuild per segment)", h.builds, h.closed)
	}
	// The retry segment resumed from the last good checkpoint (tick 6): it
	// must not Start, and must not replay from scratch.
	if !h.started[0] || h.started[1] {
		t.Fatalf("started = %v, want first fresh, second restored", h.started)
	}
	if !strings.Contains(log.String(), "retry 1/3 from "+ckpt) {
		t.Fatalf("log missing resume-from-checkpoint line:\n%s", log.String())
	}
	// The crash dumped a postmortem image of the failed state.
	if _, err := os.Stat(ckpt + ".postmortem"); err != nil {
		t.Fatalf("no postmortem dump: %v", err)
	}
}

func TestRetriesFromScratchWithoutCheckpoint(t *testing.T) {
	h := &harness{total: 5, failAt: 3, nFail: 1}
	res, err := Run(Config{MaxRetries: 1}, h.factory)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.Done || res.Retries != 1 || res.Checkpoints != 0 {
		t.Fatalf("result = %+v, want Done, 1 retry, 0 checkpoints", res)
	}
	// With no checkpoint to resume, the retry starts fresh.
	if !h.started[0] || !h.started[1] {
		t.Fatalf("started = %v, want both segments started fresh", h.started)
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	h := &harness{total: 10, failAt: 3, nFail: 100}
	res, err := Run(Config{MaxRetries: 2}, h.factory)
	if err == nil || !strings.Contains(err.Error(), "injected fault") {
		t.Fatalf("err = %v, want the injected fault after budget exhaustion", err)
	}
	if res.Done || res.Retries != 3 {
		t.Fatalf("result = %+v, want not-done with 3 counted failures", res)
	}
	if !strings.Contains(err.Error(), "panic at ") {
		t.Fatalf("err %q not tick-stamped", err)
	}
}

func TestGracefulSignalStop(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	sig := make(chan os.Signal, 1)
	h := &harness{total: 1000}
	h.onStep = func(ticks int) {
		if ticks == 5 {
			sig <- syscall.SIGINT
		}
	}
	res, err := Run(Config{Checkpoint: ckpt, Notify: sig, MaxRetries: 1}, h.factory)
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
	h2 := &harness{total: 1000}
	firstTick := 0
	h2.onStep = func(ticks int) {
		if firstTick == 0 {
			firstTick = ticks
		}
	}
	res2, err := Run(Config{Checkpoint: ckpt, Resume: true, MaxRetries: 1}, h2.factory)
	if err != nil {
		t.Fatalf("resume run: %v", err)
	}
	if !res2.Done || h2.started[0] {
		t.Fatalf("result = %+v started = %v, want resumed (not started) completion", res2, h2.started)
	}
	if firstTick != 6 {
		t.Fatalf("first step after resume at tick %d, want 6 (continue from the checkpoint, not scratch)", firstTick)
	}
}

func TestResumeMissingFileStartsFresh(t *testing.T) {
	h := &harness{total: 3}
	res, err := Run(Config{
		Checkpoint: filepath.Join(t.TempDir(), "none.ckpt"),
		Resume:     true,
	}, h.factory)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.Done || !h.started[0] {
		t.Fatalf("result = %+v started = %v, want a fresh completed run", res, h.started)
	}
}

func TestResumeRejectsCorruptCheckpointWithoutRetrying(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	if err := os.WriteFile(ckpt, []byte("DRAMCKPT v1 crc32=00000000 len=3\nxyz"), 0o644); err != nil {
		t.Fatal(err)
	}
	h := &harness{total: 3}
	res, err := Run(Config{Checkpoint: ckpt, Resume: true, MaxRetries: 5}, h.factory)
	if err == nil || !strings.Contains(err.Error(), "resume:") {
		t.Fatalf("err = %v, want a resume failure", err)
	}
	// A bad checkpoint must not burn the retry budget against the same file.
	if res.Retries != 0 || h.builds != 1 {
		t.Fatalf("retries = %d builds = %d, want no retries on a fatal resume error", res.Retries, h.builds)
	}
}
