package supervisor

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/sim"
)

// fakeSession is a one-integer "simulation" advancing 1 µs per step. Its
// statistics are its tick count and salt; a different salt is a different
// run under the same recipe. failAt injects a panic when progress reaches
// that tick (0 disables); onStep observes every step.
type fakeSession struct {
	ticks, total int
	salt         string
	failAt       int
	onStep       func(ticks int)
	started      bool
}

// newFake builds a session that completes after total steps.
func newFake(total int) *fakeSession { return &fakeSession{total: total} }

func (s *fakeSession) Now() sim.Tick { return sim.Tick(s.ticks) * sim.Microsecond }
func (s *fakeSession) Start()        { s.started = true }

func (s *fakeSession) Step() (bool, error) {
	s.ticks++
	if s.onStep != nil {
		s.onStep(s.ticks)
	}
	if s.failAt != 0 && s.ticks == s.failAt {
		panic("injected fault")
	}
	return s.ticks >= s.total, nil
}

// config is a supervised run of s checkpointing to path.
func (s *fakeSession) config(path string) Config {
	return Config{
		Checkpoint: path,
		Recipe:     Recipe{Configs: map[string]any{"sim": struct{ Total int }{s.total}}},
		Stats: func(w io.Writer) error {
			_, err := fmt.Fprintf(w, "ticks %d%s\n", s.ticks, s.salt)
			return err
		},
	}
}

// recipeAt decodes the checkpoint file at path.
func recipeAt(t *testing.T, path string) Recipe {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Decode(data)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return r
}

// A step that panics ends the run with a tick-stamped error and a postmortem
// recipe of the failure, leaves the last good checkpoint as it was, and a
// second run with Resume replays silently to that checkpoint and continues to
// the uninterrupted end.
func TestRecoversFromInjectedPanic(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	failing := newFake(10)
	failing.failAt = 7
	cfg := failing.config(ckpt)
	cfg.Every = 2 * sim.Microsecond
	var log bytes.Buffer
	cfg.Log = &log
	res, err := Run(cfg, failing)
	if err == nil || !strings.Contains(err.Error(), "panic at 7us: injected fault") {
		t.Fatalf("err = %v, want the injected fault stamped with its tick\nlog:\n%s", err, log.String())
	}
	if res.Done || res.Interrupted || res.Now != 7*sim.Microsecond || res.Checkpoints != 3 {
		t.Fatalf("result = %+v, want a failure at 7µs after the periodic checkpoints at 2, 4 and 6µs", res)
	}
	if pm := recipeAt(t, ckpt+".postmortem"); pm.Tick != 7*sim.Microsecond || !strings.Contains(pm.Failed, "injected fault") {
		t.Errorf("postmortem holds tick %s and failure %q, want the failed state at 7µs", pm.Tick, pm.Failed)
	}
	if at := recipeAt(t, ckpt).Tick; at != 6*sim.Microsecond {
		t.Errorf("last good checkpoint holds tick %s, want the pre-failure 6µs", at)
	}

	healthy := newFake(10)
	cfg = healthy.config(ckpt)
	cfg.Every, cfg.Log, cfg.Resume = 2*sim.Microsecond, &log, true
	res, err = Run(cfg, healthy)
	if err != nil {
		t.Fatalf("resume: %v\nlog:\n%s", err, log.String())
	}
	if !res.Done || res.Now != 10*sim.Microsecond {
		t.Fatalf("result = %+v, want completion at the uninterrupted end tick 10µs", res)
	}
	// The replay writes nothing: the checkpoints are the one at 8µs and the
	// final one.
	if res.Checkpoints != 2 || !strings.Contains(log.String(), "resumed from "+ckpt+" at 6us") {
		t.Errorf("%d checkpoints; want 2 and the resume line in the log:\n%s", res.Checkpoints, log.String())
	}

	// A postmortem records a failure, not a place to continue from.
	cfg = newFake(10).config(ckpt + ".postmortem")
	cfg.Resume = true
	if _, err := Run(cfg, newFake(10)); err == nil || !strings.Contains(err.Error(), "postmortem of a failure at 7us") {
		t.Errorf("resume from the postmortem: err = %v", err)
	}
}

// A replay that reaches the checkpoint's tick with other statistics is not
// the run that wrote it: the resume is refused naming the tick, and the file
// is left as it was.
func TestReplayHeldToTheDigest(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	sig := make(chan os.Signal, 1)
	s := newFake(1000)
	s.onStep = func(ticks int) {
		if ticks == 5 {
			sig <- syscall.SIGINT
		}
	}
	cfg := s.config(ckpt)
	cfg.Notify = sig
	if _, err := Run(cfg, s); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	other := newFake(1000)
	other.salt = " salted"
	cfg = other.config(ckpt)
	cfg.Resume = true
	if _, err := Run(cfg, other); err == nil || !strings.Contains(err.Error(), "statistics at 5us differ from the checkpoint's") {
		t.Errorf("err = %v, want a digest mismatch at 5us", err)
	}
	if now, _ := os.ReadFile(ckpt); !bytes.Equal(now, saved) {
		t.Error("the refused resume changed the checkpoint")
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
	cfg := s.config(ckpt)
	cfg.Notify = sig
	res, err := Run(cfg, s)
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
	if res.Checkpoints != 1 || recipeAt(t, ckpt).Tick != 5*sim.Microsecond {
		t.Fatalf("checkpoints = %d, want 1 final save at 5µs", res.Checkpoints)
	}
	s2 := newFake(1000)
	var log bytes.Buffer
	cfg = s2.config(ckpt)
	cfg.Resume, cfg.Log = true, &log
	res2, err := Run(cfg, s2)
	if err != nil {
		t.Fatalf("resume run: %v", err)
	}
	if !res2.Done || res2.Checkpoints != 1 || !strings.Contains(log.String(), "resumed from "+ckpt+" at 5us") {
		t.Fatalf("result = %+v, log %q; want completion resumed at 5µs and only the final save", res2, log.String())
	}
	// A signal during the replay stops the run and leaves the checkpoint,
	// which is further along, as it was.
	saved, _ := os.ReadFile(ckpt)
	s3 := newFake(1000)
	s3.onStep = func(ticks int) {
		if ticks == 2 {
			sig <- syscall.SIGINT
		}
	}
	cfg = s3.config(ckpt)
	cfg.Resume, cfg.Notify = true, sig
	if res3, err := Run(cfg, s3); err != nil || !res3.Interrupted || res3.Checkpoints != 0 {
		t.Fatalf("interrupted replay: %+v, %v; want an interrupt with nothing written", res3, err)
	}
	if now, _ := os.ReadFile(ckpt); !bytes.Equal(now, saved) {
		t.Error("an interrupted replay changed the checkpoint")
	}
}

func TestResumeMissingFileStartsFresh(t *testing.T) {
	s := newFake(3)
	cfg := s.config(filepath.Join(t.TempDir(), "none.ckpt"))
	cfg.Resume = true
	res, err := Run(cfg, s)
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
	cfg := s.config(ckpt)
	cfg.Resume = true
	res, err := Run(cfg, s)
	if err == nil || !strings.Contains(err.Error(), "resume:") {
		t.Fatalf("err = %v, want a resume failure", err)
	}
	// A bad checkpoint ends the run before anything is stepped or written.
	if s.started || s.ticks != 0 || res.Checkpoints != 0 {
		t.Fatalf("started = %v ticks = %d result = %+v, want an untouched session", s.started, s.ticks, res)
	}
	if got, err := os.ReadFile(ckpt); err != nil || !bytes.Equal(got, corrupt) {
		t.Fatalf("the refused checkpoint was changed (err %v)", err)
	}
}
