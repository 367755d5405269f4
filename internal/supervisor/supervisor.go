// Package supervisor steps one simulation session to completion with
// checkpoints around it: a checkpoint every so much simulated time, a final
// one at completion, and one when SIGINT/SIGTERM asks for a graceful stop —
// finish the current quantum, save, hand control back for a clean stats flush
// and exit. With Resume the run continues from the checkpoint file instead of
// starting. A step that fails (a watchdog trip, a panic, any error) ends the
// run with the error stamped with the simulated tick, after dumping the failed
// state to <checkpoint>.postmortem; the last good checkpoint is left as it was,
// for -resume. Nothing is retried in process: runs are deterministic, so the
// same state replays into the same failure (DESIGN §9).
package supervisor

import (
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/checkpoint"
	"repro/internal/sim"
)

// Session is one runnable, checkpointable simulation. Between Step calls the
// simulation must be at a valid checkpoint boundary (the kernel parked at a
// quantum boundary); internal/system's supervised sessions satisfy this.
type Session interface {
	// Manager returns the session's checkpoint manager.
	Manager() *checkpoint.Manager
	// Now returns the current simulated tick.
	Now() sim.Tick
	// Start arms the traffic sources. The supervisor calls it exactly once,
	// and only when the session was not restored from a checkpoint.
	Start()
	// Step advances one quantum and reports completion. An error (or a panic,
	// which the supervisor recovers) ends the run.
	Step() (done bool, err error)
}

// Config shapes a supervised run.
type Config struct {
	// Checkpoint is the checkpoint file path; "" disables checkpointing,
	// resume and postmortem dumps.
	Checkpoint string
	// Every saves a checkpoint each time this much simulated time passes
	// (0 = only at completion and at a graceful stop).
	Every sim.Tick
	// Resume loads Checkpoint before the first step when the file exists. A
	// missing file starts fresh; an unreadable or corrupted file is an error
	// (resuming is an explicit request — silently ignoring a bad checkpoint
	// would rerun the simulation from scratch).
	Resume bool
	// Notify delivers shutdown signals (see NotifySignals); nil disables
	// graceful-stop handling.
	Notify <-chan os.Signal
	// Log receives one-line diagnostics (checkpoints written, the resume, a
	// failure's postmortem); nil discards them.
	Log io.Writer
}

// Result summarizes a supervised run.
type Result struct {
	// Done reports that the simulation ran to completion.
	Done bool
	// Interrupted reports a graceful signal-driven stop (Done is false).
	Interrupted bool
	// Checkpoints counts checkpoint files written (periodic + final).
	Checkpoints int
	// Now is the simulated tick at exit.
	Now sim.Tick
}

// Run steps s until completion, a graceful interrupt, or the first failure.
func Run(cfg Config, s Session) (res Result, err error) {
	log := cfg.Log
	if log == nil {
		log = io.Discard
	}
	defer func() { res.Now = s.Now() }()
	save := func() error {
		if cfg.Checkpoint == "" {
			return nil
		}
		if err := s.Manager().SaveFile(cfg.Checkpoint); err != nil {
			return fmt.Errorf("supervisor: checkpoint at %s: %w", s.Now(), err)
		}
		res.Checkpoints++
		fmt.Fprintf(log, "supervisor: checkpoint %s at %s\n", cfg.Checkpoint, s.Now())
		return nil
	}

	resumed := false
	if cfg.Resume && cfg.Checkpoint != "" {
		if _, err := os.Stat(cfg.Checkpoint); err == nil {
			if err := s.Manager().RestoreFile(cfg.Checkpoint); err != nil {
				return res, fmt.Errorf("supervisor: resume: %w", err)
			}
			fmt.Fprintf(log, "supervisor: resumed from %s at %s\n", cfg.Checkpoint, s.Now())
			resumed = true
		} else if !os.IsNotExist(err) {
			return res, fmt.Errorf("supervisor: %w", err)
		}
	}
	if !resumed {
		s.Start()
	}

	last := s.Now()
	for {
		select {
		case sig := <-cfg.Notify:
			// The previous Step finished, so the system sits at a quantum
			// boundary: checkpoint and report a graceful stop.
			fmt.Fprintf(log, "supervisor: %v at %s: stopping gracefully\n", sig, s.Now())
			res.Interrupted = true
			return res, save()
		default:
		}
		done, err := step(s)
		if err != nil {
			postmortem(cfg, log, s, err)
			return res, err
		}
		if done {
			// A final checkpoint marks the run complete and restorable for
			// post-hoc inspection.
			res.Done = true
			return res, save()
		}
		if cfg.Every > 0 && s.Now()-last >= cfg.Every {
			if err := save(); err != nil {
				return res, err
			}
			last = s.Now()
		}
	}
}

// step runs one session step, converting panics (injected faults raise them)
// into errors stamped with the simulated tick.
func step(s Session) (done bool, err error) {
	defer func() {
		if pv := recover(); pv != nil {
			err = fmt.Errorf("panic at %s: %v", s.Now(), pv)
		}
	}()
	return s.Step()
}

// postmortem dumps the failed state next to the configured checkpoint. Best
// effort: the simulation just failed, so the dump itself may fail too; either
// way the original failure is what gets reported.
func postmortem(cfg Config, log io.Writer, s Session, cause error) {
	if cfg.Checkpoint == "" {
		return
	}
	path := cfg.Checkpoint + ".postmortem"
	if err := s.Manager().SaveFile(path); err != nil {
		fmt.Fprintf(log, "supervisor: postmortem dump failed: %v (after: %v)\n", err, cause)
		return
	}
	fmt.Fprintf(log, "supervisor: postmortem state dumped to %s\n", path)
}

// NotifySignals registers for SIGINT and SIGTERM and returns the channel to
// hand to Config.Notify plus a stop function restoring default handling (a
// second signal then kills the process the normal way).
func NotifySignals() (<-chan os.Signal, func()) {
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	return ch, func() { signal.Stop(ch) }
}
