// Package supervisor steps one simulation session to completion with
// checkpoints around it: a checkpoint every so much simulated time, a final
// one at completion, and one when SIGINT/SIGTERM asks for a graceful stop —
// finish the current quantum, save, hand control back for a clean stats flush
// and exit.
//
// A checkpoint is a recipe, not a state image (recipe.go): the run's stated
// configuration, its flags and input-file hashes, the tick it reached and the
// SHA-256 of its statistics there. Runs are deterministic, so with Resume the
// session is rebuilt from the same recipe, replayed silently — no checkpoint
// written, no line logged — to that tick, held to the digest, and continued;
// everything a run writes (traces, command recordings, captures) is written
// again from the start and comes out byte-identical to an uninterrupted run's.
// A resume pays its prefix's host time. A step that fails (a watchdog trip, a
// panic, any error) ends the run with the error stamped with the simulated
// tick, after writing <checkpoint>.postmortem — the recipe at the failing tick
// plus the error; the last good checkpoint is left as it was, for -resume.
// Nothing is retried in process: the same recipe replays into the same
// failure (DESIGN §9).
package supervisor

import (
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/sim"
)

// Session is one runnable, deterministic simulation: the same configuration,
// started and stepped, passes through the same states at the same ticks.
// internal/system's sessions satisfy it.
type Session interface {
	// Now returns the current simulated tick.
	Now() sim.Tick
	// Start arms the traffic sources. The supervisor calls it exactly once.
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
	// Resume continues the run the Checkpoint file records when the file
	// exists. A missing file starts fresh; an unreadable, corrupted or
	// mismatched file is an error (resuming is an explicit request — silently
	// ignoring a bad checkpoint would rerun the simulation from scratch).
	Resume bool
	// Notify delivers shutdown signals (see NotifySignals); nil disables
	// graceful-stop handling.
	Notify <-chan os.Signal
	// Log receives one-line diagnostics (checkpoints written, the resume, a
	// failure's postmortem); nil discards them.
	Log io.Writer
	// Recipe is how the run is rebuilt: its Configs, Flags and Inputs. Run
	// fills in the tick and the digest of every checkpoint it writes.
	Recipe Recipe
	// Stats writes the statistics a checkpoint's digest covers.
	Stats func(io.Writer) error
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
		if err := write(cfg, s, cfg.Checkpoint, nil); err != nil {
			return fmt.Errorf("supervisor: checkpoint at %s: %w", s.Now(), err)
		}
		res.Checkpoints++
		fmt.Fprintf(log, "supervisor: checkpoint %s at %s\n", cfg.Checkpoint, s.Now())
		return nil
	}

	var resume *Recipe
	if cfg.Resume && cfg.Checkpoint != "" {
		data, err := os.ReadFile(cfg.Checkpoint)
		if err != nil && !os.IsNotExist(err) {
			return res, fmt.Errorf("supervisor: %w", err)
		}
		if err == nil {
			saved, err := Decode(data)
			if err == nil {
				err = cfg.Recipe.resumable(saved)
			}
			if err != nil {
				return res, fmt.Errorf("supervisor: resume: %w", err)
			}
			resume = &saved
		}
	}

	s.Start()
	last, done := s.Now(), false
	for {
		if resume != nil && s.Now() >= resume.Tick {
			if err := caughtUp(cfg, s, *resume); err != nil {
				return res, err
			}
			fmt.Fprintf(log, "supervisor: resumed from %s at %s\n", cfg.Checkpoint, s.Now())
			resume, last = nil, s.Now()
		}
		if done {
			if resume != nil {
				return res, fmt.Errorf("supervisor: resume: the run completed at %s, before the checkpoint's %s", s.Now(), resume.Tick)
			}
			// A final checkpoint marks the run complete; resuming it replays
			// the whole run and writes the same file again.
			res.Done = true
			return res, save()
		}
		if resume == nil && cfg.Every > 0 && s.Now()-last >= cfg.Every {
			if err := save(); err != nil {
				return res, err
			}
			last = s.Now()
		}
		select {
		case sig := <-cfg.Notify:
			// The previous Step finished, so the system sits at a quantum
			// boundary: checkpoint and report a graceful stop. Mid-replay the
			// file on disk is further along than this run, so it stays.
			res.Interrupted = true
			if resume != nil {
				fmt.Fprintf(log, "supervisor: %v at %s while replaying to %s: stopping; %s left as it was\n", sig, s.Now(), resume.Tick, cfg.Checkpoint)
				return res, nil
			}
			fmt.Fprintf(log, "supervisor: %v at %s: stopping gracefully\n", sig, s.Now())
			return res, save()
		default:
		}
		if done, err = step(s); err != nil {
			postmortem(cfg, log, s, err)
			return res, err
		}
	}
}

// caughtUp holds a replay that reached the checkpoint's tick to the
// statistics recorded there.
func caughtUp(cfg Config, s Session, saved Recipe) error {
	if s.Now() != saved.Tick {
		return fmt.Errorf("supervisor: resume: the replay stepped past the checkpoint's %s to %s", saved.Tick, s.Now())
	}
	got, err := digest(cfg.Stats)
	if err != nil {
		return fmt.Errorf("supervisor: resume: %w", err)
	}
	if got != saved.Stats {
		return fmt.Errorf("supervisor: resume: the replayed statistics at %s differ from the checkpoint's: not the run that wrote it", s.Now())
	}
	return nil
}

// write saves the recipe at the session's current tick to path, with the
// failure for a postmortem.
func write(cfg Config, s Session, path string, failed error) error {
	r := cfg.Recipe
	r.Tick = s.Now()
	var err error
	if r.Stats, err = digest(cfg.Stats); err != nil {
		return err
	}
	if failed != nil {
		r.Failed = failed.Error()
	}
	data, err := r.Encode()
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, data)
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

// postmortem writes the failed run's recipe next to the configured
// checkpoint. Best effort: the simulation just failed, so the dump itself may
// fail too; either way the original failure is what gets reported.
func postmortem(cfg Config, log io.Writer, s Session, cause error) {
	if cfg.Checkpoint == "" {
		return
	}
	path := cfg.Checkpoint + ".postmortem"
	if err := write(cfg, s, path, cause); err != nil {
		fmt.Fprintf(log, "supervisor: postmortem dump failed: %v (after: %v)\n", err, cause)
		return
	}
	fmt.Fprintf(log, "supervisor: postmortem of the failure at %s written to %s\n", s.Now(), path)
}

// NotifySignals registers for SIGINT and SIGTERM and returns the channel to
// hand to Config.Notify plus a stop function restoring default handling (a
// second signal then kills the process the normal way).
func NotifySignals() (<-chan os.Signal, func()) {
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	return ch, func() { signal.Stop(ch) }
}
