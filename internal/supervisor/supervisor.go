// Package supervisor runs a simulation as a sequence of supervised segments:
// it checkpoints periodically (simulated-time and/or wall-clock interval),
// resumes from the last good checkpoint after a segment failure (watchdog
// trip, injected panic, any error out of a step) with a bounded retry budget,
// and turns SIGINT/SIGTERM into a graceful stop — finish the current
// quantum, write a final checkpoint, and hand control back for a clean stats
// flush and exit. A failing segment additionally dumps a postmortem
// checkpoint next to the configured one, so the crashed state itself can be
// inspected or replayed.
package supervisor

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/sim"
)

// Backoff computes the delay before a retry: exponential growth from Base,
// capped at Max, plus bounded jitter. The schedule is a pure function of the
// configuration, the retry key and the attempt number — no wall clock and no
// global rand in the decision path — so two runs of the same failing
// workload produce the same delays, and a test can assert the whole schedule
// up front. (Sleeping the delay out is the caller's business; computing it is
// deterministic.)
type Backoff struct {
	// Base is the delay before the first retry; 0 disables backoff.
	Base time.Duration
	// Max caps every computed delay (0 = uncapped).
	Max time.Duration
	// Factor is the per-attempt growth (values <= 1 mean 2).
	Factor float64
	// Seed drives the jitter; the same seed reproduces the same schedule.
	Seed uint64
}

// Delay returns the pause before retry attempt n (1-based) of the work
// identified by key. Jitter adds up to half the exponential delay, derived
// from (Seed, key, attempt) by hashing, so concurrent retries of different
// points spread out without any randomness source.
func (b Backoff) Delay(key string, attempt int) time.Duration {
	if b.Base <= 0 || attempt <= 0 {
		return 0
	}
	factor := b.Factor
	if factor <= 1 {
		factor = 2
	}
	exp := math.Min(float64(attempt-1), 40) // past 2^40 the cap decides anyway
	d := float64(b.Base) * math.Pow(factor, exp)
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", b.Seed, key, attempt)
	frac := float64(h.Sum64()%(1<<20)) / float64(1<<20) // [0, 1)
	d += d / 2 * frac
	if b.Max > 0 && d > float64(b.Max) {
		d = float64(b.Max)
	}
	if d > float64(math.MaxInt64) {
		d = float64(math.MaxInt64)
	}
	return time.Duration(d)
}

// sleepRetry pauses between retries; a variable so tests can record the
// schedule instead of sleeping it out.
var sleepRetry = time.Sleep

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
	// Step advances one quantum and reports completion. Errors (and panics,
	// which the supervisor recovers) mark the segment as failed.
	Step() (done bool, err error)
	// Close releases session resources; the supervisor calls it once per
	// session, including after failures.
	Close()
}

// Factory builds a fresh session from the configuration. The supervisor
// calls it once per segment: at start, and again after every failure — a
// failed simulation's state is unrecoverable in place, so retry means
// rebuild-and-restore.
type Factory func() (Session, error)

// Config shapes a supervised run.
type Config struct {
	// Checkpoint is the checkpoint file path; "" disables checkpointing,
	// resume and postmortem dumps (the supervisor still bounds retries, but
	// every retry restarts from scratch).
	Checkpoint string
	// Every saves a checkpoint each time this much simulated time passes
	// (0 = no simulated-time-periodic checkpoints).
	Every sim.Tick
	// EveryWall saves a checkpoint each time this much wall-clock time
	// passes (0 = no wall-clock-periodic checkpoints).
	EveryWall time.Duration
	// Resume loads Checkpoint before the first segment when the file
	// exists. A missing file starts fresh; an unreadable or corrupted file
	// is an error (resuming is an explicit request — silently ignoring a
	// bad checkpoint would rerun hours of simulation).
	Resume bool
	// MaxRetries bounds rebuild-and-resume attempts after segment failures;
	// once exhausted the last failure is returned.
	MaxRetries int
	// Backoff paces the retries: retry n sleeps Backoff.Delay("segment", n)
	// before rebuilding. The zero value retries immediately (the historical
	// behaviour).
	Backoff Backoff
	// Notify delivers shutdown signals (see NotifySignals); nil disables
	// graceful-stop handling.
	Notify <-chan os.Signal
	// Log receives one-line diagnostics (checkpoints written, failures,
	// resumes); nil discards them.
	Log io.Writer
}

// Result summarizes a supervised run.
type Result struct {
	// Done reports that the simulation ran to completion.
	Done bool
	// Interrupted reports a graceful signal-driven stop (Done is false).
	Interrupted bool
	// Retries counts segment failures that were retried or gave up.
	Retries int
	// Checkpoints counts checkpoint files written (periodic + final).
	Checkpoints int
	// Now is the simulated tick at exit.
	Now sim.Tick
}

// fatalError marks a segment failure that must not be retried.
type fatalError struct{ err error }

func (f fatalError) Error() string { return f.err.Error() }

// runState threads the mutable supervision state through segments.
type runState struct {
	cfg Config
	log io.Writer
	res Result
	// haveGood marks that Checkpoint holds a restorable file.
	haveGood bool
}

// Run drives factory-built sessions until completion, graceful interrupt, a
// fatal setup error, or the retry budget is exhausted.
func Run(cfg Config, factory Factory) (Result, error) {
	st := &runState{cfg: cfg, log: cfg.Log}
	if st.log == nil {
		st.log = io.Discard
	}
	if cfg.Resume && cfg.Checkpoint != "" {
		if _, err := os.Stat(cfg.Checkpoint); err == nil {
			st.haveGood = true
		} else if !os.IsNotExist(err) {
			return st.res, fmt.Errorf("supervisor: %w", err)
		}
	}
	for {
		s, err := factory()
		if err != nil {
			return st.res, err
		}
		done, interrupted, segErr := st.segment(s)
		s.Close()
		st.res.Now = s.Now()
		if segErr == nil {
			st.res.Done = done
			st.res.Interrupted = interrupted
			return st.res, nil
		}
		var fe fatalError
		if errors.As(segErr, &fe) {
			return st.res, fe.err
		}
		st.res.Retries++
		if st.res.Retries > st.cfg.MaxRetries {
			return st.res, segErr
		}
		if st.haveGood {
			fmt.Fprintf(st.log, "supervisor: segment failed (%v); retry %d/%d from %s\n",
				segErr, st.res.Retries, st.cfg.MaxRetries, st.cfg.Checkpoint)
		} else {
			fmt.Fprintf(st.log, "supervisor: segment failed (%v); retry %d/%d from scratch\n",
				segErr, st.res.Retries, st.cfg.MaxRetries)
		}
		if d := st.cfg.Backoff.Delay("segment", st.res.Retries); d > 0 {
			fmt.Fprintf(st.log, "supervisor: backing off %s before retry %d\n", d, st.res.Retries)
			sleepRetry(d)
		}
	}
}

// step runs one session step, converting panics (watchdog trips and injected
// faults raise them) into segment errors stamped with the simulated tick.
func step(s Session) (done bool, err error) {
	defer func() {
		if pv := recover(); pv != nil {
			err = fmt.Errorf("panic at %s: %v", s.Now(), pv)
		}
	}()
	return s.Step()
}

// segment runs one session until completion, interrupt, or failure.
func (st *runState) segment(s Session) (done, interrupted bool, err error) {
	if st.haveGood {
		if rerr := s.Manager().RestoreFile(st.cfg.Checkpoint); rerr != nil {
			// A bad checkpoint is not retryable — every retry would hit the
			// same file — so it ends the run regardless of the budget.
			return false, false, fatalError{fmt.Errorf("supervisor: resume: %w", rerr)}
		}
		fmt.Fprintf(st.log, "supervisor: resumed from %s at %s\n", st.cfg.Checkpoint, s.Now())
	} else {
		s.Start()
	}
	lastSim := s.Now()
	lastWall := time.Now() //lint:allow simtime EveryWall is a host-time checkpoint cadence; it decides when to save, never what is simulated
	for {
		select {
		case sig := <-st.cfg.Notify:
			// The previous Step finished, so the system sits at a quantum
			// boundary: checkpoint and report a graceful stop.
			fmt.Fprintf(st.log, "supervisor: %v at %s: stopping gracefully\n", sig, s.Now())
			if st.cfg.Checkpoint != "" {
				if serr := st.save(s); serr != nil {
					return false, true, serr
				}
			}
			return false, true, nil
		default:
		}
		stepDone, stepErr := step(s)
		if stepErr != nil {
			st.postmortem(s, stepErr)
			return false, false, stepErr
		}
		if stepDone {
			if st.cfg.Checkpoint != "" {
				// A final checkpoint marks the run complete and restorable
				// for post-hoc inspection.
				if serr := st.save(s); serr != nil {
					return true, false, serr
				}
			}
			return true, false, nil
		}
		due := (st.cfg.Every > 0 && s.Now()-lastSim >= st.cfg.Every) ||
			(st.cfg.EveryWall > 0 && time.Since(lastWall) >= st.cfg.EveryWall) //lint:allow simtime EveryWall is a host-time checkpoint cadence; it decides when to save, never what is simulated
		if due && st.cfg.Checkpoint != "" {
			if serr := st.save(s); serr != nil {
				return false, false, serr
			}
			lastSim = s.Now()
			lastWall = time.Now() //lint:allow simtime EveryWall is a host-time checkpoint cadence; it decides when to save, never what is simulated
		}
	}
}

// save writes the checkpoint file and records it as the last good image.
func (st *runState) save(s Session) error {
	if err := s.Manager().SaveFile(st.cfg.Checkpoint); err != nil {
		return fmt.Errorf("supervisor: checkpoint at %s: %w", s.Now(), err)
	}
	st.res.Checkpoints++
	st.haveGood = true
	fmt.Fprintf(st.log, "supervisor: checkpoint %s at %s\n", st.cfg.Checkpoint, s.Now())
	return nil
}

// postmortem dumps the failed segment's state next to the configured
// checkpoint. Best effort: the simulation just failed, so the dump itself
// may fail too; either way the original failure is what gets reported.
func (st *runState) postmortem(s Session, cause error) {
	if st.cfg.Checkpoint == "" {
		return
	}
	path := st.cfg.Checkpoint + ".postmortem"
	if err := s.Manager().SaveFile(path); err != nil {
		fmt.Fprintf(st.log, "supervisor: postmortem dump failed: %v (after: %v)\n", err, cause)
		return
	}
	fmt.Fprintf(st.log, "supervisor: postmortem state dumped to %s\n", path)
}

// NotifySignals registers for SIGINT and SIGTERM and returns the channel to
// hand to Config.Notify plus a stop function restoring default handling (a
// second signal then kills the process the normal way).
func NotifySignals() (<-chan os.Signal, func()) {
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	return ch, func() { signal.Stop(ch) }
}
