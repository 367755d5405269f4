package farm

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/experiments"
)

// WorkerOptions configures one worker invocation (simfarm -worker): read a
// point, run it, write the result. The server talks to workers only through
// these files, so a worker can be killed at any instant without corrupting
// anything — the point file is read-only, checkpoints and the result are
// written atomically.
type WorkerOptions struct {
	// PointPath is the JSON-encoded Point to run.
	PointPath string
	// OutPath receives the JSON-encoded PointResult (atomic temp+rename).
	OutPath string
	// CkptDir, when non-empty, enables periodic mid-point checkpoints for
	// sweep points; a retried attempt resumes from them bit-identically.
	CkptDir string
	// EveryWall is the checkpoint cadence (0 = only at completion).
	EveryWall time.Duration
	// Log receives supervisor diagnostics; nil discards them.
	Log io.Writer
}

// Worker runs one point to completion in this process.
func Worker(opts WorkerOptions) error {
	data, err := os.ReadFile(opts.PointPath)
	if err != nil {
		return fmt.Errorf("farm: worker point: %w", err)
	}
	var p Point
	if err := json.Unmarshal(data, &p); err != nil {
		return fmt.Errorf("farm: worker point: %w", err)
	}
	if err := p.Validate(); err != nil {
		return err
	}
	res, err := p.Run(&experiments.Runner{CheckpointDir: opts.CkptDir, EveryWall: opts.EveryWall, Log: opts.Log})
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return fmt.Errorf("farm: worker result: %w", err)
	}
	if err := checkpoint.WriteFileAtomic(opts.OutPath, append(out, '\n')); err != nil {
		return fmt.Errorf("farm: worker result: %w", err)
	}
	// The point completed and its result is durable; the mid-point
	// checkpoints have served their purpose. Best-effort removal keeps the
	// attempt directory from accumulating stale images that a *different*
	// future point could never resume from anyway (fingerprint-checked) but
	// would still waste disk.
	if opts.CkptDir != "" {
		for _, name := range []string{"point-event.ckpt", "point-cycle.ckpt"} {
			os.Remove(filepath.Join(opts.CkptDir, name)) //nolint:errcheck
		}
	}
	return nil
}
