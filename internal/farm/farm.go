// Package farm implements simfarm, a fault-tolerant, resumable distributed
// sweep service: an HTTP/JSON job server that accepts the repository's
// design-space-exploration grids (the bwsweep bandwidth sweeps and the
// explore memory-technology case study), fans the measurement points out to
// a pool of worker subprocesses, and survives the ways long campaigns
// actually die — crashed, killed and hung workers, flaky points, and the
// server process itself being stopped mid-job.
//
// Robustness is by construction rather than by luck:
//
//   - Every point is a self-contained, deterministic unit (Point): its
//     identity is a canonical key, its result depends only on that key, and
//     the merged job output is rendered through the same canonical encoders
//     the single-process CLIs use — so a farm-assembled sweep is
//     byte-identical to bwsweep/explore -json over the same grid.
//
//   - Failed attempts retry with a bounded budget and exponential backoff
//     whose jitter is seeded and deterministic (supervisor.Backoff): no wall
//     clock and no global rand in any scheduling decision, which keeps the
//     package clean under simlint's detmap+simtime policy.
//
//   - A killed or crashed worker's point is retried, resuming mid-point from
//     the worker's periodic checkpoint (internal/checkpoint + supervisor),
//     so the re-run is bit-identical to an uninterrupted one. Hung workers
//     trip a wall-clock timeout and are killed and replaced.
//
//   - Worker slots that cannot even spawn (binary gone, fork failing) are
//     retired after repeated failures: the pool shrinks and keeps draining
//     the queue, and a point that exhausts its retry budget is reported as
//     failed in a partial result instead of failing the whole job.
//
//   - Results are cached on disk keyed by a fingerprint of the point
//     identity and schema version; repeated sweeps are served entirely from
//     cache. Cache entries, result files and the persisted job queue are all
//     written atomically (temp+rename), so no crash can leave a torn file.
//
//   - SIGINT/SIGTERM shut down gracefully: in-flight workers are killed
//     (their checkpoints persist), the queue is persisted, and the HTTP
//     server drains. A restarted server picks the queue back up, reloading
//     finished points from the cache.
package farm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/experiments"
)

// SchemaVersion is baked into every point fingerprint, so a change to the
// result schema or point semantics invalidates the on-disk cache instead of
// silently serving stale rows. (2: a cached row is encoded by the row types'
// canonical JSON tags, the latency breakdown inlined.)
const SchemaVersion = 2

// Point is one self-contained unit of work: a single measurement of a
// design-space grid, runnable in any process and deterministic given its
// fields alone.
type Point struct {
	Kind string `json:"kind"` // "sweep" or "explore"

	// Sweep points (Kind "sweep"): one (stride, banks) cell of a paper
	// figure's bandwidth grid, measured on both controller models.
	Figure   int    `json:"figure,omitempty"`
	Requests uint64 `json:"requests,omitempty"`
	Stride   uint64 `json:"stride,omitempty"`
	Banks    int    `json:"banks,omitempty"`

	// Explore points (Kind "explore"): one memory system of the §IV-B
	// case study (Config indexes experiments.Fig9Configs).
	MemOps uint64 `json:"memOps,omitempty"`
	Cores  int    `json:"cores,omitempty"`
	Config int    `json:"config,omitempty"`
}

// Validate rejects points that name no runnable work.
func (p Point) Validate() error {
	switch p.Kind {
	case "sweep":
		if _, err := experiments.SpecForFigure(p.Figure, p.Requests); err != nil {
			return err
		}
		if p.Stride == 0 || p.Banks <= 0 {
			return fmt.Errorf("farm: sweep point needs stride and banks (got stride=%d banks=%d)", p.Stride, p.Banks)
		}
	case "explore":
		if p.Config < 0 || p.Config >= experiments.NumExplorePoints() {
			return fmt.Errorf("farm: explore point config %d out of range [0, %d)", p.Config, experiments.NumExplorePoints())
		}
		if p.MemOps == 0 || p.Cores <= 0 {
			return fmt.Errorf("farm: explore point needs memOps and cores (got memOps=%d cores=%d)", p.MemOps, p.Cores)
		}
	default:
		return fmt.Errorf("farm: unknown point kind %q (want sweep or explore)", p.Kind)
	}
	return nil
}

// Key canonicalizes the point's identity; equal keys mean equal results.
func (p Point) Key() string {
	switch p.Kind {
	case "sweep":
		return fmt.Sprintf("sweep fig=%d requests=%d stride=%d banks=%d",
			p.Figure, p.Requests, p.Stride, p.Banks)
	case "explore":
		return fmt.Sprintf("explore memops=%d cores=%d config=%d", p.MemOps, p.Cores, p.Config)
	}
	return "invalid kind " + p.Kind
}

// Fingerprint is the result-cache key: a hash over the schema version and
// the canonical point identity, filename-safe.
func (p Point) Fingerprint() string {
	h := sha256.Sum256([]byte(fmt.Sprintf("simfarm v%d %s", SchemaVersion, p.Key())))
	return hex.EncodeToString(h[:16])
}

// PointResult is the outcome of one point; exactly one of Sweep/Fig9 is set.
type PointResult struct {
	Key   string                `json:"key"`
	Sweep *experiments.SweepRow `json:"sweep,omitempty"`
	Fig9  *experiments.Fig9Row  `json:"fig9,omitempty"`
}

// Run executes the point in this process on r (nil: the zero Runner). For
// sweep points a runner with a CheckpointDir enables periodic checkpoints and
// bit-identical mid-point resume; explore points (the full-system rig is not
// checkpointable) re-run from scratch on retry, which is equally
// deterministic, just slower.
func (p Point) Run(r *experiments.Runner) (*PointResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if r == nil {
		r = &experiments.Runner{}
	}
	res := &PointResult{Key: p.Key()}
	switch p.Kind {
	case "sweep":
		spec, err := experiments.SpecForFigure(p.Figure, p.Requests)
		if err != nil {
			return nil, err
		}
		row, err := r.RunSweepPoint(spec, p.Stride, p.Banks)
		if err != nil {
			return nil, err
		}
		res.Sweep = &row
	case "explore":
		row, err := r.RunExplorePoint(p.MemOps, p.Cores, p.Config)
		if err != nil {
			return nil, err
		}
		res.Fig9 = &row
	}
	return res, nil
}
