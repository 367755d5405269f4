package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/sim"
	"repro/internal/supervisor"
	"repro/internal/system"
)

// Point-level entry points for the sweep farm (internal/farm): a distributed
// sweep fans individual measurement points out to worker processes, so each
// point must be runnable on its own — and, for crash recovery, resumable from
// a periodic checkpoint so a re-run point is bit-identical to an
// uninterrupted one. The single-process drivers (RunSweep, RunFig9) and the
// farm workers share these functions, which is what makes a farm-merged
// result byte-identical to a single-process run of the same grid.

// SpecForFigure returns the bandwidth-sweep spec for one paper figure.
func SpecForFigure(figure int, requests uint64) (SweepSpec, error) {
	switch figure {
	case 3:
		return Fig3Spec(requests), nil
	case 4:
		return Fig4Spec(requests), nil
	case 5:
		return Fig5Spec(requests), nil
	}
	return SweepSpec{}, fmt.Errorf("experiments: figure %d is not a bandwidth sweep (want 3, 4 or 5)", figure)
}

// PointCheckpoint configures mid-point crash recovery for one sweep point:
// the worker checkpoints each model's rig into Dir on a wall-clock cadence,
// and a re-run of the same point resumes from the newest image instead of
// starting over. Checkpoint resume is bit-identical (see internal/checkpoint),
// so a point that was killed and resumed reports exactly the utilisation an
// uninterrupted run would have.
type PointCheckpoint struct {
	// Dir holds the per-model checkpoint files; "" disables checkpointing.
	Dir string
	// EveryWall is the wall-clock checkpoint cadence (0 = only at completion).
	EveryWall time.Duration
	// Log receives supervisor diagnostics; nil discards them.
	Log io.Writer
}

// RunSweepPoint measures one (stride, banks) sweep point on both models,
// checkpointing periodically when ck has a Dir. The row it returns is
// identical to the one RunSweep computes for the same point.
func RunSweepPoint(s SweepSpec, stride uint64, banks int, ck *PointCheckpoint) (SweepRow, error) {
	row := SweepRow{StrideBursts: stride, Banks: banks}
	ev, err := runPoint(system.EventBased, s, stride, banks, ck)
	if err != nil {
		return row, err
	}
	cy, err := runPoint(system.CycleBased, s, stride, banks, ck)
	if err != nil {
		return row, err
	}
	row.EventUtil, row.CycleUtil = ev, cy
	return row, nil
}

// runPoint measures one model at one sweep point and returns the bus
// utilisation. RunSweep, RunSweepPoint and the farm worker all come through
// here and through supervisor.Run, so they step the same quanta; ck with a
// Dir adds periodic checkpoints and bit-identical resume from an existing
// file. The checkpoint's identity is what the rig's components state.
func runPoint(kind system.Kind, s SweepSpec, stride uint64, banks int, ck *PointCheckpoint) (float64, error) {
	cfg := supervisor.Config{Resume: true}
	if ck != nil && ck.Dir != "" {
		cfg.Checkpoint = fmt.Sprintf("%s/point-%s.ckpt", ck.Dir, kind)
		cfg.EveryWall, cfg.Log = ck.EveryWall, ck.Log
	}
	var rig *system.TrafficRig
	res, err := supervisor.Run(cfg, func() (supervisor.Session, error) {
		pattern, err := sweepPattern(s, stride, banks, 1)
		if err != nil {
			return nil, err
		}
		rig, err = system.NewTrafficRig(system.RigConfig{
			Kind:       kind,
			Spec:       s.Spec,
			Mapping:    s.Mapping,
			ClosedPage: s.ClosedPage,
			Gen:        trafficGenConfig(s),
			Pattern:    pattern,
		})
		if err != nil {
			return nil, err
		}
		return rig.NewSession("", sim.Second)
	})
	if err != nil {
		return 0, err
	}
	if !res.Done {
		return 0, fmt.Errorf("experiments: %s point stride=%d banks=%d did not complete", kind, stride, banks)
	}
	return rig.Ctrl.BusUtilisation(), nil
}

// NumExplorePoints returns the number of memory systems in the §IV-B case
// study — the explore grid's point count.
func NumExplorePoints() int { return len(Fig9Configs()) }

// RunExplorePoint measures one memory system of the case study. NormIPC is
// left zero: normalisation needs the DDR3 baseline, so it happens at merge
// time (NormalizeFig9).
func RunExplorePoint(memOps uint64, cores, index int) (Fig9Row, error) {
	configs := Fig9Configs()
	if index < 0 || index >= len(configs) {
		return Fig9Row{}, fmt.Errorf("experiments: explore point %d out of range (have %d memory systems)", index, len(configs))
	}
	return runFig9Config(configs[index], memOps, cores)
}

// NormalizeFig9 fills every row's NormIPC relative to the first (DDR3) row.
// Call only on a complete result — a partial one has no trustworthy baseline.
func NormalizeFig9(res *Fig9Result) {
	if len(res.Rows) == 0 {
		return
	}
	base := res.Rows[0].IPC
	for i := range res.Rows {
		res.Rows[i].NormIPC = res.Rows[i].IPC / base
	}
}
