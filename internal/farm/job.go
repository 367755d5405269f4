package farm

import (
	"fmt"

	"repro/internal/experiments"
)

// JobSpec is what clients POST to /jobs: one design-space grid, expanded
// server-side into points. The defaults match the single-process CLIs so the
// merged result of a default job is byte-identical to `bwsweep -json` /
// `explore -json`.
type JobSpec struct {
	Type string `json:"type"` // "sweep" or "explore"

	// Sweep jobs: which paper figure, and requests per point (0 = the
	// bwsweep default, experiments.SweepRequests).
	Figure   int    `json:"figure,omitempty"`
	Requests uint64 `json:"requests,omitempty"`

	// Explore jobs: memory operations per core and core count (0 = the
	// explore defaults, experiments.ExploreMemOps and ExploreCores).
	MemOps uint64 `json:"memOps,omitempty"`
	Cores  int    `json:"cores,omitempty"`
}

// Normalize fills CLI-matching defaults in place.
func (j *JobSpec) Normalize() {
	switch j.Type {
	case "sweep":
		if j.Figure == 0 {
			j.Figure = 3
		}
		if j.Requests == 0 {
			j.Requests = experiments.SweepRequests
		}
	case "explore":
		if j.MemOps == 0 {
			j.MemOps = experiments.ExploreMemOps
		}
		if j.Cores == 0 {
			j.Cores = experiments.ExploreCores
		}
	}
}

// Points expands the job into its grid, in the exact order the
// single-process drivers measure (sweeps: banks outer, strides inner;
// explore: Fig9Configs order). Merge relies on this order to reassemble a
// byte-identical result.
func (j JobSpec) Points() ([]Point, error) {
	switch j.Type {
	case "sweep":
		spec, err := experiments.SpecForFigure(j.Figure, j.Requests)
		if err != nil {
			return nil, err
		}
		pts := make([]Point, 0, len(spec.Banks)*len(spec.Strides))
		for _, banks := range spec.Banks {
			for _, stride := range spec.Strides {
				pts = append(pts, Point{
					Kind: "sweep", Figure: j.Figure, Requests: j.Requests,
					Stride: stride, Banks: banks,
				})
			}
		}
		return pts, nil
	case "explore":
		n := experiments.NumExplorePoints()
		pts := make([]Point, 0, n)
		for i := 0; i < n; i++ {
			pts = append(pts, Point{
				Kind: "explore", MemOps: j.MemOps, Cores: j.Cores, Config: i,
			})
		}
		return pts, nil
	}
	return nil, fmt.Errorf("farm: unknown job type %q (want sweep or explore)", j.Type)
}

// Merge reassembles point results (in Points order; nil entries are failed
// points) into the canonical JSON the CLIs emit. partial must be true iff
// any entry is nil: a partial explore result skips IPC normalisation exactly
// like an interrupted CLI run does.
func (j JobSpec) Merge(results []*PointResult, partial bool) ([]byte, error) {
	switch j.Type {
	case "sweep":
		spec, err := experiments.SpecForFigure(j.Figure, j.Requests)
		if err != nil {
			return nil, err
		}
		res := &experiments.SweepResult{Spec: spec}
		for _, r := range results {
			if r == nil || r.Sweep == nil {
				continue
			}
			res.Rows = append(res.Rows, *r.Sweep)
		}
		return experiments.EncodeResultJSON(experiments.NewSweepJSON(res, partial))
	case "explore":
		res := &experiments.Fig9Result{}
		for _, r := range results {
			if r == nil || r.Fig9 == nil {
				continue
			}
			res.Rows = append(res.Rows, *r.Fig9)
		}
		if !partial {
			res.Normalize()
		}
		return experiments.EncodeResultJSON(experiments.NewFig9JSON(res, j.MemOps, j.Cores, partial))
	}
	return nil, fmt.Errorf("farm: unknown job type %q", j.Type)
}
