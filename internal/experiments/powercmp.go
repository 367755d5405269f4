package experiments

import (
	"math"

	"repro/internal/dram"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/system"
)

// PowerRow compares the Micron-model power of both controllers on one test
// case (§III-C3: max difference 8%, average 3% in the paper), plus a third
// methodology: a DRAMPower-style analysis of the event controller's command
// trace, captured through the observability hub.
type PowerRow struct {
	Case         string
	EventMW      float64
	CycleMW      float64
	TraceMW      float64
	DiffPercent  float64
	TraceDiffPct float64 // trace-based vs event-aggregate, same controller
}

// PowerResult is the full §III-C3 comparison.
type PowerResult struct {
	Rows            []PowerRow
	MaxDiffPct      float64
	AvgDiffPct      float64
	MaxTraceDiffPct float64
}

// RunPowerComparison runs a representative subset of the §III test cases
// through both models and compares total DRAM power.
func (r Runner) RunPowerComparison(requests uint64) (*PowerResult, error) {
	spec := dram.DDR3_1333_8x8()
	cases := []syntheticCase{
		{"open/reads/stride1/b8", 100, false, 1, 8, 0, 1},
		{"open/reads/stride16/b4", 100, false, 16, 4, 0, 1},
		{"open/mix/stride8/b8", 50, false, 8, 8, 0, 1},
		{"open/writes/stride16/b2", 0, false, 16, 2, 0, 1},
		{"closed/reads/stride4/b8", 100, true, 4, 8, 0, 1},
		{"closed/mix/stride2/b4", 50, true, 2, 4, 0, 1},
		{"closed/writes/stride1/b8", 0, true, 1, 8, 0, 1},
	}
	res := &PowerResult{}
	var sum float64
	for _, pc := range cases {
		activity := func(kind system.Kind, probes *obs.Hub) (power.Activity, error) {
			p, err := pc.point(kind, requests, nil, 3)
			if err != nil {
				return power.Activity{}, err
			}
			p.Probes = probes
			rig, err := r.Run(p)
			if err != nil {
				return power.Activity{}, err
			}
			return rig.Ctrls[0].PowerStats(), nil
		}
		var cmds power.CommandTrace
		hub := obs.NewHub()
		hub.Attach(obs.CommandFunc(cmds.Record))
		evAct, err := activity(system.EventBased, hub)
		if err != nil {
			return res, err
		}
		cyAct, err := activity(system.CycleBased, nil)
		if err != nil {
			return res, err
		}
		evMW := power.Compute(spec, evAct).TotalMW()
		cyMW := power.Compute(spec, cyAct).TotalMW()
		trMW := power.AnalyzeCommands(spec, cmds.Commands(), evAct.Elapsed).TotalMW()
		diff := math.Abs(evMW-cyMW) / cyMW * 100
		trDiff := math.Abs(trMW-evMW) / evMW * 100
		res.Rows = append(res.Rows, PowerRow{
			Case: pc.name, EventMW: evMW, CycleMW: cyMW, TraceMW: trMW,
			DiffPercent: diff, TraceDiffPct: trDiff,
		})
		sum += diff
		res.MaxDiffPct = math.Max(res.MaxDiffPct, diff)
		res.MaxTraceDiffPct = math.Max(res.MaxTraceDiffPct, trDiff)
		res.AvgDiffPct = sum / float64(len(res.Rows))
	}
	return res, nil
}
