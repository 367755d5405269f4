// Command paper prints one of the paper's studies per run, each run by
// experiments.Runner; a flag the study does not read is refused, not ignored.
//
//	paper -figure 3|4|5     bus utilisation vs stride and banks, both models (Figs. 3-5)
//	paper -figure 6|7       read latency distributions and their modes (Figs. 6-7)
//	paper -figure 8         full-system ratios, cycle / event (Fig. 8)
//	paper -figure 9         DDR3 vs LPDDR3 vs WideIO on 16 cores (Fig. 9, Tables II-IV)
//	paper -figure power     DRAM power, event vs cycle model (§III-C3)
//	paper -figure savings   low-power savings on bursty traffic
//	paper -figure speedup   host time, event vs cycle model (§III-D)
//	paper -ablation NAME    a design ablation (pagepolicy, mapping, ..., all)
package main

import (
	"io"

	"repro/internal/experiments/cliconfig"
	"repro/internal/experiments/paper"
)

// stop is SIGINT/SIGTERM.
var stop func() bool

func main() {
	cliconfig.Main("paper", &stop, func(args []string, out io.Writer) error { return paper.Run(args, out, stop) })
}
