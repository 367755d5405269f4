package system_test

import (
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/internal/system"
)

// TestFig8CannealStats pins every statistic of the Fig. 8 canneal system
// (experiments.Fig8Point: 4 cores, 64 KiB 2-way L1s, a 512 KiB 8-way LLC,
// two crossbars and one DDR3 controller) at 1000 memory operations per core,
// on both controller models. results/fig8.txt prints only two-decimal
// ratios; these dumps hold each cache's hits, misses, evictions and
// writebacks, each core's stalls and each controller's counters exactly.
func TestFig8CannealStats(t *testing.T) {
	for _, kind := range bothKinds {
		t.Run(kind.String(), func(t *testing.T) {
			fs, _, err := experiments.Runner{}.RunFull(experiments.Fig8Point(kind, "canneal", 1000))
			if err != nil {
				t.Fatal(err)
			}
			system.MatchGolden(t, dumpStats(t, fs.Reg), filepath.Join("testdata", "fig8_canneal_"+kind.String()+".stats"))
		})
	}
}
