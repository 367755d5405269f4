// bwsweep, the Figs. 3-5 and ablation tool, is now paper -figure 3|4|5 and
// paper -ablation NAME. This directory holds no command, only bwsweep's tests,
// which run its rows of the paper command's table.
package bwsweep

import (
	"testing"

	"repro/internal/experiments/paper/papertest"
)

func TestGoldens(t *testing.T)    { papertest.Goldens(t, "bwsweep") }
func TestJSONGolden(t *testing.T) { papertest.JSONGoldens(t, "bwsweep") }
func TestBadInput(t *testing.T)   { papertest.BadInput(t, "bwsweep") }
func TestInterrupt(t *testing.T)  { papertest.Interrupt(t, "bwsweep") }
