// fullsys, the Fig. 8 full-system tool, is now paper -figure 8. This directory
// holds no command, only fullsys's tests, which run its rows of the paper
// command's table.
package fullsys

import (
	"testing"

	"repro/internal/experiments/paper/papertest"
)

func TestGolden(t *testing.T)    { papertest.Goldens(t, "fullsys") }
func TestBadInput(t *testing.T)  { papertest.BadInput(t, "fullsys") }
func TestInterrupt(t *testing.T) { papertest.Interrupt(t, "fullsys") }
