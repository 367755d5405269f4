// explore, the Fig. 9 exploration tool, is now paper -figure 9. This directory
// holds no command, only explore's tests, which run its rows of the paper
// command's table.
package explore

import (
	"testing"

	"repro/internal/experiments/paper/papertest"
)

func TestGoldens(t *testing.T) {
	papertest.Goldens(t, "explore")
	papertest.JSONGoldens(t, "explore")
}
func TestBadInput(t *testing.T)  { papertest.BadInput(t, "explore") }
func TestInterrupt(t *testing.T) { papertest.Interrupt(t, "explore") }
