// latdist, the Figs. 6-7 latency tool, is now paper -figure 6|7. This
// directory holds no command, only latdist's tests, which run its rows of the
// paper command's table.
package latdist

import (
	"testing"

	"repro/internal/experiments/paper/papertest"
)

func TestGoldens(t *testing.T)   { papertest.Goldens(t, "latdist") }
func TestBadInput(t *testing.T)  { papertest.BadInput(t, "latdist") }
func TestInterrupt(t *testing.T) { papertest.Interrupt(t, "latdist") }
