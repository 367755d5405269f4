// powercmp, the §III-C3 power tool, is now paper -figure power|savings. This
// directory holds no command, only powercmp's tests, which run its rows of the
// paper command's table.
package powercmp

import (
	"testing"

	"repro/internal/experiments/paper/papertest"
)

func TestGoldens(t *testing.T)   { papertest.Goldens(t, "powercmp") }
func TestBadInput(t *testing.T)  { papertest.BadInput(t, "powercmp") }
func TestInterrupt(t *testing.T) { papertest.Interrupt(t, "powercmp") }
