// speedup, the §III-D host-time tool, is now paper -figure speedup. This
// directory holds no command, only speedup's tests, which run its rows of the
// paper command's table.
package speedup

import (
	"testing"

	"repro/internal/experiments/paper/papertest"
)

func TestGolden(t *testing.T)    { papertest.Goldens(t, "speedup") }
func TestBadInput(t *testing.T)  { papertest.BadInput(t, "speedup") }
func TestInterrupt(t *testing.T) { papertest.Interrupt(t, "speedup") }
