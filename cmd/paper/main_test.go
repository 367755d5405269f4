package main

import (
	"testing"

	"repro/internal/experiments/paper/papertest"
)

// paper's own rows of the table; the rows of the tools it replaced run under
// their old names in their old directories.
func TestGoldens(t *testing.T)  { papertest.Goldens(t, "paper") }
func TestBadInput(t *testing.T) { papertest.BadInput(t, "paper") }
