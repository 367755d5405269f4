// Package interact is the cross-analyzer fixture: one package that trips
// every registered analyzer at least once, pinning (a) the deterministic
// global finding order — sorted by file, line, analyzer, message — and
// (b) per-analyzer suppression scoping: a //lint:allow for one analyzer on a
// line where two analyzers fire silences only its own.
package interact

import (
	"fmt"
	"io"

	"repro/internal/sim"
)

// --- detmap ---

// Report writes rows in map order.
func Report(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v)
	}
}

// --- ckptfields ---

// comp persists a but forgot missed.
type comp struct {
	a      int
	missed int
}

func (c *comp) CheckpointSave() (any, error) {
	return c.a, nil
}

func (c *comp) CheckpointRestore(data []byte) error {
	c.a = len(data)
	return nil
}

// --- tickunits + detmap on one line, with scoped suppression ---

// Scoped produces a tickunits finding (a tick named like a nanosecond count)
// and a detmap finding (the last key in map order) on the same line; the
// directive names only tickunits, so detmap must survive.
func Scoped(m map[sim.Tick]bool) sim.Tick {
	var last sim.Tick
	//lint:allow tickunits interact fixture: suppression is scoped per analyzer
	for windowNs := range m {
		last = windowNs
	}
	return last
}

// Convert is the unsuppressed tickunits finding.
func Convert(idleNs int64) sim.Tick {
	return sim.Tick(idleNs)
}

// --- shardiso ---

type pipe struct {
	q []int
}

// Flush drains the pipe between quanta.
//
//shard:barrier only the single-threaded section may drain
func (p *pipe) Flush() {
	p.q = p.q[:0]
}

// Arm hands the kernel a callback that reaches the barrier function.
func Arm(k *sim.Kernel, p *pipe) {
	k.CallIn("drain", 1, func() {
		p.Flush()
	})
}

// Use keeps the unexported pieces alive for the type checker.
func Use() any {
	return &comp{}
}
