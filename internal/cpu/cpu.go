// Package cpu provides a simplified out-of-order core model for the paper's
// full-system-style case studies (§IV). The paper runs PARSEC workloads on
// gem5's OoO cores; what those runs contribute to the *memory* experiments
// is a closed-loop arrival process — request rates that react to memory
// latency because the core can only run ahead a bounded distance (ROB/MSHR
// limits). This model reproduces exactly that property: it retires a
// configurable number of compute instructions between memory operations,
// sustains a bounded number of outstanding accesses (memory-level
// parallelism), and stalls when the bound is hit. Absolute IPC is synthetic;
// the *ratios* between memory systems and between controller models are the
// experiment.
package cpu

import (
	"cmp"
	"fmt"
	"math"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trafficgen"
)

// Config shapes one core.
type Config struct {
	// Clock is the core clock (paper Table II: 2 GHz).
	Clock sim.Frequency
	// Width is the superscalar commit width for compute instructions.
	Width int
	// InstrPerMemOp is the number of compute instructions between memory
	// operations (the workload's compute-to-memory ratio).
	InstrPerMemOp int
	// MaxOutstanding bounds in-flight memory operations (the ROB/LSQ-driven
	// memory-level parallelism; paper Table II's 40-entry ROB with 6 D-MSHRs
	// sustains single-digit MLP).
	MaxOutstanding int
	// AccessBytes is the size of each memory operation.
	AccessBytes uint64
	// MemOps is the number of memory operations to execute (the region of
	// interest); 0 means run until stopped.
	MemOps uint64
	// RequestorID tags this core's packets.
	RequestorID int
}

// DefaultConfig returns a Table II-flavoured core.
func DefaultConfig() Config {
	return Config{
		Clock:          2 * sim.GHz,
		Width:          6,
		InstrPerMemOp:  3,
		MaxOutstanding: 6,
		AccessBytes:    8,
		RequestorID:    0,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Clock <= 0:
		return fmt.Errorf("cpu: non-positive clock")
	case c.Width <= 0:
		return fmt.Errorf("cpu: non-positive width")
	case c.InstrPerMemOp < 0:
		return fmt.Errorf("cpu: negative instructions per mem op")
	case c.MaxOutstanding <= 0:
		return fmt.Errorf("cpu: non-positive outstanding limit")
	case c.AccessBytes == 0:
		return fmt.Errorf("cpu: zero access size")
	}
	return nil
}

// Core is one synthetic out-of-order core driving a cache or memory port
// through a trafficgen.Issuer, which counts its stall time (StallTicks).
type Core struct {
	trafficgen.Issuer
	cfg     Config
	k       *sim.Kernel
	pattern trafficgen.Pattern
	// delay is computeDelay(), the spacing between two issues.
	delay     sim.Tick
	startTick sim.Tick

	instrRetired *stats.Scalar
	memOps       *stats.Scalar
	loadLatency  *stats.Average
}

// New builds a core registering statistics under name.
func New(k *sim.Kernel, cfg Config, pattern trafficgen.Pattern, reg *stats.Registry, name string) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if pattern == nil {
		return nil, fmt.Errorf("cpu: nil pattern")
	}
	c := &Core{cfg: cfg, k: k, pattern: pattern, startTick: k.Now()}
	c.delay = c.computeDelay()
	c.Init(k, name, sim.DefaultPriority, c, cfg.MaxOutstanding, cmp.Or(cfg.MemOps, math.MaxUint64), cfg.RequestorID)
	r := reg.Child(name)
	c.instrRetired = r.NewScalar("instrRetired", "instructions retired")
	c.memOps = r.NewScalar("memOps", "memory operations issued")
	c.StallTicks = r.NewScalar("stallTicks", "ticks stalled on memory")
	c.loadLatency = r.NewAverage("loadLatency", "memory operation latency (ns)")
	return c, nil
}

// Start begins execution at the current tick.
func (c *Core) Start() {
	c.startTick = c.k.Now()
	c.Issuer.Start()
}

// computeDelay is the time spent retiring the compute instructions between
// memory operations.
func (c *Core) computeDelay() sim.Tick {
	period := c.cfg.Clock.Period()
	cycles := (c.cfg.InstrPerMemOp + c.cfg.Width - 1) / c.cfg.Width
	if cycles < 1 {
		cycles = 1
	}
	return sim.Tick(cycles) * period
}

// NextRequest implements trafficgen.Feed: the next memory operation retires
// with the compute instructions before it, and the one after is due once
// those of its own have retired.
func (c *Core) NextRequest(now sim.Tick) (mem.Addr, bool, uint64) {
	addr, isRead := c.pattern.Next()
	c.memOps.Inc()
	c.instrRetired.Add(float64(c.cfg.InstrPerMemOp + 1))
	c.Due = now + c.delay
	return addr, isRead, c.cfg.AccessBytes
}

// Answered implements trafficgen.Feed.
func (c *Core) Answered(_ bool, latNs float64) { c.loadLatency.Sample(latNs) }

// IPC returns retired instructions per core clock cycle since Start.
func (c *Core) IPC() float64 {
	elapsed := c.k.Now() - c.startTick
	if elapsed <= 0 {
		return 0
	}
	cycles := float64(elapsed) / float64(c.cfg.Clock.Period())
	return c.instrRetired.Value() / cycles
}

// AvgLoadLatencyNs returns the mean memory-operation latency seen by the
// core.
func (c *Core) AvgLoadLatencyNs() float64 { return c.loadLatency.Mean() }

// StallFraction returns the share of time spent stalled on memory.
func (c *Core) StallFraction() float64 {
	elapsed := c.k.Now() - c.startTick
	if elapsed <= 0 {
		return 0
	}
	return c.StallTicks.Value() / float64(elapsed)
}

// InstructionsRetired returns the retired instruction count.
func (c *Core) InstructionsRetired() uint64 { return uint64(c.instrRetired.Value()) }
