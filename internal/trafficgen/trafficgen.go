// Package trafficgen provides the synthetic traffic generators used to
// exercise the controllers (paper §III-A): a linear generator producing a
// sequential address stream, a random generator drawing uniform addresses, a
// DRAM-aware generator that targets a chosen row-hit rate and bank count,
// and a trace player. Every generator measures end-to-end read latency from
// its own vantage point, which is where the paper measures it too.
package trafficgen

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Pattern supplies the address stream: each call returns the next request's
// address and direction.
type Pattern interface {
	Next() (addr mem.Addr, isRead bool)
}

// GapPattern is optionally implemented by patterns that shape time as well
// as addresses: Gap is consulted once after each Next and its result is
// added to the generator's inter-transaction spacing. The bursty pattern
// inserts its off-periods this way.
type GapPattern interface {
	Gap() sim.Tick
}

// Config shapes a generator independent of its address pattern.
type Config struct {
	// RequestBytes is the size of each request (typically the cache-line
	// or DRAM burst size).
	RequestBytes uint64
	// MaxOutstanding bounds in-flight requests; together with queue
	// back pressure this closes the loop.
	MaxOutstanding int
	// InterTransaction is the minimum spacing between issues (0 saturates).
	InterTransaction sim.Tick
	// Count is the total number of requests to issue (0 = unlimited).
	Count uint64
	// RequestorID tags packets for routing and attribution.
	RequestorID int
}

// Validate checks generator parameters.
func (c Config) Validate() error {
	switch {
	case c.RequestBytes == 0:
		return fmt.Errorf("trafficgen: request size must be positive")
	case c.MaxOutstanding <= 0:
		return fmt.Errorf("trafficgen: max outstanding must be positive")
	case c.InterTransaction < 0:
		return fmt.Errorf("trafficgen: negative inter-transaction time")
	}
	return nil
}

// Generator drives an Issuer with a Pattern under a closed-loop
// outstanding-request limit.
type Generator struct {
	Issuer
	cfg     Config
	pattern Pattern
	gap     GapPattern // pattern, when it shapes time too; else nil

	// The stats objects live in the registry; the generator only holds
	// handles (its refusals are the engine's Refusals).
	reads, writes  *stats.Scalar
	readLatency    *stats.Histogram
	writeAckLat    *stats.Average
	bytesRequested *stats.Scalar
}

// New builds a generator registering statistics under name.
func New(k *sim.Kernel, cfg Config, pattern Pattern, reg *stats.Registry, name string) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{cfg: cfg, pattern: pattern}
	g.gap, _ = pattern.(GapPattern)
	g.Init(k, name, sim.DefaultPriority, g, cfg.MaxOutstanding, cmp.Or(cfg.Count, math.MaxUint64), cfg.RequestorID)
	r := reg.Child(name)
	g.reads = r.NewScalar("reads", "read requests issued")
	g.writes = r.NewScalar("writes", "write requests issued")
	// 2 microseconds at 2 ns resolution covers refresh-delayed tails.
	g.readLatency = r.NewHistogram("readLatency", "read latency (ns)", 0, 2000, 1000)
	g.writeAckLat = r.NewAverage("writeAckLat", "write acknowledge latency (ns)")
	g.Refusals = r.NewScalar("retries", "times blocked by back pressure")
	g.bytesRequested = r.NewScalar("bytesRequested", "bytes requested")
	return g, nil
}

// CheckpointConfig is what the generator states in a checkpoint's recipe:
// its Config plus its pattern's type and parameters (a pattern's exported
// fields are its configuration; its position is unexported).
func (g *Generator) CheckpointConfig() any {
	return struct {
		Config
		PatternType string
		Pattern     Pattern
	}{g.cfg, fmt.Sprintf("%T", g.pattern), g.pattern}
}

// ReadLatency exposes the read latency histogram (Figs. 6-7 are drawn from
// this).
func (g *Generator) ReadLatency() *stats.Histogram { return g.readLatency }

// NextRequest implements Feed: the pattern's next address, due the
// inter-transaction time later, stretched by a GapPattern's gap.
func (g *Generator) NextRequest(now sim.Tick) (mem.Addr, bool, uint64) {
	addr, isRead := g.pattern.Next()
	if isRead {
		g.reads.Inc()
	} else {
		g.writes.Inc()
	}
	g.bytesRequested.Add(float64(g.cfg.RequestBytes))
	g.Due = now + g.cfg.InterTransaction
	if g.gap != nil {
		g.Due += g.gap.Gap()
	}
	return addr, isRead, g.cfg.RequestBytes
}

// Answered implements Feed.
func (g *Generator) Answered(isRead bool, latNs float64) {
	if isRead {
		g.readLatency.Sample(latNs)
	} else {
		g.writeAckLat.Sample(latNs)
	}
}

// readWriteMix decides request direction with a seeded RNG so runs are
// reproducible; percent is the share of reads in [0,100].
type readWriteMix struct {
	rng     *rand.Rand
	percent int
}

func (m *readWriteMix) isRead() bool {
	switch {
	case m.percent >= 100:
		return true
	case m.percent <= 0:
		return false
	default:
		return m.rng.Intn(100) < m.percent
	}
}
