// Package trafficgen provides the synthetic traffic generators used to
// exercise the controllers (paper §III-A): a linear generator producing a
// sequential address stream, a random generator drawing uniform addresses, a
// DRAM-aware generator that targets a chosen row-hit rate and bank count,
// and a trace player. Every generator measures end-to-end read latency from
// its own vantage point, which is where the paper measures it too.
package trafficgen

import (
	"fmt"
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

// Generator drives a memory port with a Pattern under a closed-loop
// outstanding-request limit.
type Generator struct {
	cfg     Config
	k       *sim.Kernel
	pattern Pattern
	port    *mem.RequestPort

	issued      uint64
	outstanding int
	blocked     *mem.Packet
	nextAllowed sim.Tick
	tick        *sim.Event

	// pool recycles this generator's packets: a request is drawn on issue
	// and released when its response is consumed, so a closed-loop stream
	// allocates nothing in steady state. The pool is single-threaded with
	// the generator's kernel; packets in flight are never in it.
	pool mem.PacketPool

	// The stats objects live in the registry; the generator only holds
	// handles.
	reads, writes  *stats.Scalar
	readLatency    *stats.Histogram
	writeAckLat    *stats.Average
	retriesWaited  *stats.Scalar
	bytesRequested *stats.Scalar
}

// New builds a generator registering statistics under name.
func New(k *sim.Kernel, cfg Config, pattern Pattern, reg *stats.Registry, name string) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{cfg: cfg, k: k, pattern: pattern}
	g.port = mem.NewRequestPort(name+".port", g, k)
	g.tick = sim.NewEvent(name+".tick", g.issueLoop)
	r := reg.Child(name)
	g.reads = r.NewScalar("reads", "read requests issued")
	g.writes = r.NewScalar("writes", "write requests issued")
	// 2 microseconds at 2 ns resolution covers refresh-delayed tails.
	g.readLatency = r.NewHistogram("readLatency", "read latency (ns)", 0, 2000, 1000)
	g.writeAckLat = r.NewAverage("writeAckLat", "write acknowledge latency (ns)")
	g.retriesWaited = r.NewScalar("retries", "times blocked by back pressure")
	g.bytesRequested = r.NewScalar("bytesRequested", "bytes requested")
	return g, nil
}

// Port returns the memory-side request port.
func (g *Generator) Port() *mem.RequestPort { return g.port }

// Start schedules the first issue at the current tick.
func (g *Generator) Start() {
	if !g.tick.Scheduled() {
		g.k.Schedule(g.tick, g.k.Now())
	}
}

// Done reports whether the generator issued Count requests and saw every
// response.
func (g *Generator) Done() bool {
	return g.cfg.Count > 0 && g.issued >= g.cfg.Count && g.outstanding == 0 && g.blocked == nil
}

// Unbounded reports a generator with no Count: it issues until stopped, so
// Done never holds and a run that waits for it cannot finish.
func (g *Generator) Unbounded() bool { return g.cfg.Count == 0 }

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

// Issued returns the number of requests injected so far.
func (g *Generator) Issued() uint64 { return g.issued }

// Outstanding returns the number of in-flight requests.
func (g *Generator) Outstanding() int { return g.outstanding }

// ReadLatency exposes the read latency histogram (Figs. 6-7 are drawn from
// this).
func (g *Generator) ReadLatency() *stats.Histogram { return g.readLatency }

// issueLoop injects requests while allowed, then re-arms itself.
func (g *Generator) issueLoop() {
	now := g.k.Now()
	for g.blocked == nil &&
		g.outstanding < g.cfg.MaxOutstanding &&
		(g.cfg.Count == 0 || g.issued < g.cfg.Count) &&
		now >= g.nextAllowed {
		addr, isRead := g.pattern.Next()
		var pkt *mem.Packet
		if isRead {
			pkt = g.pool.NewRead(addr, g.cfg.RequestBytes, g.cfg.RequestorID, now)
			g.reads.Inc()
		} else {
			pkt = g.pool.NewWrite(addr, g.cfg.RequestBytes, g.cfg.RequestorID, now)
			g.writes.Inc()
		}
		g.issued++
		g.outstanding++
		g.bytesRequested.Add(float64(g.cfg.RequestBytes))
		g.nextAllowed = now + g.cfg.InterTransaction
		if gp, ok := g.pattern.(GapPattern); ok {
			// Time-shaping patterns stretch the spacing after a request —
			// the loop condition then parks the generator until the gap ends.
			g.nextAllowed += gp.Gap()
		}
		if !g.port.SendTimingReq(pkt) {
			g.blocked = pkt
			g.retriesWaited.Inc()
			return
		}
		if g.cfg.InterTransaction > 0 {
			break
		}
	}
	g.rearm()
}

// rearm schedules the next issue attempt if more work is pending and no
// retry is awaited.
func (g *Generator) rearm() {
	if g.blocked != nil || g.tick.Scheduled() {
		return
	}
	if g.cfg.Count > 0 && g.issued >= g.cfg.Count {
		return
	}
	if g.outstanding >= g.cfg.MaxOutstanding {
		return // a response will wake us
	}
	when := g.nextAllowed
	if now := g.k.Now(); when < now {
		when = now
	}
	g.k.Schedule(g.tick, when)
}

// RecvTimingResp implements mem.Requestor. The generator created the packet,
// so once the response is consumed here the transaction has fully left the
// memory system and the packet returns to the pool. When the freed slot lets
// the generator issue now and its tick would be the kernel's next event, it
// issues in this call instead of firing the tick (sim.Kernel.Alone).
func (g *Generator) RecvTimingResp(pkt *mem.Packet) bool {
	now := g.k.Now()
	lat := (now - pkt.IssueTick).Nanoseconds()
	if pkt.Cmd == mem.ReadResp {
		g.readLatency.Sample(lat)
	} else {
		g.writeAckLat.Sample(lat)
	}
	g.outstanding--
	g.pool.Put(pkt)
	if g.blocked == nil && !g.tick.Scheduled() && now >= g.nextAllowed && g.k.Alone(nil) {
		g.issueLoop()
		return true
	}
	g.rearm()
	return true
}

// RecvReqRetry implements mem.Requestor: resend the blocked packet.
func (g *Generator) RecvReqRetry() {
	if g.blocked == nil {
		return
	}
	pkt := g.blocked
	g.blocked = nil
	if !g.port.SendTimingReq(pkt) {
		g.blocked = pkt
		return
	}
	g.rearm()
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
