package cpu

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trafficgen"
)

// GPU models the other requestor class the paper names (§I: "many-core CPUs
// and GPUs"): a throughput engine running many independent wavefronts, each
// alternating a coalesced memory access with compute. Unlike the CPU model,
// whose small MLP makes IPC collapse with memory latency, a GPU with enough
// wavefronts in flight is latency-tolerant and only slows down when the
// memory system runs out of *bandwidth* — the contrast that makes
// controller bandwidth behaviour (Figs. 3-5) matter for GPU-class clients.
type GPUConfig struct {
	// Wavefronts is the number of independent in-flight contexts.
	Wavefronts int
	// AccessBytes is each wavefront's coalesced access size.
	AccessBytes uint64
	// ComputePerAccess is the per-wavefront compute time between accesses.
	ComputePerAccess sim.Tick
	// MemOps is the total accesses to perform across all wavefronts
	// (0 = unlimited).
	MemOps uint64
	// RequestorID tags the GPU's packets.
	RequestorID int
}

// Validate checks the configuration.
func (c GPUConfig) Validate() error {
	switch {
	case c.Wavefronts <= 0:
		return fmt.Errorf("cpu: non-positive wavefront count")
	case c.AccessBytes == 0:
		return fmt.Errorf("cpu: zero access size")
	case c.ComputePerAccess < 0:
		return fmt.Errorf("cpu: negative compute time")
	}
	return nil
}

// GPU is the wavefront engine.
type GPU struct {
	cfg  GPUConfig
	k    *sim.Kernel
	port *mem.RequestPort
	pool mem.PacketPool // accesses are drawn here and released on response

	// patterns supplies each wavefront's address stream.
	patterns []trafficgen.Pattern

	issued    uint64
	completed uint64
	inFlight  int
	blocked   mem.PacketQueue // refused accesses awaiting the port's retry (ticks unused)
	startTick sim.Tick

	accesses    *stats.Scalar
	bytesMoved  *stats.Scalar
	loadLatency *stats.Average
}

// NewGPU builds a GPU whose wavefront w draws addresses from
// patternFor(w).
func NewGPU(k *sim.Kernel, cfg GPUConfig, patternFor func(w int) trafficgen.Pattern,
	reg *stats.Registry, name string) (*GPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if patternFor == nil {
		return nil, fmt.Errorf("cpu: nil pattern factory")
	}
	g := &GPU{cfg: cfg, k: k, startTick: k.Now()}
	g.port = mem.NewRequestPort(name+".port", g, k)
	g.patterns = make([]trafficgen.Pattern, cfg.Wavefronts)
	for w := range g.patterns {
		g.patterns[w] = patternFor(w)
		if g.patterns[w] == nil {
			return nil, fmt.Errorf("cpu: nil pattern for wavefront %d", w)
		}
	}
	r := reg.Child(name)
	g.accesses = r.NewScalar("accesses", "memory accesses completed")
	g.bytesMoved = r.NewScalar("bytes", "bytes moved")
	g.loadLatency = r.NewAverage("loadLatency", "access latency (ns)")
	return g, nil
}

// Port returns the memory-side request port.
func (g *GPU) Port() *mem.RequestPort { return g.port }

// Start launches every wavefront at the current tick.
func (g *GPU) Start() {
	g.startTick = g.k.Now()
	for w := 0; w < g.cfg.Wavefronts; w++ {
		w := w
		g.k.Schedule(sim.NewEvent("gpu.wave", func() { g.issueWave(w) }), g.k.Now())
	}
}

// Done reports whether the configured access count completed.
func (g *GPU) Done() bool {
	return g.cfg.MemOps > 0 && g.completed >= g.cfg.MemOps && g.inFlight == 0 && g.blocked.Len() == 0
}

// Throughput returns completed accesses per microsecond of simulated time.
func (g *GPU) Throughput() float64 {
	elapsed := g.k.Now() - g.startTick
	if elapsed <= 0 {
		return 0
	}
	return float64(g.completed) / (float64(elapsed) / float64(sim.Microsecond))
}

// AvgLoadLatencyNs returns the mean access latency — large for GPUs under
// load, and largely irrelevant to their throughput.
func (g *GPU) AvgLoadLatencyNs() float64 { return g.loadLatency.Mean() }

// issueWave sends wavefront w's next access.
func (g *GPU) issueWave(w int) {
	if g.cfg.MemOps > 0 && g.issued >= g.cfg.MemOps {
		return
	}
	addr, isRead := g.patterns[w].Next()
	var pkt *mem.Packet
	if isRead {
		pkt = g.pool.NewRead(addr, g.cfg.AccessBytes, g.cfg.RequestorID, g.k.Now())
	} else {
		pkt = g.pool.NewWrite(addr, g.cfg.AccessBytes, g.cfg.RequestorID, g.k.Now())
	}
	pkt.Meta = w
	g.issued++
	g.inFlight++
	if !g.port.SendTimingReq(pkt) {
		g.blocked.Push(pkt, 0)
	}
}

// RecvTimingResp implements mem.Requestor: the wavefront computes, then
// issues its next access.
func (g *GPU) RecvTimingResp(pkt *mem.Packet) bool {
	g.inFlight--
	g.completed++
	g.accesses.Inc()
	g.bytesMoved.Add(float64(pkt.Size))
	g.loadLatency.Sample((g.k.Now() - pkt.IssueTick).Nanoseconds())
	w := pkt.Meta.(int)
	g.pool.Put(pkt)
	g.k.Schedule(sim.NewEvent("gpu.wave", func() { g.issueWave(w) }),
		g.k.Now()+g.cfg.ComputePerAccess)
	return true
}

// RecvReqRetry implements mem.Requestor.
func (g *GPU) RecvReqRetry() {
	for g.blocked.Len() > 0 {
		if pkt, _ := g.blocked.At(0); !g.port.SendTimingReq(pkt) {
			return
		}
		g.blocked.Pop()
	}
}
