package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trafficgen"
)

// controller is what the harness reads from either controller model.
type controller interface {
	Name() string
	Bandwidth() float64
	BusUtilisation() float64
	RowHitRate() float64
	AvgReadLatencyNs() float64
}

// built is one assembled system as the harness sees it: run it, then read
// its results. Both the internal/system rigs (rigs.go) and the hand-wired
// tapped topologies (wired.go) come back in this shape.
type built struct {
	run     func() bool
	reg     *stats.Registry
	kernels []*sim.Kernel
	ctrls   []controller
	gens    []*trafficgen.Generator
	cores   []*cpu.Core
	l1s     []*cache.Cache
	llc     *cache.Cache
	steps   uint64 // quantum barriers executed (sharded rig only)
}

func kernelList(k *sim.Kernel) []*sim.Kernel { return []*sim.Kernel{k} }

func (b *built) events() uint64 {
	var n uint64
	for _, k := range b.kernels {
		n += k.EventsExecuted()
	}
	return n
}

// scalar reads a registered scalar statistic by its full name (0 if absent).
func (b *built) scalar(name string) float64 {
	if s, ok := b.reg.Get(name).(*stats.Scalar); ok {
		return s.Value()
	}
	return 0
}

// average reads a registered average statistic's mean (0 if absent).
func (b *built) average(name string) float64 {
	if a, ok := b.reg.Get(name).(*stats.Average); ok {
		return a.Mean()
	}
	return 0
}

// ctrlScalar sums a per-controller scalar over every controller.
func (b *built) ctrlScalar(stat string) float64 {
	var sum float64
	for _, c := range b.ctrls {
		sum += b.scalar("sys." + c.Name() + "." + stat)
	}
	return sum
}

// responses counts the responses the requestors consumed: generator reads
// and writes issued minus those still outstanding, or core memory operations
// likewise. With every requestor Done this equals the requests asked for.
func (b *built) responses() uint64 {
	var n uint64
	for _, g := range b.gens {
		n += g.Issued() - uint64(g.Outstanding())
	}
	for i := range b.cores {
		n += uint64(b.scalar(fmt.Sprintf("sys.core%d.memOps", i)))
	}
	return n
}

func (b *built) bandwidth() float64 {
	var sum float64
	for _, c := range b.ctrls {
		sum += c.Bandwidth()
	}
	return sum
}

// readLatency is the workload's mean read latency in ns: the generators'
// own histogram, or the LLC miss latency in the full system.
func (b *built) readLatency() float64 {
	if b.llc != nil {
		return b.llc.AvgMissLatencyNs()
	}
	var sum, n float64
	for _, g := range b.gens {
		h := g.ReadLatency()
		sum += h.Mean() * float64(h.Count())
		n += float64(h.Count())
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// digest is the SHA-256 of the registry's text dump: two runs of the same
// computation agree on it byte for byte.
func (b *built) digest() string {
	h := sha256.New()
	if err := b.reg.Dump(h); err != nil {
		return "dump-error:" + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// segment is the measurement of one build-and-run of a system.
type segment struct {
	reqs      uint64
	buildNs   int64
	runNs     int64
	buildMal  uint64 // mallocs while building
	runMal    uint64 // mallocs inside the timed region
	gcCycles  uint32 // GC cycles inside the timed region
	completed bool
	responses uint64
	events    uint64
	steps     uint64
	digest    string
	bw, lat   float64
	sys       *built
}

func (s *segment) nsPerReq() float64 { return float64(s.runNs) / float64(s.reqs) }

// runSegment builds a fresh system, forces a GC, and times only run().
// Statistics are read after the clock stops.
func runSegment(build func() (*built, error), reqs uint64) (*segment, error) {
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	b, err := build()
	buildNs := time.Since(t0).Nanoseconds()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	t1 := time.Now()
	ok := b.run()
	runNs := time.Since(t1).Nanoseconds()
	runtime.ReadMemStats(&m2)
	return &segment{
		reqs: reqs, buildNs: buildNs, runNs: runNs,
		buildMal: m1.Mallocs - m0.Mallocs, runMal: m2.Mallocs - m1.Mallocs,
		gcCycles:  m2.NumGC - m1.NumGC,
		completed: ok, responses: b.responses(), events: b.events(), steps: b.steps,
		digest: b.digest(), bw: b.bandwidth(), lat: b.readLatency(), sys: b,
	}, nil
}

// series is the set of timed segments of one (workload, model): what the
// medians and the correctness gate are computed over.
type series struct {
	nsPerReq  []float64
	buildS    []float64
	reqs      uint64 // total requests attempted, warm-up included
	failed    uint64
	buildMal  uint64
	runMal    uint64
	timedReqs uint64 // requests of the timed (non-warm-up) segments
	gcCycles  uint64
	digest    string
	notes     []string // correctness failures, human readable
	last      *segment
}

// add records one segment. The first segment of a series is the warm-up: it
// sets the reference digest and is otherwise discarded.
func (s *series) add(seg *segment, what string) {
	s.reqs += seg.reqs
	switch {
	case !seg.completed:
		s.failed += seg.reqs
		s.notes = append(s.notes, fmt.Sprintf("%s: run did not complete", what))
	case seg.responses != seg.reqs:
		s.failed += absDiff(seg.reqs, seg.responses)
		s.notes = append(s.notes, fmt.Sprintf("%s: %d responses for %d requests", what, seg.responses, seg.reqs))
	case s.digest != "" && seg.digest != s.digest:
		s.failed += seg.reqs
		s.notes = append(s.notes, fmt.Sprintf("%s: stats digest %s differs from the first segment's %s", what, seg.digest[:12], s.digest[:12]))
	}
	warmup := s.last == nil
	s.last = seg
	if warmup {
		s.digest = seg.digest
		return
	}
	s.nsPerReq = append(s.nsPerReq, seg.nsPerReq())
	s.buildS = append(s.buildS, float64(seg.buildNs)/1e9)
	s.buildMal += seg.buildMal
	s.runMal += seg.runMal
	s.timedReqs += seg.reqs
	s.gcCycles += uint64(seg.gcCycles)
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// endToEndRun is everything the untraced pass of one workload produced.
type endToEndRun struct {
	seed   int64
	event  series
	cycle  series
	evReqs uint64
	cyReqs uint64
	// dev is the deviation pair: one run of each model over the identical
	// request stream, devFactor times a segment's length so that neither the
	// seed nor the rigs' run-loop quantum (simulated time ends on a multiple
	// of it) moves the bandwidth and latency deviations much.
	dev        [2]*segment
	heapLiveMB float64
}

const devFactor = 4

// segReqs rounds a request count down to a multiple of the requestors.
func (w *workload) segReqs(n uint64) uint64 {
	u := uint64(w.units())
	return n / u * u
}

// runEndToEnd measures one workload untraced for about budget of wall time:
// warm-up, then interleaved event and cycle segments (every segment the
// identical computation), then the deviation pair and the heap measurement.
// minSegs is the fewest timed event segments to run whatever the budget.
func runEndToEnd(w *workload, seed int64, budget time.Duration, minSegs int, quick bool) (*endToEndRun, error) {
	r := &endToEndRun{seed: seed, evReqs: w.segReqs(w.evReqs), cyReqs: w.segReqs(w.cyReqs)}
	if quick {
		r.evReqs, r.cyReqs = w.segReqs(w.quickReqs), w.segReqs(w.quickReqs)
	}
	buildEv := func() (*built, error) { return buildRig(w, eventModel, seed, r.evReqs, w.workers, false) }
	buildCy := func() (*built, error) { return buildRig(w, cycleModel, seed, r.cyReqs, w.workers, false) }
	one := func(s *series, build func() (*built, error), reqs uint64, what string) error {
		seg, err := runSegment(build, reqs)
		if err != nil {
			return fmt.Errorf("%s %s: %w", w.name, what, err)
		}
		s.add(seg, what)
		return nil
	}

	start := time.Now()
	if err := one(&r.event, buildEv, r.evReqs, "event warm-up"); err != nil {
		return nil, err
	}
	if err := one(&r.cycle, buildCy, r.cyReqs, "cycle warm-up"); err != nil {
		return nil, err
	}
	for round := 0; time.Since(start) < budget || len(r.event.nsPerReq) < minSegs; round++ {
		if err := one(&r.event, buildEv, r.evReqs, fmt.Sprintf("event segment %d", round)); err != nil {
			return nil, err
		}
		if round%cycleEvery == cycleEvery-1 {
			if err := one(&r.cycle, buildCy, r.cyReqs, fmt.Sprintf("cycle segment %d", round)); err != nil {
				return nil, err
			}
		}
	}
	if len(r.cycle.nsPerReq) == 0 {
		if err := one(&r.cycle, buildCy, r.cyReqs, "cycle segment"); err != nil {
			return nil, err
		}
	}

	for _, m := range []model{eventModel, cycleModel} {
		m, devReqs := m, devFactor*r.evReqs
		seg, err := runSegment(func() (*built, error) {
			return buildRig(w, m, seed, devReqs, w.workers, false)
		}, devReqs)
		if err != nil {
			return nil, fmt.Errorf("%s deviation pair: %w", w.name, err)
		}
		r.dev[m] = seg
	}

	var heaps []float64
	for i := 0; i < 3; i++ {
		h, err := heapLive(buildEv)
		if err != nil {
			return nil, err
		}
		heaps = append(heaps, h)
	}
	r.heapLiveMB = median(heaps)
	return r, nil
}

// heapLive is the live heap, in MiB, of one built-and-run system after a
// forced GC, minus the heap before it was built.
func heapLive(build func() (*built, error)) (float64, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	b, err := build()
	if err != nil {
		return 0, err
	}
	b.run()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(b)
	return (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / (1 << 20), nil
}

// matchPct is 100 minus the deviation of the event model from the cycle
// model in percent of the cycle model's value: 100 means identical.
func matchPct(event, cycle float64) float64 {
	if cycle == 0 {
		return 0
	}
	return 100 - 100*math.Abs(event-cycle)/cycle
}

// attempted and failed count requests over every segment of the run.
func (r *endToEndRun) attempted() uint64 {
	return r.event.reqs + r.cycle.reqs + r.dev[eventModel].reqs + r.dev[cycleModel].reqs
}

func (r *endToEndRun) failed() uint64 {
	f := r.event.failed + r.cycle.failed
	for _, d := range r.dev {
		if !d.completed || d.responses != d.reqs {
			f += d.reqs
		}
	}
	return f
}

// metrics returns the end-to-end metrics of the run by name, units left to
// the metric table.
func (r *endToEndRun) metrics() map[string]value {
	ev := &r.event
	return map[string]value{
		"setup_s":                timing(ev.buildS),
		"host_ns_per_req":        timing(ev.nsPerReq),
		"allocs_per_req":         {Value: float64(ev.buildMal+ev.runMal) / float64(ev.timedReqs)},
		"heap_live_mb":           {Value: r.heapLiveMB},
		"bw_match_vs_cycle_pct":  {Value: matchPct(r.dev[eventModel].bw, r.dev[cycleModel].bw)},
		"lat_match_vs_cycle_pct": {Value: matchPct(r.dev[eventModel].lat, r.dev[cycleModel].lat)},
		"ok_req_share":           {Value: 1 - float64(r.failed())/float64(r.attempted())},
		"events_per_req":         {Value: float64(ev.last.events) / float64(ev.last.reqs)},
	}
}
