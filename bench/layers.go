package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/xbar"
)

// layerRun is what the per-layer pass of one workload produced.
type layerRun struct {
	attempted, failed uint64
	notes             []string
	metrics           map[string]float64
	effort            effort
}

// spanCapacity bounds the spans kept for -trace-out (about 12 MiB); the
// per-boundary sums the metrics come from are not bounded by it.
const spanCapacity = 1 << 18

// runPerLayer produces every per-layer metric of one workload: counters (C)
// from the untraced run e2e, the traced pass (T), the isolation pass (I) and
// what is derived from them (D). End-to-end numbers never come from here.
func runPerLayer(w *workload, e2e *endToEndRun, o options, budget time.Duration) (*layerRun, error) {
	lr := &layerRun{metrics: map[string]float64{}, effort: fullEffort}
	if o.quick {
		lr.effort = quickEffort
	}
	for _, d := range perLayer {
		lr.metrics[d.name] = 0
	}
	lr.untraced(w, e2e)
	if w.topo == topoSharded {
		if err := lr.shardedExtras(w, e2e, o); err != nil {
			return nil, err
		}
	}
	captured, err := lr.tracedPass(w, e2e, o, budget*3/4)
	if err != nil {
		return nil, err
	}
	if err := lr.isolationPass(w, e2e, captured); err != nil {
		return nil, err
	}
	return lr, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// untraced fills the counter metrics (C) and the system.* and cyclesim.*
// numbers the untraced run already holds.
func (lr *layerRun) untraced(w *workload, e2e *endToEndRun) {
	m := lr.metrics
	ev, cy := &e2e.event, &e2e.cycle
	b := ev.last.sys
	reqs := float64(ev.last.reqs)
	nCtrl := float64(len(b.ctrls))

	var hit, util float64
	for _, c := range b.ctrls {
		hit += c.RowHitRate()
		util += c.BusUtilisation()
	}
	ctrlReqs := b.ctrlScalar("readReqs") + b.ctrlScalar("writeReqs")
	m["core.row_hit_rate"] = hit / nCtrl
	m["core.bus_util"] = util / nCtrl
	var rdq, wrq float64
	for _, c := range b.ctrls {
		rdq += b.average("sys." + c.Name() + ".readQueueLen")
		wrq += b.average("sys." + c.Name() + ".writeQueueLen")
	}
	m["core.avg_rdq_len"] = rdq / nCtrl
	m["core.avg_wrq_len"] = wrq / nCtrl
	m["core.wr_merged_share"] = ratio(b.ctrlScalar("mergedWrBursts"), b.ctrlScalar("writeBursts")+b.ctrlScalar("mergedWrBursts"))
	m["core.rd_forwarded_share"] = ratio(b.ctrlScalar("servicedByWrQ"), b.ctrlScalar("readBursts"))
	m["core.turnarounds_per_kreq"] = 1000 * ratio(b.ctrlScalar("rdWrTurnarounds"), ctrlReqs)
	m["core.refreshes_per_kreq"] = 1000 * ratio(b.ctrlScalar("refreshes"), ctrlReqs)
	m["core.sim_bw_gbs"] = b.bandwidth() / 1e9
	m["core.sim_read_lat_ns"] = b.readLatency()

	cb := cy.last.sys
	cyReqs := float64(cy.last.reqs)
	m["cyclesim.host_ns_per_req"] = median(cy.nsPerReq)
	m["cyclesim.events_per_req"] = float64(cy.last.events) / cyReqs
	m["cyclesim.cycles_per_req"] = cb.ctrlScalar("cyclesTicked") / cyReqs
	m["cyclesim.allocs_per_req"] = ratio(float64(cy.runMal), float64(cy.timedReqs))
	m["cyclesim.sim_bw_gbs"] = cb.bandwidth() / 1e9
	m["cyclesim.sim_read_lat_ns"] = cb.readLatency()
	m["cyclesim.speedup_vs_cycle"] = ratio(median(cy.nsPerReq), median(ev.nsPerReq))

	var blocked, routed float64
	for _, x := range []string{"xbar", "corexbar", "memxbar"} {
		blocked += b.scalar("sys." + x + ".blockedReqs")
		routed += b.scalar("sys." + x + ".reqRouted")
	}
	m["xbar.blocked_share"] = ratio(blocked, blocked+routed)

	if b.llc != nil {
		var l1hit, wbs float64
		for i, c := range b.l1s {
			l1hit += c.HitRate()
			wbs += b.scalar(fmt.Sprintf("sys.l1_%d.writebacks", i))
		}
		wbs += b.scalar("sys.llc.writebacks")
		llcAcc := b.scalar("sys.llc.hits") + b.scalar("sys.llc.misses")
		llcBlocked := b.scalar("sys.llc.blockedOnMSHRs")
		m["cache.l1_hit_rate"] = l1hit / float64(len(b.l1s))
		m["cache.llc_hit_rate"] = b.llc.HitRate()
		m["cache.llc_mshr_blocked_share"] = ratio(llcBlocked, llcBlocked+llcAcc)
		m["cache.writebacks_per_kreq"] = 1000 * wbs / reqs
		m["cache.llc_miss_lat_ns"] = b.llc.AvgMissLatencyNs()
		var ipc, stall float64
		for _, c := range b.cores {
			ipc += c.IPC()
			stall += c.StallFraction()
		}
		m["cpu.ipc"] = ipc / float64(len(b.cores))
		m["cpu.stall_share"] = stall / float64(len(b.cores))
	}

	m["system.segments"] = float64(len(ev.nsPerReq))
	m["system.host_ns_per_req"] = median(ev.nsPerReq)
	m["system.host_ns_per_req_p25"] = quantile(ev.nsPerReq, 0.25)
	m["system.host_ns_per_req_best3"] = best3(ev.nsPerReq)
	m["system.host_ns_per_req_p90"] = quantile(ev.nsPerReq, 0.90)
	m["system.seg_iqr_pct"] = iqrPct(ev.nsPerReq)
	m["system.run_allocs_per_req"] = ratio(float64(ev.runMal), float64(ev.timedReqs))
	m["system.gc_cycles_per_mreq"] = 1e6 * ratio(float64(ev.gcCycles), float64(ev.timedReqs))
	if w.topo == topoSharded {
		m["system.barriers_per_kreq"] = 1000 * float64(ev.last.steps) / reqs
		m["system.step_ns"] = median(ev.nsPerReq) * reqs / float64(ev.last.steps)
		if parallelWorkers > runtime.NumCPU() {
			m["system.undersubscribed"] = 1
		}
	}
}

// shardedSegments is how many segments of each variant shardedExtras runs.
const shardedSegments = 5

// parallelWorkers is the worker count of the parallel variant. Parallel
// stepping is measured here and not as a gated workload: with as many
// workers as the shared host has CPUs its wall time follows the host's
// scheduler (run-to-run spread up to 29 %), which no bound can hold.
const parallelWorkers = 2

// shardedExtras measures, for the sharded workloads, the same traffic on one
// kernel and on one and two workers, interleaved so host drift hits all
// three alike.
func (lr *layerRun) shardedExtras(w *workload, e2e *endToEndRun, o options) error {
	reqs := e2e.evReqs
	var single, one, two series
	variants := []struct {
		s            *series
		workers      int
		singleKernel bool
		what         string
	}{
		{&single, 1, true, "single-kernel"},
		{&one, 1, false, "sharded 1 worker"},
		{&two, parallelWorkers, false, "sharded 2 workers"},
	}
	for i := 0; i <= shardedSegments; i++ { // segment 0 of each series is its warm-up
		for _, v := range variants {
			v := v
			seg, err := runSegment(func() (*built, error) {
				return buildRig(w, eventModel, o.seed, reqs, v.workers, v.singleKernel)
			}, reqs)
			if err != nil {
				return fmt.Errorf("%s %s: %w", w.name, v.what, err)
			}
			v.s.add(seg, v.what)
		}
	}
	for _, v := range variants {
		lr.attempted += v.s.reqs
		lr.failed += v.s.failed
		lr.notes = append(lr.notes, v.s.notes...)
	}
	if one.digest != e2e.event.digest || two.digest != e2e.event.digest {
		lr.notes = append(lr.notes, "sharded stats digest depends on the worker count")
	}
	m := lr.metrics
	m["system.singlekernel_ns_per_req"] = median(single.nsPerReq)
	m["system.shard_overhead_ratio"] = ratio(median(one.nsPerReq), median(single.nsPerReq))
	m["system.host_ns_per_req_2w"] = median(two.nsPerReq)
	m["system.parallel_speedup_2w"] = ratio(median(one.nsPerReq), median(two.nsPerReq))
	return nil
}

// tracedPass runs the tapped hand-wired topology: a warm-up segment that
// carries the timing oracle and captures the controller's request stream,
// then timed segments for about budget. Every segment must be the same
// computation as the untraced run (digest and event count). It returns the
// request stream captured at the first controller, for the isolation pass.
func (lr *layerRun) tracedPass(w *workload, e2e *endToEndRun, o options, budget time.Duration) ([]capturedReq, error) {
	reqs := e2e.evReqs
	m := lr.metrics
	check := func(seg *segment, what string) {
		lr.attempted += seg.reqs
		switch {
		case !seg.completed || seg.responses != seg.reqs:
			lr.failed += seg.reqs
			lr.notes = append(lr.notes, fmt.Sprintf("%s: incomplete (%d responses for %d requests)", what, seg.responses, seg.reqs))
		case w.topo != topoSharded && (seg.digest != e2e.event.digest || seg.events != e2e.event.last.events):
			// The sharded rig has a link hop the single-kernel traced
			// topology lacks; tap_test.go compares that one against
			// system.MultiChannelRig instead.
			lr.failed += seg.reqs
			lr.notes = append(lr.notes, fmt.Sprintf("%s: the tapped topology is not the computation the untraced pass ran", what))
		}
	}

	scratch := newTracer(0)
	var warm *wired
	seg, err := runSegment(func() (*built, error) {
		x, err := buildWired(w, o.seed, reqs, wireOptions{tr: scratch, oracle: true, captureReqs: lr.effort.isoReqs})
		warm = x
		if err != nil {
			return nil, err
		}
		return x.built, nil
	}, reqs)
	if err != nil {
		return nil, fmt.Errorf("%s traced warm-up: %w", w.name, err)
	}
	check(seg, "traced warm-up")
	if cmds, bad := warm.timingViolations(); bad != 0 || cmds == 0 {
		lr.failed += seg.reqs
		lr.notes = append(lr.notes, fmt.Sprintf("timing oracle: %d violations in %d DRAM commands", bad, cmds))
	}
	captured := warm.ctrlTap0.capture

	tr := newTracer(spanCapacity)
	tr.calibrate()
	var nsPerReq []float64
	var refused float64
	start := time.Now()
	for i := 0; time.Since(start) < budget || i < 2; i++ {
		var x *wired
		seg, err := runSegment(func() (*built, error) {
			var err error
			x, err = buildWired(w, o.seed, reqs, wireOptions{tr: tr})
			if err != nil {
				return nil, err
			}
			return x.built, nil
		}, reqs)
		if err != nil {
			return nil, fmt.Errorf("%s traced segment %d: %w", w.name, i, err)
		}
		check(seg, fmt.Sprintf("traced segment %d", i))
		nsPerReq = append(nsPerReq, seg.nsPerReq())
		refused = x.refusedShare()
	}
	total := float64(len(nsPerReq)) * float64(reqs)
	self := func(boundary string) float64 { return tr.selfNs(boundary) / total }
	m["trafficgen.recv_resp_ns"] = self("trafficgen.recv_resp")
	m["core.recv_req_ns"] = self("core.recv_req")
	m["xbar.recv_req_ns"] = self("xbar.recv_req")
	m["xbar.recv_resp_ns"] = self("xbar.recv_resp")
	m["cache.l1_recv_req_ns"] = self("cache.l1_recv_req")
	m["cache.llc_recv_req_ns"] = self("cache.llc_recv_req")
	m["cache.l1_recv_resp_ns"] = self("cache.l1_recv_resp")
	m["cache.llc_recv_resp_ns"] = self("cache.llc_recv_resp")
	m["cpu.recv_resp_ns"] = self("cpu.recv_resp")
	m["mem.req_refused_share"] = refused
	m["system.traced_ns_per_req"] = median(nsPerReq)
	m["system.trace_clock_ns"] = tr.clockNs
	untraced := median(e2e.event.nsPerReq)
	if w.topo == topoSharded {
		untraced = m["system.singlekernel_ns_per_req"]
	}
	m["system.trace_overhead_pct"] = 100 * ratio(median(nsPerReq)-untraced, untraced)
	if o.traceOut != "" {
		if err := tr.writeJSON(o.traceOut, w.name); err != nil {
			return nil, err
		}
	}
	return captured, nil
}

// isolationPass runs the isolation and micro drivers (I) and closes the
// ledger (D): each layer's share of a request's host time, and what is left.
func (lr *layerRun) isolationPass(w *workload, e2e *endToEndRun, captured []capturedReq) error {
	m, e := lr.metrics, lr.effort
	b := e2e.event.last.sys
	reqs := float64(e2e.event.last.reqs)
	hostNs := median(e2e.event.nsPerReq)
	eventsPerReq := float64(e2e.event.last.events) / reqs
	simTicks := b.kernels[0].Now()

	// The kernel at three event spacings: a few ns (inside the calendar
	// window), microseconds (the far heap) and this workload's own mean gap.
	m["sim.ns_per_event_dense"] = e.kernelNsPerEvent(3 * sim.Nanosecond)
	m["sim.ns_per_event_sparse"] = e.kernelNsPerEvent(2 * sim.Microsecond)
	gap := sim.Tick(float64(simTicks) * float64(len(b.kernels)) / float64(e2e.event.last.events))
	nsEvt := e.kernelNsPerEvent(gap)
	m["sim.ns_per_event_matched"] = nsEvt
	m["sim.ns_per_call"] = e.kernelNsPerCall()
	m["sim.share_ns"] = eventsPerReq * nsEvt

	m["mem.port_ns_per_hop"] = e.portNsPerHop()
	m["mem.pool_ns_per_pkt"] = e.poolNsPerPkt()
	m["stats.ns_per_inc"] = e.statsNsPerInc()
	m["stats.ns_per_hist_sample"] = e.statsNsPerHistSample()
	m["trafficgen.pattern_ns_per_addr"] = e.patternNsPerAddr(w, e2e.seed)
	dns, err := e.decodeNs(w, captured)
	if err != nil {
		return err
	}
	m["dram.decode_ns"] = dns

	// self is an isolated run with the kernel's part (its events x the
	// isolated ns/event) taken out.
	self := func(r isoResult) float64 { return r.nsPerReq - r.eventsPerReq*nsEvt }
	// endLayer is a layer that replaced one stub of S; midLayer sits between
	// both stubs of S.
	midLayer := func(r, s isoResult) float64 { return max(0, self(r)-self(s)) }
	endLayer := func(r, s isoResult) float64 { return max(0, self(r)-self(s)/2) }

	ctrlReqs := b.ctrlScalar("readReqs") + b.ctrlScalar("writeReqs")
	ticksOf := func(ns float64) sim.Tick { return sim.Tick(ns * float64(sim.Nanosecond)) }

	var shares float64
	switch w.topo {
	case topoTraffic, topoSharded:
		ls := loadShape{window: w.outstanding, itt: w.itt, latency: ticksOf(b.readLatency())}
		s, err := e.isoStubs(captured, ls)
		if err != nil {
			return err
		}
		g, err := e.isoGenerator(w, e2e.seed, uint64(len(captured)), ls)
		if err != nil {
			return err
		}
		c, err := e.isoController(w, captured, ls)
		if err != nil {
			return err
		}
		m["trafficgen.iso_ns_per_req"] = g.nsPerReq
		m["trafficgen.share_ns"] = endLayer(g, s)
		m["core.iso_ns_per_req"] = c.nsPerReq
		m["core.share_ns"] = endLayer(c, s)
		if w.topo == topoSharded {
			gran, err := routeGranularity(w, spec().Org.BurstBytes())
			if err != nil {
				return err
			}
			stream := patternReqs(w, e2e.seed, e.isoReqs, spec().Org.BurstBytes())
			sx, err := e.isoStubs(stream, ls)
			if err != nil {
				return err
			}
			x, err := e.isoCrossbar(chanXbarConfig(), xbar.InterleaveRoute(w.channels, gran), w.channels, stream, ls)
			if err != nil {
				return err
			}
			l, err := e.isoLink(stream, ls, chanXbarConfig().Latency)
			if err != nil {
				return err
			}
			m["xbar.iso_ns_per_pkt"] = x.nsPerReq
			m["xbar.share_ns"] = midLayer(x, sx)
			m["mem.link_ns_per_pkt"] = l.nsPerReq
			m["mem.link_share_ns"] = midLayer(l, sx)
		}

	case topoFullSys:
		coreCfg := w.coreConfig(uint64(w.units()))
		var loadLat float64
		for i := range b.cores {
			loadLat += b.average(fmt.Sprintf("sys.core%d.loadLatency", i))
		}
		loadLat /= float64(len(b.cores))
		// The stub issues at the core's pace: the compute delay between two
		// memory operations, as cpu.Core derives it.
		computeCycles := (coreCfg.InstrPerMemOp + coreCfg.Width - 1) / coreCfg.Width
		cpuShape := loadShape{window: coreCfg.MaxOutstanding,
			itt: sim.Tick(computeCycles) * coreCfg.Clock.Period(), latency: ticksOf(loadLat)}
		ops := patternReqs(w, e2e.seed, e.isoReqs, coreCfg.AccessBytes)
		sCPU, err := e.isoStubs(ops, cpuShape)
		if err != nil {
			return err
		}
		cpuRes, err := e.isoCore(w, e2e.seed, uint64(e.isoReqs), cpuShape)
		if err != nil {
			return err
		}
		m["cpu.iso_ns_per_memop"] = cpuRes.nsPerReq
		m["cpu.share_ns"] = endLayer(cpuRes, sCPU)

		// Caches: the L1 shape, once with a footprint a quarter of its size
		// (every access a hit after the first touch) and once with the
		// workload's own stream (nearly every access a miss).
		hits := make([]capturedReq, e.isoReqs)
		for i := range hits {
			hits[i] = ops[i]
			hits[i].addr %= mem.Addr(l1Config().SizeBytes / 4)
		}
		fillShape := loadShape{window: cpuShape.window, itt: cpuShape.itt, latency: ticksOf(m["cache.llc_miss_lat_ns"])}
		hitRes, err := e.isoCache(l1Config(), hits, fillShape)
		if err != nil {
			return err
		}
		missRes, err := e.isoCache(l1Config(), ops, fillShape)
		if err != nil {
			return err
		}
		sCache, err := e.isoStubs(ops, fillShape)
		if err != nil {
			return err
		}
		m["cache.iso_hit_ns"] = hitRes.nsPerReq
		m["cache.iso_miss_ns"] = missRes.nsPerReq
		// A hit never reaches the responder stub: only the requestor's half
		// of the stubs' cost is in the hit run.
		hitSelf := max(0, self(hitRes)-self(sCache)/2)
		missSelf := midLayer(missRes, sCache)
		mix := func(hitRate float64) float64 { return hitRate*hitSelf + (1-hitRate)*missSelf }
		llcAcc := b.scalar("sys.llc.hits") + b.scalar("sys.llc.misses")
		m["cache.share_ns"] = mix(m["cache.l1_hit_rate"]) + llcAcc/reqs*mix(m["cache.llc_hit_rate"])

		// Crossbar and controller: the stream captured at the controller's
		// tap (LLC fills and writebacks), at the rate the real run offered it.
		memShape := loadShape{window: llcConfig().MSHRs, itt: sim.Tick(float64(simTicks) / ctrlReqs), latency: ticksOf(b.ctrls[0].AvgReadLatencyNs())}
		sMem, err := e.isoStubs(captured, memShape)
		if err != nil {
			return err
		}
		x, err := e.isoCrossbar(memXbarConfig(), func(mem.Addr) int { return 0 }, 1, captured, memShape)
		if err != nil {
			return err
		}
		c, err := e.isoController(w, captured, memShape)
		if err != nil {
			return err
		}
		xbarPkts := b.scalar("sys.corexbar.reqRouted") + b.scalar("sys.memxbar.reqRouted")
		m["xbar.iso_ns_per_pkt"] = x.nsPerReq
		m["xbar.share_ns"] = xbarPkts / reqs * midLayer(x, sMem)
		m["core.iso_ns_per_req"] = c.nsPerReq
		m["core.share_ns"] = ctrlReqs / reqs * endLayer(c, sMem)
	}
	m["core.event_ns_per_req"] = max(0, m["core.share_ns"]-m["core.recv_req_ns"])

	for _, name := range []string{"sim.share_ns", "trafficgen.share_ns", "core.share_ns",
		"xbar.share_ns", "cache.share_ns", "cpu.share_ns", "mem.link_share_ns"} {
		shares += m[name]
	}
	m["system.unattributed_pct"] = 100 * (hostNs - shares) / hostNs
	return nil
}
