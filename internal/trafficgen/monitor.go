package trafficgen

import (
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Monitor is a transparent shim between a requestor and a responder that
// records the request stream as a trace (the capture side of TracePlayer's
// replay) and collects link-level statistics. It adds no latency and passes
// flow control through unchanged, so inserting it does not perturb timing —
// the probe equivalent of gem5's communication monitor.
type Monitor struct {
	cpuPort *mem.ResponsePort
	memPort *mem.RequestPort
	k       *sim.Kernel

	trace []TraceRecord

	reqs      *stats.Scalar
	resps     *stats.Scalar
	bytesSeen *stats.Scalar
}

// monCPUSide / monMemSide give the two ports distinct method sets.
type monCPUSide Monitor

type monMemSide Monitor

// NewMonitor builds a monitor registering statistics under name.
func NewMonitor(k *sim.Kernel, reg *stats.Registry, name string) *Monitor {
	m := &Monitor{k: k}
	m.cpuPort = mem.NewResponsePort(name+".cpu", (*monCPUSide)(m), k)
	m.memPort = mem.NewRequestPort(name+".mem", (*monMemSide)(m), k)
	r := reg.Child(name)
	m.reqs = r.NewScalar("requests", "requests forwarded")
	m.resps = r.NewScalar("responses", "responses forwarded")
	m.bytesSeen = r.NewScalar("bytes", "request bytes forwarded")
	return m
}

// CPUPort returns the requestor-facing response port.
func (m *Monitor) CPUPort() *mem.ResponsePort { return m.cpuPort }

// MemPort returns the memory-facing request port.
func (m *Monitor) MemPort() *mem.RequestPort { return m.memPort }

// Trace returns the captured records in issue order.
func (m *Monitor) Trace() []TraceRecord {
	out := make([]TraceRecord, len(m.trace))
	copy(out, m.trace)
	return out
}

// RecvTimingReq implements mem.Responder on the CPU side: record and
// forward.
func (cs *monCPUSide) RecvTimingReq(pkt *mem.Packet) bool {
	m := (*Monitor)(cs)
	if !m.memPort.SendTimingReq(pkt) {
		return false
	}
	m.reqs.Inc()
	m.bytesSeen.Add(float64(pkt.Size))
	m.trace = append(m.trace, TraceRecord{
		Tick:   m.k.Now(),
		IsRead: pkt.Cmd.IsRead(),
		Addr:   pkt.Addr,
		Size:   pkt.Size,
	})
	return true
}

// RecvRespRetry implements mem.Responder: pass the retry downstream.
func (cs *monCPUSide) RecvRespRetry() {
	(*Monitor)(cs).memPort.SendRespRetry()
}

// RecvTimingResp implements mem.Requestor on the memory side: forward to
// the requestor.
func (ms *monMemSide) RecvTimingResp(pkt *mem.Packet) bool {
	m := (*Monitor)(ms)
	if !m.cpuPort.SendTimingResp(pkt) {
		return false
	}
	m.resps.Inc()
	return true
}

// RecvReqRetry implements mem.Requestor: pass the retry upstream.
func (ms *monMemSide) RecvReqRetry() {
	(*Monitor)(ms).cpuPort.SendReqRetry()
}
