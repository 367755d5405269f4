package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/mem"
	"repro/internal/sim"
)

// The traced pass measures every layer from outside: a pass-through tap sits
// on each port link and times the calls that cross it. Port calls nest
// synchronously (a cache's RecvTimingReq calls the crossbar's from inside),
// so a layer's self time is its span minus its child spans, kept with an
// explicit stack. The tap registers no statistics, schedules no events and
// adds no latency, so the tapped system is the same computation as the
// untapped one (tap_test.go holds it to that).

// span is one timed port call. Start and End are host nanoseconds since the
// tracer was made; Parent is the index of the span that caused it, or -1
// for a call made from an event handler. The three request fields identify
// the in-flight packet: spans of one request share them.
type span struct {
	Boundary  int32
	Parent    int32
	Start     int64
	End       int64
	Requestor int32
	Issue     sim.Tick
	Addr      mem.Addr
}

// boundaryStats accumulates one boundary's spans.
type boundaryStats struct {
	name     string
	n        uint64 // spans
	total    int64  // sum of raw durations
	children uint64 // child spans directly below
	childNs  int64  // sum of their raw durations
}

type frame struct {
	start    int64
	childNs  int64
	children uint64
	boundary int32
	index    int32
}

// tracer collects spans into a preallocated slice (recording stops when it
// is full; the per-boundary sums go on) and keeps the nesting stack.
type tracer struct {
	t0         time.Time
	spans      []span
	dropped    uint64
	boundaries []boundaryStats
	stack      [64]frame
	depth      int

	// clockNs is the duration an empty span reads (one clock read's worth of
	// bias in every raw duration); pairNs is the wall cost of one enter/exit
	// pair, i.e. what a child span costs its parent beyond the child's own
	// work. Both are calibrated at start-up and subtracted.
	clockNs float64
	pairNs  float64
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// boundary registers a named boundary and returns its index.
func (t *tracer) boundary(name string) int32 {
	for i := range t.boundaries {
		if t.boundaries[i].name == name {
			return int32(i)
		}
	}
	t.boundaries = append(t.boundaries, boundaryStats{name: name})
	return int32(len(t.boundaries) - 1)
}

// clock is host nanoseconds since the tracer was made.
func (t *tracer) clock() int64 { return time.Since(t.t0).Nanoseconds() }

// enter opens a span; the clock is read last so the bookkeeping above it
// stays outside the span.
func (t *tracer) enter(b int32, pkt *mem.Packet) {
	f := t.push(b, pkt)
	f.start = t.clock()
	if f.index >= 0 {
		t.spans[f.index].Start = f.start
	}
}

// exit closes the innermost open span; the clock is read first.
func (t *tracer) exit() { t.pop(t.clock()) }

// push reserves the span's slot and stack frame.
func (t *tracer) push(b int32, pkt *mem.Packet) *frame {
	idx := int32(-1)
	if len(t.spans) < cap(t.spans) {
		idx = int32(len(t.spans))
		parent := int32(-1)
		if t.depth > 0 {
			parent = t.stack[t.depth-1].index
		}
		sp := span{Boundary: b, Parent: parent, Requestor: -1}
		if pkt != nil {
			sp.Requestor, sp.Issue, sp.Addr = int32(pkt.RequestorID), pkt.IssueTick, pkt.Addr
		}
		t.spans = append(t.spans, sp)
	} else {
		t.dropped++
	}
	f := &t.stack[t.depth]
	t.depth++
	*f = frame{boundary: b, index: idx}
	return f
}

// pop closes the innermost open span at time end and charges its duration
// to its boundary and, as child time, to the span around it.
func (t *tracer) pop(end int64) {
	t.depth--
	f := &t.stack[t.depth]
	dur := end - f.start
	if f.index >= 0 {
		t.spans[f.index].End = end
	}
	bs := &t.boundaries[f.boundary]
	bs.n++
	bs.total += dur
	bs.children += f.children
	bs.childNs += f.childNs
	if t.depth > 0 {
		p := &t.stack[t.depth-1]
		p.children++
		p.childNs += dur
	}
}

// calibrate measures the clock bias and the enter/exit pair cost on a
// scratch tracer and stores them.
func (t *tracer) calibrate() {
	const rounds, per = 21, 2000
	scratch := newTracer(0)
	b := scratch.boundary("calibrate")
	biases := make([]float64, 0, rounds)
	pairs := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		scratch.boundaries[b] = boundaryStats{name: "calibrate"}
		t0 := time.Now()
		for i := 0; i < per; i++ {
			scratch.enter(b, nil)
			scratch.exit()
		}
		wall := float64(time.Since(t0).Nanoseconds())
		biases = append(biases, float64(scratch.boundaries[b].total)/per)
		pairs = append(pairs, wall/per)
	}
	t.clockNs, t.pairNs = median(biases), median(pairs)
}

// selfNs is the clock-corrected self time summed over a boundary's spans:
// raw time, minus one clock bias per span, minus what the child spans below
// it cost (their own corrected work plus one enter/exit pair each). Sums of
// noisy corrections can dip below zero; a negative self time is reported as
// zero.
func (t *tracer) selfNs(name string) float64 {
	for i := range t.boundaries {
		bs := &t.boundaries[i]
		if bs.name != name {
			continue
		}
		self := float64(bs.total) - float64(bs.n)*t.clockNs -
			(float64(bs.childNs) - float64(bs.children)*t.clockNs + float64(bs.children)*t.pairNs)
		if self < 0 {
			return 0
		}
		return self
	}
	return 0
}

// writeJSON writes the recorded spans, one object per span, with the
// calibration constants in the header.
func (t *tracer) writeJSON(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"clock_bias_ns\":%.3f,\"span_pair_ns\":%.3f,\"dropped_spans\":%d,\"spans\":[\n",
		workload, t.clockNs, t.pairNs, t.dropped)
	for i := range t.spans {
		sp := &t.spans[i]
		rec := struct {
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Parent int32  `json:"parent"`
			Req    string `json:"req"`
		}{t.boundaries[sp.Boundary].name, sp.Start, sp.End, sp.Parent,
			fmt.Sprintf("r%d@%d:%#x", sp.Requestor, int64(sp.Issue), uint64(sp.Addr))}
		b, err := json.Marshal(rec)
		if err != nil {
			f.Close()
			return err
		}
		sep := ",\n"
		if i == len(t.spans)-1 {
			sep = "\n"
		}
		w.Write(b)
		w.WriteString(sep)
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// capturedReq is one request seen at a capturing tap.
type capturedReq struct {
	addr   mem.Addr
	size   uint64
	isRead bool
}

// tap is the pass-through shim: up faces the requestor, down the responder.
// Each forwarded call is a span attributed to the layer that receives it.
type tap struct {
	tr   *tracer
	up   *mem.ResponsePort
	down *mem.RequestPort

	recvReq, recvResp, recvReqRetry, recvRespRetry int32

	attempts, refused uint64
	// capture, when non-nil, keeps the accepted request stream up to its
	// capacity, for the isolation pass to replay.
	capture []capturedReq
}

type tapUp tap
type tapDown tap

// newTap makes a tap whose spans are named after the layers on either side:
// requests and response retries are received by the layer below (downLayer),
// responses and request retries by the layer above (upLayer). The prefixes
// end in "." or "_" ("core.", "cache.l1_").
func newTap(tr *tracer, k *sim.Kernel, name, upLayer, downLayer string) *tap {
	t := &tap{tr: tr,
		recvReq:       tr.boundary(downLayer + "recv_req"),
		recvResp:      tr.boundary(upLayer + "recv_resp"),
		recvReqRetry:  tr.boundary(upLayer + "recv_req_retry"),
		recvRespRetry: tr.boundary(downLayer + "recv_resp_retry"),
	}
	t.up = mem.NewResponsePort(name+".up", (*tapUp)(t), k)
	t.down = mem.NewRequestPort(name+".down", (*tapDown)(t), k)
	return t
}

// splice connects req -> tap -> resp.
func (t *tap) splice(req *mem.RequestPort, resp *mem.ResponsePort) {
	mem.Connect(req, t.up)
	mem.Connect(t.down, resp)
}

// RecvTimingReq implements mem.Responder on the requestor side.
func (u *tapUp) RecvTimingReq(pkt *mem.Packet) bool {
	t := (*tap)(u)
	t.attempts++
	t.tr.enter(t.recvReq, pkt)
	ok := t.down.SendTimingReq(pkt)
	t.tr.exit()
	if !ok {
		t.refused++
	} else if len(t.capture) < cap(t.capture) {
		t.capture = append(t.capture, capturedReq{addr: pkt.Addr, size: pkt.Size, isRead: pkt.Cmd.IsRead()})
	}
	return ok
}

// RecvRespRetry implements mem.Responder: pass the retry down.
func (u *tapUp) RecvRespRetry() {
	t := (*tap)(u)
	t.tr.enter(t.recvRespRetry, nil)
	t.down.SendRespRetry()
	t.tr.exit()
}

// RecvTimingResp implements mem.Requestor on the responder side.
func (d *tapDown) RecvTimingResp(pkt *mem.Packet) bool {
	t := (*tap)(d)
	t.tr.enter(t.recvResp, pkt)
	ok := t.up.SendTimingResp(pkt)
	t.tr.exit()
	return ok
}

// RecvReqRetry implements mem.Requestor: pass the retry up.
func (d *tapDown) RecvReqRetry() {
	t := (*tap)(d)
	t.tr.enter(t.recvReqRetry, nil)
	t.up.SendReqRetry()
	t.tr.exit()
}
