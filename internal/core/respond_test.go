package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// writePairs writes at even multiples of 64 bytes from paced events, and
// answers each of their acknowledgements by writing the next 64 bytes inside
// it.
type writePairs struct {
	k             *sim.Kernel
	port          *mem.RequestPort
	acks, refused int
	// ticks counts the ticks acknowledgements arrived at; last is the latest.
	ticks int
	last  sim.Tick
}

func (w *writePairs) write(addr mem.Addr) {
	if !w.port.SendTimingReq(mem.NewWrite(addr, 64, 0, w.k.Now())) {
		w.refused++
	}
}

func (w *writePairs) RecvTimingResp(pkt *mem.Packet) bool {
	w.acks++
	if w.ticks == 0 || w.last != w.k.Now() {
		w.ticks, w.last = w.ticks+1, w.k.Now()
	}
	if pkt.Addr%128 == 0 {
		w.write(pkt.Addr + 64)
	}
	return true
}

func (w *writePairs) RecvReqRetry() {}

// With no frontend latency a write issued inside an acknowledgement is
// acknowledged at the same tick. The respond loop sends that one too and arms
// its event only at its tail, so the event never fires to send nothing. With
// no refusal every acknowledgement leaves in a respond event, so the event
// fires at least once per tick an acknowledgement arrives at, and an empty
// or a second firing at a tick would make it fire more often than that.
func TestRespondLoopArmsItsEventOnce(t *testing.T) {
	const pairs = 200
	k := sim.NewKernel()
	cfg := DefaultConfig(dram.DDR3_1600_x64())
	cfg.FrontendLatency = 0
	c, err := NewController(k, cfg, stats.NewRegistry("t"), "mc")
	if err != nil {
		t.Fatal(err)
	}
	w := &writePairs{k: k}
	w.port = mem.NewRequestPort("w", w, k)
	mem.Connect(w.port, c.Port())
	for i := 0; i < pairs; i++ {
		k.Call("w", sim.Tick(i)*20*sim.Nanosecond, func() { w.write(mem.Addr(i) * 128) })
	}
	k.RunUntil(pairs * 20 * sim.Nanosecond)
	if w.acks != 2*pairs || w.refused != 0 {
		t.Fatalf("%d of %d writes acknowledged, %d refused", w.acks, 2*pairs, w.refused)
	}
	fires := int(k.Census()["mc.respond"])
	t.Logf("%d acknowledgements in %d respond events", w.acks, fires)
	if fires != w.ticks {
		t.Fatalf("%d respond events for acknowledgements at %d ticks", fires, w.ticks)
	}
}

// windowRequestor is a closed-loop requestor, half reads and half writes,
// with a window of requests in flight, under the generators' rules: a
// refused request is resent on the retry, and a response issues the next
// requests in the call when the requestor's tick would be the kernel's next
// event, or else arms the tick for now. With inCall false it always arms the
// tick. It refuses every refuseEvery-th response that would be the first it
// takes at its tick, and asks for it again after retryAfter: the responses
// due meanwhile then leave together.
type windowRequestor struct {
	k                     *sim.Kernel
	port                  *mem.RequestPort
	tick                  *sim.Event
	rng                   *rand.Rand
	inCall                bool
	window                int
	left                  int
	refuseEvery, attempts int
	retryAfter            sim.Tick

	outstanding int
	blocked     *mem.Packet
	lastTaken   sim.Tick

	refusals, retries, taken, batched, inCallIssues int
}

func newWindowRequestor(k *sim.Kernel, inCall bool) *windowRequestor {
	r := &windowRequestor{k: k, rng: rand.New(rand.NewSource(5)), inCall: inCall,
		window: 8, left: 600, refuseEvery: 7, retryAfter: 60 * sim.Nanosecond, lastTaken: -1}
	r.port = mem.NewRequestPort("r", r, k)
	r.tick = sim.NewEvent("r.tick", r.issue)
	return r
}

func (r *windowRequestor) issue() {
	for r.blocked == nil && r.outstanding < r.window && r.left > 0 {
		r.left--
		r.outstanding++
		pkt := mem.NewRead(mem.Addr(r.rng.Intn(1<<20))*64, 64, 0, r.k.Now())
		if r.rng.Intn(2) == 0 {
			pkt = mem.NewWrite(pkt.Addr, 64, 0, r.k.Now())
		}
		if !r.port.SendTimingReq(pkt) {
			r.blocked = pkt
			r.refusals++
			return
		}
	}
}

func (r *windowRequestor) rearm() {
	if r.blocked == nil && !r.tick.Scheduled() && r.left > 0 && r.outstanding < r.window {
		r.k.Schedule(r.tick, r.k.Now())
	}
}

func (r *windowRequestor) RecvTimingResp(*mem.Packet) bool {
	now := r.k.Now()
	r.attempts++
	if r.attempts%r.refuseEvery == 0 && r.lastTaken != now {
		r.k.Call("r.respRetry", now+r.retryAfter, r.port.SendRespRetry)
		return false
	}
	if r.lastTaken == now {
		r.batched++
	}
	r.lastTaken = now
	r.taken++
	r.outstanding--
	if r.inCall && !r.tick.Scheduled() && r.k.Alone(nil) {
		r.inCallIssues++
		r.issue()
	} else {
		r.rearm()
	}
	return true
}

func (r *windowRequestor) RecvReqRetry() {
	r.retries++
	if pkt := r.blocked; pkt != nil {
		r.blocked = nil
		if !r.port.SendTimingReq(pkt) {
			r.blocked = pkt
			return
		}
		r.rearm()
	}
}

// runWindowRequestor runs a windowRequestor against a controller whose read
// buffer holds fewer bursts than its window, and returns it with the
// controller's statistics.
func runWindowRequestor(t *testing.T, inCall bool) (*windowRequestor, string) {
	t.Helper()
	k := sim.NewKernel()
	cfg := DefaultConfig(dram.DDR3_1600_x64())
	cfg.FrontendLatency, cfg.BackendLatency, cfg.ReadBufferSize, cfg.WriteBufferSize = 0, 0, 4, 6
	reg := stats.NewRegistry("t")
	c, err := NewController(k, cfg, reg, "mc")
	if err != nil {
		t.Fatal(err)
	}
	r := newWindowRequestor(k, inCall)
	mem.Connect(r.port, c.Port())
	k.Call("start", 0, r.issue)
	k.RunUntil(200 * sim.Microsecond)
	c.Drain()
	k.RunUntil(201 * sim.Microsecond)
	if r.taken != 600 || !c.Quiescent() || c.readEntries != 0 {
		t.Fatalf("%d of 600 requests answered; controller quiescent %v with %d read-buffer entries held",
			r.taken, c.Quiescent(), c.readEntries)
	}
	var sb strings.Builder
	if err := reg.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	return r, sb.String()
}

// Several read responses leave the controller at one tick, to a requestor
// whose window exceeds the free read-buffer entries. Issuing inside the first
// of them must find every one of their entries free, as issuing after the
// respond event does: the refusals, retries and statistics of the two paths
// are equal.
func TestRespondSettlesBeforeSend(t *testing.T) {
	inCall, a := runWindowRequestor(t, true)
	rearmed, b := runWindowRequestor(t, false)
	t.Logf("in the call: %d requests refused, %d retries, %d responses taken behind another at their tick, %d issues in the call",
		inCall.refusals, inCall.retries, inCall.batched, inCall.inCallIssues)
	if inCall.batched < 20 || inCall.inCallIssues < 20 || inCall.refusals < 20 {
		t.Fatalf("%d batched responses, %d issues in the call, %d refusals; want at least 20 each",
			inCall.batched, inCall.inCallIssues, inCall.refusals)
	}
	if inCall.refusals != rearmed.refusals || inCall.retries != rearmed.retries {
		t.Fatalf("issuing in the call: %d refusals, %d retries; after the event: %d, %d",
			inCall.refusals, inCall.retries, rearmed.refusals, rearmed.retries)
	}
	if a != b {
		t.Fatalf("statistics differ:\nin the call:\n%s\nafter the event:\n%s", a, b)
	}
}

// overCommitter takes the first response it is sent and issues two reads
// inside it, refuses the next and asks for it again a microsecond later, and
// takes everything after that.
type overCommitter struct {
	k       *sim.Kernel
	port    *mem.RequestPort
	taken   int
	refused bool
}

func (o *overCommitter) RecvTimingResp(*mem.Packet) bool {
	if o.taken == 1 && !o.refused {
		o.refused = true
		o.k.Call("retry", o.k.Now()+sim.Microsecond, o.port.SendRespRetry)
		return false
	}
	if o.taken++; o.taken == 1 {
		for i := 0; i < 2; i++ {
			if !o.port.SendTimingReq(mem.NewRead(mem.Addr(i)<<20, 64, 0, o.k.Now())) {
				panic("read refused with the batch's entries free")
			}
		}
	}
	return true
}

func (o *overCommitter) RecvReqRetry() {}

// Two read responses due at one tick hold a two-burst read buffer. A
// requestor that takes the first, fills the buffer inside it and refuses the
// second over-commits the buffer: the refused response takes its entry back
// while the new reads hold theirs, and their responses queue behind it. The
// controller answers all four and releases every entry.
func TestRespondRefusalOverCommits(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig(dram.DDR3_1600_x64())
	cfg.FrontendLatency, cfg.BackendLatency, cfg.ReadBufferSize = 0, 0, 2
	c, err := NewController(k, cfg, stats.NewRegistry("t"), "mc")
	if err != nil {
		t.Fatal(err)
	}
	o := &overCommitter{k: k}
	o.port = mem.NewRequestPort("o", o, k)
	mem.Connect(o.port, c.Port())
	k.Call("due", 0, func() {
		for i := 0; i < 2; i++ {
			c.readEntries++
			c.queueReadResponse(mem.NewRead(mem.Addr(i)*64, 64, 0, 0), 0, 1)
		}
	})
	k.RunUntil(sim.Microsecond / 2)
	if c.readEntries != 3 || c.resp.Len() != 3 {
		t.Fatalf("before the retry: %d read-buffer entries held, %d responses queued; want 3 and 3", c.readEntries, c.resp.Len())
	}
	k.RunUntil(2 * sim.Microsecond)
	if o.taken != 4 || !c.Quiescent() {
		t.Fatalf("%d of 4 responses taken; controller quiescent %v with %d read-buffer entries held", o.taken, c.Quiescent(), c.readEntries)
	}
}
