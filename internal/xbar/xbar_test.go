package xbar

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// echoMem is a responder that answers after a fixed delay, refusing requests
// while at capacity.
type echoMem struct {
	k        *sim.Kernel
	port     *mem.ResponsePort
	delay    sim.Tick
	capacity int
	inFlight int
	waiting  bool
	served   []*mem.Packet
	pending  []*mem.Packet
	// respRetries counts the RecvRespRetry calls the memory heard.
	respRetries int
}

func newEchoMem(k *sim.Kernel, delay sim.Tick, capacity int, name string) *echoMem {
	e := &echoMem{k: k, delay: delay, capacity: capacity}
	e.port = mem.NewResponsePort(name, e, k)
	return e
}

func (e *echoMem) RecvTimingReq(pkt *mem.Packet) bool {
	if e.inFlight >= e.capacity {
		e.waiting = true
		return false
	}
	e.inFlight++
	e.served = append(e.served, pkt)
	e.k.Schedule(sim.NewEvent("echo", func() {
		pkt.MakeResponse()
		if !e.port.SendTimingResp(pkt) {
			e.pending = append(e.pending, pkt)
			return
		}
		e.finish()
	}), e.k.Now()+e.delay)
	return true
}

func (e *echoMem) finish() {
	e.inFlight--
	if e.waiting {
		e.waiting = false
		e.port.SendReqRetry()
	}
}

func (e *echoMem) RecvRespRetry() {
	e.respRetries++
	for len(e.pending) > 0 {
		if !e.port.SendTimingResp(e.pending[0]) {
			return
		}
		e.pending = e.pending[1:]
		e.finish()
	}
}

// sink is a requestor collecting responses, optionally refusing some.
type sink struct {
	k          *sim.Kernel
	port       *mem.RequestPort
	responses  []*mem.Packet
	respTicks  []sim.Tick
	refuseNext int
	blocked    *mem.Packet
	retries    int
}

func newSink(k *sim.Kernel, name string) *sink {
	s := &sink{k: k}
	s.port = mem.NewRequestPort(name, s, k)
	return s
}

func (s *sink) RecvTimingResp(pkt *mem.Packet) bool {
	if s.refuseNext > 0 {
		s.refuseNext--
		// A real requestor signals readiness later.
		s.k.Schedule(sim.NewEvent("sink.respRetry", func() { s.port.SendRespRetry() }),
			s.k.Now()+5*sim.Nanosecond)
		return false
	}
	s.responses = append(s.responses, pkt)
	s.respTicks = append(s.respTicks, s.k.Now())
	return true
}

func (s *sink) RecvReqRetry() {
	s.retries++
	if s.blocked != nil {
		pkt := s.blocked
		s.blocked = nil
		if !s.port.SendTimingReq(pkt) {
			s.blocked = pkt
		}
	}
}

func (s *sink) send(pkt *mem.Packet) bool {
	if !s.port.SendTimingReq(pkt) {
		s.blocked = pkt
		return false
	}
	return true
}

func build(t *testing.T, cfg Config, nReq, nMem int, granularity uint64) (*sim.Kernel, *Crossbar, []*sink, []*echoMem) {
	t.Helper()
	k := sim.NewKernel()
	reg := stats.NewRegistry("t")
	x, err := New(k, cfg, InterleaveRoute(nMem, granularity), reg, "xbar")
	if err != nil {
		t.Fatal(err)
	}
	var sinks []*sink
	for i := 0; i < nReq; i++ {
		s := newSink(k, "cpu")
		mem.Connect(s.port, x.AttachRequestor("cpu"))
		sinks = append(sinks, s)
	}
	var mems []*echoMem
	for i := 0; i < nMem; i++ {
		e := newEchoMem(k, 10*sim.Nanosecond, 4, "mem")
		mem.Connect(x.AttachMemory("mem"), e.port)
		mems = append(mems, e)
	}
	return k, x, sinks, mems
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	for i, cfg := range []Config{
		{Latency: -1, QueueDepth: 4},
		{Latency: 0, QueueDepth: 0},
		{Latency: 0, QueueDepth: 4, PacketInterval: -1},
	} {
		if cfg.Validate() == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	k := sim.NewKernel()
	if _, err := New(k, DefaultConfig(), nil, stats.NewRegistry(""), "x"); err == nil {
		t.Error("nil route accepted")
	}
}

func TestRouting(t *testing.T) {
	k, _, sinks, mems := build(t, Config{Latency: 0, QueueDepth: 8}, 1, 4, 64)
	s := sinks[0]
	k.Schedule(sim.NewEvent("inject", func() {
		for i := 0; i < 8; i++ {
			s.send(mem.NewRead(mem.Addr(i*64), 64, 0, k.Now()))
		}
	}), 0)
	k.RunUntil(sim.Microsecond)
	// Burst i goes to channel i%4.
	for ch, e := range mems {
		if len(e.served) != 2 {
			t.Fatalf("channel %d served %d, want 2", ch, len(e.served))
		}
		for _, pkt := range e.served {
			if int(uint64(pkt.Addr)/64%4) != ch {
				t.Fatalf("misrouted %s to channel %d", pkt, ch)
			}
		}
	}
	if len(s.responses) != 8 {
		t.Fatalf("responses = %d", len(s.responses))
	}

	// InterleaveRoute's shift, its mask for power-of-two port counts, its
	// constant for one port and its general arm all agree with the division
	// they replace; a granularity that cannot be shifted by is refused.
	for _, gran := range []uint64{0, 96} {
		if msg := panicMessage(func() { InterleaveRoute(4, gran) }); !strings.Contains(msg, "power-of-two granularity") {
			t.Errorf("InterleaveRoute(4, %d): panic %q", gran, msg)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 12, 16} {
		for _, gran := range []uint64{1, 64, 256, 8192, 1 << 30} {
			rt := InterleaveRoute(n, gran)
			addrs := []uint64{0, gran - 1, gran, gran*uint64(n) - 1, gran * uint64(n), 1<<63 - 1, 1<<64 - 1}
			for i := 0; i < 200; i++ {
				addrs = append(addrs, rng.Uint64())
			}
			for _, a := range addrs {
				if got, want := rt(mem.Addr(a)), int(a/gran%uint64(n)); got != want {
					t.Fatalf("InterleaveRoute(%d, %d)(%#x) = %d, division gives %d", n, gran, a, got, want)
				}
			}
		}
	}
}

func TestLatencyBothWays(t *testing.T) {
	k, _, sinks, _ := build(t, Config{Latency: 7 * sim.Nanosecond, QueueDepth: 8}, 1, 1, 64)
	s := sinks[0]
	k.Schedule(sim.NewEvent("inject", func() {
		s.send(mem.NewRead(0, 64, 0, 0))
	}), 0)
	k.RunUntil(sim.Microsecond)
	if len(s.responses) != 1 {
		t.Fatal("no response")
	}
	// 7 ns there + 10 ns echo + 7 ns back.
	if want := 24 * sim.Nanosecond; s.respTicks[0] != want {
		t.Fatalf("round trip = %s, want %s", s.respTicks[0], want)
	}
}

func TestResponseRoutingMultiRequestor(t *testing.T) {
	k, _, sinks, _ := build(t, Config{Latency: 0, QueueDepth: 16}, 3, 1, 64)
	k.Schedule(sim.NewEvent("inject", func() {
		for i, s := range sinks {
			s.send(mem.NewRead(mem.Addr(i*128), 64, i, k.Now()))
		}
	}), 0)
	k.RunUntil(sim.Microsecond)
	for i, s := range sinks {
		if len(s.responses) != 1 {
			t.Fatalf("sink %d got %d responses", i, len(s.responses))
		}
		if s.responses[0].RequestorID != i {
			t.Fatalf("sink %d got foreign response %s", i, s.responses[0])
		}
	}
}

func TestRequestBackPressure(t *testing.T) {
	// Queue depth 2, slow memory with capacity 1: flooding must block and
	// eventually complete via retries.
	k, x, sinks, _ := build(t, Config{Latency: 0, QueueDepth: 2}, 1, 1, 64)
	s := sinks[0]
	sent := 0
	var inject func()
	inject = func() {
		if s.blocked == nil && sent < 10 {
			// A blocked packet still counts as sent: the retry path will
			// deliver it.
			s.send(mem.NewRead(mem.Addr(sent*64), 64, 0, k.Now()))
			sent++
		}
		if sent < 10 {
			k.Schedule(sim.NewEvent("inject", inject), k.Now()+sim.Nanosecond)
		}
	}
	k.Schedule(sim.NewEvent("inject", inject), 0)
	k.RunUntil(10 * sim.Microsecond)
	if len(s.responses) != 10 {
		t.Fatalf("responses = %d, want 10", len(s.responses))
	}
	if !x.Quiescent() || x.InFlight() != 0 {
		t.Fatal("crossbar not quiescent after drain")
	}
}

func TestResponseBackPressure(t *testing.T) {
	k, x, sinks, _ := build(t, Config{Latency: 0, QueueDepth: 8}, 1, 1, 64)
	s := sinks[0]
	s.refuseNext = 2
	k.Schedule(sim.NewEvent("inject", func() {
		for i := 0; i < 4; i++ {
			s.send(mem.NewRead(mem.Addr(i*64), 64, 0, k.Now()))
		}
	}), 0)
	k.RunUntil(10 * sim.Microsecond)
	if len(s.responses) != 4 {
		t.Fatalf("responses = %d, want 4 (refusals must be retried)", len(s.responses))
	}
	if x.InFlight() != 0 {
		t.Fatalf("in flight = %d", x.InFlight())
	}
}

// A freed response slot wakes only the memory side that was refused one: a
// channel that never had a response refused hears no RecvRespRetry. (Each
// spurious retry costs a cycle-model controller an event.)
func TestRespRetryOnlyToRefusedMemSide(t *testing.T) {
	// One-deep response queue and a requestor that refuses its first two
	// responses: channel 0's later responses find the queue full.
	k, x, sinks, mems := build(t, Config{Latency: 0, QueueDepth: 1}, 1, 2, 64)
	s := sinks[0]
	s.refuseNext = 2
	sent := 0
	var inject func()
	inject = func() {
		if s.blocked == nil && sent < 4 {
			s.send(mem.NewRead(mem.Addr(sent*128), 64, 0, k.Now())) // all on channel 0
			sent++
		}
		if sent < 4 {
			k.Schedule(sim.NewEvent("inject", inject), k.Now()+sim.Nanosecond)
		}
	}
	k.Schedule(sim.NewEvent("inject", inject), 0)
	k.RunUntil(10 * sim.Microsecond)
	if len(s.responses) != 4 || x.InFlight() != 0 {
		t.Fatalf("%d responses, %d in flight; want 4 and 0", len(s.responses), x.InFlight())
	}
	if mems[0].respRetries == 0 {
		t.Fatal("channel 0 was never refused a response: the test lost its aim")
	}
	if mems[1].respRetries != 0 {
		t.Fatalf("channel 1 never sent a response but heard %d RecvRespRetry", mems[1].respRetries)
	}

	// The flag is state a checkpoint carries: an image names a refused side
	// (and only then mentions the flag), and a restore sets it again.
	image := func(x *Crossbar) []byte {
		st, err := x.CheckpointSave(refTable{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if img := image(x); bytes.Contains(img, []byte("respRefused")) {
		t.Fatalf("no side refused, but the image is %s", img)
	}
	x.memSides[1].respRefused = true
	_, x2, _, _ := build(t, Config{Latency: 0, QueueDepth: 1}, 1, 2, 64)
	if err := x2.CheckpointRestore(refTable{}, &deferred{}, image(x)); err != nil {
		t.Fatal(err)
	}
	if x2.memSides[0].respRefused || !x2.memSides[1].respRefused {
		t.Fatal("restore did not bring back which memory side was refused")
	}
}

func TestPacketIntervalThrottle(t *testing.T) {
	// One packet per 100 ns through the crossbar: 4 requests take >=300 ns
	// to reach memory.
	k, _, sinks, mems := build(t, Config{Latency: 0, QueueDepth: 8, PacketInterval: 100 * sim.Nanosecond}, 1, 1, 64)
	s := sinks[0]
	k.Schedule(sim.NewEvent("inject", func() {
		for i := 0; i < 4; i++ {
			s.send(mem.NewRead(mem.Addr(i*64), 64, 0, k.Now()))
		}
	}), 0)
	k.RunUntil(250 * sim.Nanosecond)
	if got := len(mems[0].served); got > 3 {
		t.Fatalf("served %d within 250 ns despite 100 ns packet interval", got)
	}
	k.RunUntil(2 * sim.Microsecond)
	if len(s.responses) != 4 {
		t.Fatalf("responses = %d", len(s.responses))
	}
}

// End-to-end with real controllers: a 4-channel system (the paper's HMC
// argument in miniature) completes interleaved traffic across channels.
func TestCrossbarWithControllers(t *testing.T) {
	k := sim.NewKernel()
	reg := stats.NewRegistry("t")
	spec := dram.DDR3_1600_x64()
	channels := 4
	dec, err := dram.NewDecoder(spec.Org, dram.RoRaBaCoCh, channels)
	if err != nil {
		t.Fatal(err)
	}
	x, err := New(k, Config{Latency: 2 * sim.Nanosecond, QueueDepth: 16},
		func(a mem.Addr) int { return dec.Channel(a) }, reg, "xbar")
	if err != nil {
		t.Fatal(err)
	}
	var ctrls []*core.Controller
	for i := 0; i < channels; i++ {
		cfg := core.DefaultConfig(spec)
		cfg.Channels = channels
		ctrl, err := core.NewController(k, cfg, reg, fmt.Sprintf("mc%d", i))
		if err != nil {
			t.Fatal(err)
		}
		mem.Connect(x.AttachMemory("mem"), ctrl.Port())
		ctrls = append(ctrls, ctrl)
	}
	s := newSink(k, "gen")
	mem.Connect(s.port, x.AttachRequestor("gen"))

	n := 64
	k.Schedule(sim.NewEvent("inject", func() {
		for i := 0; i < n; i++ {
			s.send(mem.NewRead(mem.Addr(i*64), 64, 0, k.Now()))
		}
	}), 0)
	for i := 0; i < 100 && len(s.responses) < n; i++ {
		k.RunUntil(k.Now() + sim.Microsecond)
	}
	if len(s.responses) != n {
		t.Fatalf("responses = %d, want %d", len(s.responses), n)
	}
	// Traffic spread over all four controllers.
	for i, c := range ctrls {
		if got := c.PowerStats().ReadBursts; got != uint64(n/channels) {
			t.Fatalf("controller %d served %d bursts, want %d", i, got, n/channels)
		}
	}
}

// TestMisrouteAndUnknownOriginPanic: each way a response can be wrong for the
// crossbar it reaches — and a request with no room left for a hop — fails
// with the reason and the tick, never by delivering to whichever side a byte
// happens to name.
func TestMisrouteAndUnknownOriginPanic(t *testing.T) {
	k, x, sinks, mems := build(t, Config{Latency: 0, QueueDepth: 4}, 2, 1, 64)
	other, err := New(k, DefaultConfig(), InterleaveRoute(1, 64), stats.NewRegistry("t"), "otherxbar")
	if err != nil {
		t.Fatal(err)
	}
	if other.tag == x.tag {
		t.Fatalf("test crossbars share tag %d", x.tag)
	}

	// Unknown origin: a response the crossbar never routed.
	never := mem.NewRead(0, 64, 0, 0)
	never.MakeResponse()
	// Foreign: the last crossbar the request crossed was another one.
	foreign := mem.NewRead(0, 64, 0, 0)
	foreign.PushRoute(mem.RouteHop{Xbar: other.tag, Side: 0})
	foreign.MakeResponse()
	// Over-deep: a request that has already crossed as many crossbars as a
	// packet records.
	deep := mem.NewRead(0, 64, 0, 0)
	for i := 0; i < mem.RouteDepth; i++ {
		deep.PushRoute(mem.RouteHop{Xbar: other.tag, Side: 0})
	}
	// Answered twice: a routed request whose memory responds, and then
	// responds again after the first response has gone back.
	twice := mem.NewRead(64, 64, 1, 0)
	if !sinks[1].send(twice) {
		t.Fatal("request refused by an empty crossbar")
	}
	k.RunUntil(60 * sim.Nanosecond)
	if len(sinks[1].responses) != 1 || x.InFlight() != 0 {
		t.Fatalf("round trip before the second response: %d responses, %d in flight", len(sinks[1].responses), x.InFlight())
	}
	// Wrong side: a hop of this crossbar naming a requestor side it lacks,
	// as a checkpoint written for a wider crossbar would restore. One request
	// is genuinely in flight, so only the hop is wrong.
	if !sinks[0].send(mem.NewRead(128, 64, 0, 0)) {
		t.Fatal("request refused by an empty crossbar")
	}
	wide := mem.NewRead(0, 64, 0, 0)
	wide.PushRoute(mem.RouteHop{Xbar: x.tag, Side: 7})
	wide.MakeResponse()

	for _, c := range []struct {
		name string
		f    func()
		want string
	}{
		{"never routed", func() { x.memSides[0].RecvTimingResp(never) }, "unknown origin (empty return route"},
		{"another crossbar's", func() { x.memSides[0].RecvTimingResp(foreign) }, "belongs to another crossbar"},
		{"answered twice", func() { mems[0].port.SendTimingResp(twice) }, "unknown origin (empty return route"},
		{"side out of range", func() { x.memSides[0].RecvTimingResp(wide) }, "names requestor side 7 of 2"},
		{"route full", func() { sinks[0].send(deep) }, "has crossed 3 crossbars"},
	} {
		msg := panicMessage(c.f)
		if !strings.Contains(msg, c.want) || !strings.HasSuffix(msg, " at 60ns") {
			t.Errorf("%s: panic %q, want one containing %q and ending \" at 60ns\"", c.name, msg, c.want)
		}
	}
}

func TestRangeRoute(t *testing.T) {
	rt, err := RangeRoute([]AddrRange{
		{Start: 0, End: 1 << 20, Port: 0},
		{Start: 1 << 20, End: 1 << 22, Port: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt(0) != 0 || rt(1<<20-1) != 0 {
		t.Fatal("low range misrouted")
	}
	if rt(1<<20) != 1 || rt(1<<22-1) != 1 {
		t.Fatal("high range misrouted")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range address did not panic")
			}
		}()
		rt(1 << 22)
	}()

	// Validation errors.
	if _, err := RangeRoute(nil); err == nil {
		t.Error("empty range list accepted")
	}
	if _, err := RangeRoute([]AddrRange{{Start: 10, End: 10, Port: 0}}); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := RangeRoute([]AddrRange{{Start: 0, End: 100, Port: -1}}); err == nil {
		t.Error("negative port accepted")
	}
	if _, err := RangeRoute([]AddrRange{
		{Start: 0, End: 100, Port: 0},
		{Start: 50, End: 150, Port: 1},
	}); err == nil {
		t.Error("overlapping ranges accepted")
	}
}

// A tiered system built with RangeRoute routes each tier's traffic to its
// own memory.
func TestRangeRouteTieredSystem(t *testing.T) {
	k := sim.NewKernel()
	reg := stats.NewRegistry("t")
	rt, err := RangeRoute([]AddrRange{
		{Start: 0, End: 1 << 16, Port: 0},
		{Start: 1 << 16, End: 1 << 18, Port: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	x, err := New(k, Config{Latency: 0, QueueDepth: 16}, rt, reg, "xbar")
	if err != nil {
		t.Fatal(err)
	}
	s := newSink(k, "cpu")
	mem.Connect(s.port, x.AttachRequestor("cpu"))
	var mems []*echoMem
	for i := 0; i < 2; i++ {
		e := newEchoMem(k, 10*sim.Nanosecond, 8, "mem")
		mem.Connect(x.AttachMemory("mem"), e.port)
		mems = append(mems, e)
	}
	k.Schedule(sim.NewEvent("inject", func() {
		s.send(mem.NewRead(0x100, 64, 0, 0))   // tier 0
		s.send(mem.NewRead(0x10000, 64, 0, 0)) // tier 1
		s.send(mem.NewRead(0x20000, 64, 0, 0)) // tier 1
	}), 0)
	k.RunUntil(sim.Microsecond)
	if len(mems[0].served) != 1 || len(mems[1].served) != 2 {
		t.Fatalf("tier traffic split = %d/%d, want 1/2", len(mems[0].served), len(mems[1].served))
	}
	if len(s.responses) != 3 {
		t.Fatalf("responses = %d", len(s.responses))
	}
}
