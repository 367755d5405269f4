package xbar

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// gateMem accepts requests only while open, never answers, and records the
// order in which requests arrived.
type gateMem struct {
	port    *mem.ResponsePort
	open    bool
	waiting bool
	got     []*mem.Packet
}

func (g *gateMem) RecvTimingReq(pkt *mem.Packet) bool {
	if !g.open {
		g.waiting = true
		return false
	}
	g.got = append(g.got, pkt)
	return true
}

func (g *gateMem) RecvRespRetry() {}

// refTable identifies packets by their index in a fixed slice.
type refTable []*mem.Packet

func (r refTable) PacketRef(p *mem.Packet) int {
	for i, q := range r {
		if q == p {
			return i
		}
	}
	return -1
}

func (r refTable) PacketByRef(ref int) *mem.Packet { return r[ref] }

// deferred collects a restore's re-schedules for commit in saved-seq order.
type deferred []struct {
	seq uint64
	fn  func()
}

func (d *deferred) WarpClock(*sim.Kernel, sim.Clock) {}
func (d *deferred) Defer(seq uint64, fn func()) {
	*d = append(*d, struct {
		seq uint64
		fn  func()
	}{seq, fn})
}

// TestCheckpointRoundTripWithWrappedRing: a request queue whose ring has
// wrapped (head past the middle, tail before it) saves oldest-first, so the
// image restored into a fresh crossbar — whose ring starts at slot 0 — saves
// to the same bytes and drains in the original order.
func TestCheckpointRoundTripWithWrappedRing(t *testing.T) {
	cfg := Config{Latency: 5 * sim.Nanosecond, QueueDepth: 4}
	build := func() (*sim.Kernel, *Crossbar, *sink, *gateMem) {
		k := sim.NewKernel()
		x, err := New(k, cfg, InterleaveRoute(1, 64), stats.NewRegistry("t"), "xbar")
		if err != nil {
			t.Fatal(err)
		}
		s := newSink(k, "cpu")
		mem.Connect(s.port, x.AttachRequestor("cpu"))
		g := &gateMem{}
		g.port = mem.NewResponsePort("mem", g, k)
		mem.Connect(x.AttachMemory("mem"), g.port)
		return k, x, s, g
	}

	k1, x1, s1, g1 := build()
	pkts := make(refTable, 6)
	for i := range pkts {
		pkts[i] = mem.NewRead(mem.Addr(i*64), 64, 0, 0)
	}
	// Three packets pass through (ring slots 0-2), then three queue up
	// behind them in slots 3, 0 and 1 and wait out the crossbar latency.
	g1.open = true
	for _, p := range pkts[:3] {
		if !s1.send(p) {
			t.Fatal("request refused with room in the queue")
		}
	}
	k1.RunUntil(20 * sim.Nanosecond)
	if len(g1.got) != 3 {
		t.Fatalf("memory took %d of the first three requests", len(g1.got))
	}
	for _, p := range pkts[3:] {
		if !s1.send(p) {
			t.Fatal("request refused with room in the queue")
		}
	}
	q := x1.memSides[0].reqQ
	if q.items.Len() != 3 || !q.sendEv.Scheduled() {
		t.Fatalf("queue holds %d packets, send scheduled %v: not the state under test", q.items.Len(), q.sendEv.Scheduled())
	}

	save := func(x *Crossbar) []byte {
		img, err := x.CheckpointSave(pkts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(img)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	before := save(x1)
	// Three requests are parked in the memory and three in the queue: all
	// six are in flight, and each carries the hop that will bring it back.
	if x1.InFlight() != 6 || !bytes.Contains(before, []byte(`"inFlight":6`)) {
		t.Fatalf("%d in flight, image %s: want 6 in both", x1.InFlight(), before)
	}
	for i, p := range pkts {
		if hop, ok := p.RouteTop(); !ok || hop != (mem.RouteHop{Xbar: x1.tag, Side: 0}) {
			t.Fatalf("packet %d carries route %v, want one hop to side 0 of tag %d", i, p.Route(), x1.tag)
		}
	}

	k2, x2, _, g2 := build()
	k2.RestoreClock(k1.ClockState())
	var d deferred
	if err := x2.CheckpointRestore(pkts, &d, before); err != nil {
		t.Fatal(err)
	}
	sort.Slice(d, func(i, j int) bool { return d[i].seq < d[j].seq })
	for _, e := range d {
		k2.RestoreSeq(e.seq)
		e.fn()
	}
	k2.RestoreSeq(k1.ClockState().NextSeq)
	if after := save(x2); !bytes.Equal(before, after) {
		t.Fatalf("save -> restore -> save changed the image:\n%s\n%s", before, after)
	}
	if x2.InFlight() != 6 {
		t.Fatalf("restored crossbar has %d in flight, want 6", x2.InFlight())
	}

	g2.open = true
	k2.RunUntil(k2.Now() + 20*sim.Nanosecond)
	if len(g2.got) != 3 || g2.got[0] != pkts[3] || g2.got[1] != pkts[4] || g2.got[2] != pkts[5] {
		t.Fatalf("restored queue drained %v, want packets 3, 4, 5 in order", g2.got)
	}
}

// TestRestoreRejectsRouteOffTheCrossbar: a queued request whose route leads
// to a requestor side the crossbar does not have (an image written for a
// wider one), to another crossbar, or nowhere, is an error from
// CheckpointRestore — not an index panic when the response comes back.
func TestRestoreRejectsRouteOffTheCrossbar(t *testing.T) {
	build := func() (*Crossbar, []*sink) {
		k := sim.NewKernel()
		x, err := New(k, Config{Latency: 5 * sim.Nanosecond, QueueDepth: 4}, InterleaveRoute(1, 64), stats.NewRegistry("t"), "xbar")
		if err != nil {
			t.Fatal(err)
		}
		var sinks []*sink
		for i := 0; i < 4; i++ {
			s := newSink(k, "cpu")
			mem.Connect(s.port, x.AttachRequestor("cpu"))
			sinks = append(sinks, s)
		}
		g := &gateMem{}
		g.port = mem.NewResponsePort("mem", g, k)
		mem.Connect(x.AttachMemory("mem"), g.port)
		return x, sinks
	}
	x1, sinks := build()
	pkts := refTable{mem.NewRead(0, 64, 3, 0)}
	if !sinks[3].send(pkts[0]) {
		t.Fatal("request refused by an empty crossbar")
	}
	img, err := x1.CheckpointSave(pkts)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(img)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		route []mem.RouteHop
		ok    bool
	}{
		{"as saved", []mem.RouteHop{{Xbar: x1.tag, Side: 3}}, true},
		{"side 7 of 4", []mem.RouteHop{{Xbar: x1.tag, Side: 7}}, false},
		{"another crossbar's hop", []mem.RouteHop{{Xbar: x1.tag + 1, Side: 3}}, false},
		{"no route", nil, false},
	} {
		st, err := pkts[0].SaveState()
		if err != nil {
			t.Fatal(err)
		}
		st.Route = c.route
		pkt, err := st.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		x2, _ := build()
		var d deferred
		err = x2.CheckpointRestore(refTable{pkt}, &d, data)
		if c.ok != (err == nil) || (err != nil && !strings.Contains(err.Error(), "queued request")) {
			t.Errorf("%s: restore error %v, want ok = %v", c.name, err, c.ok)
		}
	}

	// The count is checked against what the queues show.
	short := bytes.Replace(data, []byte(`"inFlight":1`), []byte(`"inFlight":0`), 1)
	x2, _ := build()
	var d deferred
	if err := x2.CheckpointRestore(pkts, &d, short); err == nil || !strings.Contains(err.Error(), "counts 0 requests in flight") {
		t.Errorf("in-flight count below the queued requests: restore error %v", err)
	}
}
