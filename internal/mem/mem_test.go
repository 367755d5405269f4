package mem

import (
	"testing"
)

func TestAlign(t *testing.T) {
	if got := Addr(0x1234).AlignDown(64); got != 0x1200 {
		t.Fatalf("AlignDown = %#x", uint64(got))
	}
}

func TestCmdPredicates(t *testing.T) {
	cases := []struct {
		cmd                         Cmd
		read, write, request, reply bool
	}{
		{ReadReq, true, false, true, false},
		{ReadResp, true, false, false, true},
		{WriteReq, false, true, true, false},
		{WriteResp, false, true, false, true},
	}
	for _, c := range cases {
		if c.cmd.IsRead() != c.read || c.cmd.IsWrite() != c.write ||
			c.cmd.IsRequest() != c.request || c.cmd.IsResponse() != c.reply {
			t.Errorf("%s predicates wrong", c.cmd)
		}
	}
}

func TestMakeResponse(t *testing.T) {
	p := NewRead(0x100, 64, 1, 0)
	p.MakeResponse()
	if p.Cmd != ReadResp {
		t.Fatalf("Cmd = %s", p.Cmd)
	}
	w := NewWrite(0x200, 64, 1, 0)
	w.MakeResponse()
	if w.Cmd != WriteResp {
		t.Fatalf("Cmd = %s", w.Cmd)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MakeResponse on response did not panic")
		}
	}()
	p.MakeResponse()
}

// loopResponder immediately turns every request around as a response, with a
// programmable refusal pattern to exercise the retry protocol.
type loopResponder struct {
	port        *ResponsePort
	refuseNext  int
	gotRetry    int
	pending     []*Packet
	acceptCount int
}

func (l *loopResponder) RecvTimingReq(pkt *Packet) bool {
	if l.refuseNext > 0 {
		l.refuseNext--
		return false
	}
	l.acceptCount++
	pkt.MakeResponse()
	if !l.port.SendTimingResp(pkt) {
		l.pending = append(l.pending, pkt)
	}
	return true
}

func (l *loopResponder) RecvRespRetry() {
	l.gotRetry++
	for len(l.pending) > 0 {
		if !l.port.SendTimingResp(l.pending[0]) {
			return
		}
		l.pending = l.pending[1:]
	}
}

// collector is a requestor that can refuse responses.
type collector struct {
	port       *RequestPort
	refuseNext int
	responses  []*Packet
	reqRetries int
}

func (c *collector) RecvTimingResp(pkt *Packet) bool {
	if c.refuseNext > 0 {
		c.refuseNext--
		return false
	}
	c.responses = append(c.responses, pkt)
	return true
}

func (c *collector) RecvReqRetry() { c.reqRetries++ }

func newPair() (*collector, *loopResponder) {
	col := &collector{}
	resp := &loopResponder{}
	col.port = NewRequestPort("req", col, nil)
	resp.port = NewResponsePort("resp", resp, nil)
	Connect(col.port, resp.port)
	return col, resp
}

func TestPortRoundTrip(t *testing.T) {
	col, _ := newPair()
	pkt := NewRead(0x40, 64, 7, 100)
	if !col.port.SendTimingReq(pkt) {
		t.Fatal("request refused")
	}
	if len(col.responses) != 1 || col.responses[0].Cmd != ReadResp {
		t.Fatalf("responses = %v", col.responses)
	}
	if col.responses[0].RequestorID != 7 || col.responses[0].IssueTick != 100 {
		t.Fatal("identity fields not preserved")
	}
}

func TestPortRequestRefusalAndRetry(t *testing.T) {
	col, resp := newPair()
	resp.refuseNext = 1
	if col.port.SendTimingReq(NewRead(0, 64, 0, 0)) {
		t.Fatal("request should have been refused")
	}
	// Responder signals readiness; requestor is notified.
	resp.port.SendReqRetry()
	if col.reqRetries != 1 {
		t.Fatalf("reqRetries = %d", col.reqRetries)
	}
	if !col.port.SendTimingReq(NewRead(0, 64, 0, 0)) {
		t.Fatal("retried request refused")
	}
}

func TestPortResponseRefusalAndRetry(t *testing.T) {
	col, resp := newPair()
	col.refuseNext = 1
	if !col.port.SendTimingReq(NewRead(0, 64, 0, 0)) {
		t.Fatal("request refused")
	}
	if len(col.responses) != 0 || len(resp.pending) != 1 {
		t.Fatal("response should be held by responder")
	}
	col.port.SendRespRetry()
	if resp.gotRetry != 1 || len(col.responses) != 1 {
		t.Fatalf("retry did not deliver: gotRetry=%d responses=%d", resp.gotRetry, len(col.responses))
	}
}

func TestUnconnectedPortPanics(t *testing.T) {
	col := &collector{}
	col.port = NewRequestPort("req", col, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("send on unconnected port did not panic")
		}
	}()
	col.port.SendTimingReq(NewRead(0, 64, 0, 0))
}

func TestDoubleConnectPanics(t *testing.T) {
	col, _ := newPair()
	other := &loopResponder{}
	other.port = NewResponsePort("other", other, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("double connect did not panic")
		}
	}()
	Connect(col.port, other.port)
}

func TestSendWrongDirectionPanics(t *testing.T) {
	col, _ := newPair()
	pkt := NewRead(0, 64, 0, 0)
	pkt.MakeResponse()
	defer func() {
		if recover() == nil {
			t.Fatal("SendTimingReq of a response did not panic")
		}
	}()
	col.port.SendTimingReq(pkt)
}

func TestPortAccessors(t *testing.T) {
	col, resp := newPair()
	if col.port.Name() != "req" || !col.port.Connected() || col.port.Peer() == nil {
		t.Fatal("request port accessors wrong")
	}
	if resp.port.Name() != "resp" || !resp.port.Connected() || resp.port.Peer() == nil {
		t.Fatal("response port accessors wrong")
	}
	loose := NewResponsePort("loose", resp, nil)
	if loose.Connected() || loose.Peer() != nil {
		t.Fatal("unconnected port claims a peer")
	}
}

func TestPacketString(t *testing.T) {
	p := NewRead(0x40, 64, 3, 0)
	if got := p.String(); got != "ReadReq[0x40:0x80) req=3" {
		t.Fatalf("String = %q", got)
	}
	p.MakeResponse()
	if got := p.String(); got != "ReadResp[0x40:0x80) req=3" {
		t.Fatalf("String = %q", got)
	}
	if Cmd(99).String() != "Cmd(99)" {
		t.Fatal("unknown command String wrong")
	}
}

// TestReturnRoute: hops come back last-in first-out, and a full route refuses
// the push and keeps what it holds.
func TestReturnRoute(t *testing.T) {
	p := NewRead(0x100, 64, 1, 0)
	if _, ok := p.RouteTop(); ok || len(p.Route()) != 0 {
		t.Fatal("a new packet has a route")
	}
	var hops []RouteHop
	for i := 0; i < RouteDepth; i++ {
		hops = append(hops, RouteHop{Xbar: uint8(10 + i), Side: uint8(i)})
		if !p.PushRoute(hops[i]) {
			t.Fatalf("push %d refused, route holds %d", i, RouteDepth)
		}
	}
	if p.PushRoute(RouteHop{Xbar: 99}) {
		t.Fatalf("push %d accepted", RouteDepth+1)
	}
	for i := RouteDepth - 1; i >= 0; i-- {
		if h, ok := p.RouteTop(); !ok || h != hops[i] {
			t.Fatalf("top of a %d-deep route = %v, %v; want %v", i+1, h, ok, hops[i])
		}
		p.PopRoute()
	}
	if len(p.Route()) != 0 {
		t.Fatalf("route after popping every hop: %v", p.Route())
	}
}
