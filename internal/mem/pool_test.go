package mem

import (
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// TestPacketIsOneCacheLine: the return route lives in what was padding, and
// a pool's slab places packets back to back, so a packet that outgrew 64
// bytes would straddle cache lines in every slab.
func TestPacketIsOneCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(Packet{}); size != 64 {
		t.Fatalf("mem.Packet is %d bytes, want 64", size)
	}
}

// TestPacketPoolReusesAndZeroes: a released packet comes back zeroed — no
// poisoned flag, no Meta, no stale latency stamp or return-route hop leaks
// into the next transaction.
func TestPacketPoolReusesAndZeroes(t *testing.T) {
	var pl PacketPool
	p := pl.NewRead(0x40, 64, 3, 100*sim.Nanosecond)
	p.MakeResponse()
	p.Poisoned = true
	p.Meta = "stale"
	p.PushRoute(RouteHop{Xbar: 9, Side: 2})
	pl.Put(p)
	if len(p.Route()) != 0 {
		t.Fatalf("Put left the route %v on the released packet", p.Route())
	}
	// A holder that broke the ownership rule and pushed after the release
	// still cannot reach the next transaction: NewWrite writes every field.
	p.PushRoute(RouteHop{Xbar: 9, Side: 2})

	q := pl.NewWrite(0x80, 32, 1, 200*sim.Nanosecond)
	if q != p {
		t.Fatal("pool did not reuse the released packet")
	}
	if q.Cmd != WriteReq || q.Addr != 0x80 || q.Size != 32 || q.RequestorID != 1 {
		t.Fatalf("reused packet misinitialized: %v", q)
	}
	if q.Poisoned || q.Meta != nil || len(q.Route()) != 0 {
		t.Fatalf("stale state leaked through the pool: poisoned=%v meta=%v route=%v", q.Poisoned, q.Meta, q.Route())
	}
	if q.IssueTick != 200*sim.Nanosecond {
		t.Fatalf("IssueTick = %s, want 200ns", q.IssueTick)
	}
}

// TestPacketPoolSteadyStateZeroAlloc: once the pool is warm, a get/put cycle
// through the NewRead/NewWrite helpers allocates nothing.
func TestPacketPoolSteadyStateZeroAlloc(t *testing.T) {
	var pl PacketPool
	warm := make([]*Packet, 32)
	for i := range warm {
		warm[i] = pl.Get()
	}
	for _, p := range warm {
		pl.Put(p)
	}
	if avg := testing.AllocsPerRun(200, func() {
		a := pl.NewRead(0x1000, 64, 0, 0)
		b := pl.NewWrite(0x2000, 64, 0, 0)
		pl.Put(a)
		pl.Put(b)
	}); avg != 0 {
		t.Fatalf("steady-state packet get/put allocates %.2f objects, want 0", avg)
	}
}

// TestPipeOfferOrderEnforced: the "head never changes while armed" invariant
// is now asserted, not just documented — offering a packet due earlier than
// the outbox tail must fail loudly.
func TestPipeOfferOrderEnforced(t *testing.T) {
	dst := sim.NewKernel()
	p := newPipe("test.req", dst)
	p.offer(&Packet{}, 10)
	p.offer(&Packet{}, 10) // equal due ticks are fine
	p.offer(&Packet{}, 12)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order offer did not panic")
		}
	}()
	p.offer(&Packet{}, 11)
}

// TestPipeFlushValidatesEveryEntry: flush must reject a late packet anywhere
// in the outbox, not just at the head.
func TestPipeFlushValidatesEveryEntry(t *testing.T) {
	dst := sim.NewKernel()
	ev := sim.NewEvent("advance", func() {})
	dst.Schedule(ev, 20)
	dst.RunUntil(20) // destination clock now at 20

	p := newPipe("test.req", dst)
	p.deliver = func(*Packet) bool { return true }
	p.offer(&Packet{}, 25) // head is fine
	p.offer(&Packet{}, 30)
	// Corrupt a non-head entry to simulate a lookahead violation that a
	// head-only check would miss.
	p.outbox.buf[p.outbox.slot(1)].at = 15
	defer func() {
		if recover() == nil {
			t.Fatal("flush accepted a non-head packet due in the destination's past")
		}
	}()
	p.flush()
}
