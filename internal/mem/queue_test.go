package mem

import (
	"testing"

	"repro/internal/sim"
)

// TestPacketQueueFIFOAcrossWrapAndGrowth: entries come out in push order with
// their ticks, wherever the head sits in the ring and however often the ring
// grew in between.
func TestPacketQueueFIFOAcrossWrapAndGrowth(t *testing.T) {
	var q PacketQueue
	q.Reserve(4)
	pkts := make([]*Packet, 64)
	for i := range pkts {
		pkts[i] = &Packet{Addr: Addr(i)}
	}
	next, popped := 0, 0
	push := func(n int) {
		for ; n > 0; n-- {
			q.Push(pkts[next], sim.Tick(next))
			next++
		}
	}
	pop := func(n int) {
		for ; n > 0; n-- {
			if p, at := q.At(0); p != pkts[popped] || at != sim.Tick(popped) {
				t.Fatalf("head is %v@%d, want packet %d", p, at, popped)
			}
			q.Pop()
			popped++
		}
	}
	push(3)
	pop(3)  // head at slot 3 of 4
	push(4) // wraps: slots 3, 0, 1, 2
	for i := 0; i < q.Len(); i++ {
		if p, _ := q.At(i); p != pkts[3+i] {
			t.Fatalf("At(%d) = %v, want packet %d", i, p, 3+i)
		}
	}
	push(9) // grows, twice, from a wrapped state
	pop(5)
	push(20)
	pop(q.Len())
	if popped != next || q.Len() != 0 {
		t.Fatalf("popped %d of %d, %d left", popped, next, q.Len())
	}
}

// TestPacketQueuePushFront: PushFront undoes a Pop wherever the head sits,
// walking the head back across slot 0, and grows a full ring.
func TestPacketQueuePushFront(t *testing.T) {
	var q PacketQueue
	q.Reserve(4)
	pkts := make([]*Packet, 5)
	for i := range pkts {
		pkts[i] = &Packet{Addr: Addr(i)}
	}
	want := func(first int) {
		t.Helper()
		if q.Len() != len(pkts)-first {
			t.Fatalf("%d queued, want %d", q.Len(), len(pkts)-first)
		}
		for i := 0; i < q.Len(); i++ {
			if p, at := q.At(i); p != pkts[first+i] || at != sim.Tick(first+i) {
				t.Fatalf("At(%d) = %v@%d, want packet %d", i, p, at, first+i)
			}
		}
	}
	for i := 1; i < len(pkts); i++ {
		q.Push(pkts[i], sim.Tick(i))
	}
	q.PushFront(pkts[0], 0) // full: grows, then the head walks back across slot 0
	want(0)
	p, at := q.At(0)
	q.Pop()
	q.PushFront(p, at)
	want(0)
	q.Pop()
	q.Pop()
	q.PushFront(pkts[1], 1)
	want(1)
	q.PushFront(pkts[0], 0)
	want(0)
}

// TestPacketQueueSteadyStateZeroAlloc: a queue that has reached its
// high-water mark, or was sized up front, pushes and pops without
// allocating, however far the ring has turned.
func TestPacketQueueSteadyStateZeroAlloc(t *testing.T) {
	var q PacketQueue
	q.Reserve(5)
	p := &Packet{}
	q.Push(p, 0)
	q.Push(p, 0)
	if avg := testing.AllocsPerRun(200, func() {
		q.Push(p, 1)
		q.Push(p, 2)
		q.Push(p, 3)
		q.Pop()
		q.Pop()
		q.Pop()
	}); avg != 0 {
		t.Fatalf("steady-state push/pop allocates %.2f objects, want 0", avg)
	}
}
