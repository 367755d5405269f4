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
