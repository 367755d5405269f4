package sim

import (
	"testing"
	"unsafe"
)

type pooled struct {
	id   int
	next *pooled
	tag  string
}

// TestEventFitsOneCacheLine: the kernel's pool places one-shot events back
// to back in its slabs, so an event that outgrew 64 bytes would straddle
// cache lines in every slab. Its flags share the padding after the priority.
func TestEventFitsOneCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(Event{}); size != 64 {
		t.Fatalf("sim.Event is %d bytes, want 64", size)
	}
}

// TestPoolHandsOutZeroedObjectsLastInFirstOut: Get returns zeroed objects,
// fresh from a slab or cleared by Put, and reuses the most recently released
// object first.
func TestPoolHandsOutZeroedObjectsLastInFirstOut(t *testing.T) {
	var p Pool[pooled]
	a, b, c := p.Get(), p.Get(), p.Get()
	for _, x := range []*pooled{a, b, c} {
		if *x != (pooled{}) {
			t.Fatalf("fresh object not zeroed: %+v", *x)
		}
	}
	if a == b || b == c || a == c {
		t.Fatal("Get handed out one object twice")
	}
	for i, x := range []*pooled{a, b, c} {
		*x = pooled{id: i + 1, next: a, tag: "live"}
	}
	p.Put(a)
	p.Put(b)
	p.Put(c)
	if p.Len() != 3 {
		t.Fatalf("Len = %d after three releases, want 3", p.Len())
	}
	if *c != (pooled{}) {
		t.Fatalf("Put left %+v on the released object", *c)
	}
	for _, want := range []*pooled{c, b, a} {
		got := p.Get()
		if got != want {
			t.Fatal("reuse is not last-in-first-out")
		}
		if *got != (pooled{}) {
			t.Fatalf("reused object not zeroed: %+v", *got)
		}
	}
	if p.Len() != 0 {
		t.Fatalf("Len = %d with every object handed out, want 0", p.Len())
	}
}

// TestPoolGrowsBySlabs: slabs hold 4, 4, 8 and then 16 objects, so n objects
// live at once cost exactly one heap allocation per slab it takes to hold
// them: ⌈n/16⌉ + 2 once n passes 16.
func TestPoolGrowsBySlabs(t *testing.T) {
	var p Pool[pooled]
	live := make([]*pooled, 0, 100)
	for _, c := range []struct{ n, slabs int }{
		{1, 1}, {4, 1}, {5, 2}, {8, 2}, {9, 3}, {16, 3}, {17, 4}, {32, 4}, {33, 5}, {100, 9},
	} {
		fill := func() {
			p = Pool[pooled]{}
			live = live[:0]
			for i := 0; i < c.n; i++ {
				live = append(live, p.Get())
			}
		}
		if got := testing.AllocsPerRun(20, fill); got != float64(c.slabs) {
			t.Errorf("%d live objects cost %.0f allocations, want %d slabs", c.n, got, c.slabs)
		}
		seen := map[*pooled]bool{}
		for _, x := range live {
			if seen[x] {
				t.Fatalf("%d live objects: one handed out twice", c.n)
			}
			seen[x] = true
		}
	}
}

// TestPoolSteadyStateZeroAlloc gates the pool's hot path (Get and Put are
// the //hot:path roots every pooled object goes through): once the pool has
// held its high-water mark, a get/put cycle allocates nothing.
func TestPoolSteadyStateZeroAlloc(t *testing.T) {
	var p Pool[pooled]
	warm := make([]*pooled, 40)
	for i := range warm {
		warm[i] = p.Get()
	}
	for _, x := range warm {
		p.Put(x)
	}
	if avg := testing.AllocsPerRun(200, func() {
		for i := range warm {
			warm[i] = p.Get()
		}
		for _, x := range warm {
			p.Put(x)
		}
	}); avg != 0 {
		t.Fatalf("steady-state get/put allocates %.2f objects, want 0", avg)
	}
}
