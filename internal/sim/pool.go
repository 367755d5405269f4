package sim

import "slices"

// slabSize is the most objects a Pool allocates at once when it runs dry.
const slabSize = 16

// Pool is a last-in-first-out free list of T: the one way the simulator
// recycles per-request objects (packets, controller burst descriptors and
// transactions, the kernel's one-shot events). Reuse order is a pure function
// of the calls made on it — no sync.Pool, no GC coupling — so recycling never
// makes a run depend on anything outside the simulation.
//
// A pool that runs dry allocates a slab and hands its objects out in order
// before it asks the heap again. Each slab is as large as the pool already
// is, from 4 objects up to 16 (so a pool owns 4, 8, 16, 32, 48, … objects):
// a pool that never holds more than a few objects stays small, and a busy
// one asks the heap once per 16. Nothing is ever returned to the heap and
// there is no cap: a pool holds its run's high-water mark.
//
// A Pool is single-threaded, like the kernel whose components own it. The
// zero value is ready to use.
type Pool[T any] struct {
	free  []*T // released objects, most recent last
	slab  []T  // the newest slab's objects not yet handed out
	owned int  // objects in all slabs so far
}

// Get returns a zeroed object: the one released last, else the next one of
// the newest slab, else the first of a fresh slab. Get and Put stay small
// enough to inline; the slab growth in Get is the pool's one miss path.
//
//hot:path per-request object reuse; gated by TestPoolSteadyStateZeroAlloc
func (p *Pool[T]) Get() *T {
	if n := len(p.free); n > 0 {
		x := p.free[n-1]
		p.free = p.free[:n-1]
		return x
	}
	if len(p.slab) == 0 {
		n := min(max(p.owned, 4), slabSize)
		//hot:allow slab growth: a pool allocates only when more objects are live than ever before
		p.slab = make([]T, n)
		p.owned += n
	}
	x := &p.slab[0]
	p.slab = p.slab[1:]
	return x
}

// Put releases x for reuse. The caller must hold the only live reference.
// x is cleared at once, so a released object pins nothing and the next Get
// hands it out zeroed. A full free list grows at once to hold every object
// the pool owns.
//
//hot:path release side of every pooled object's cycle
func (p *Pool[T]) Put(x *T) {
	var zero T
	*x = zero
	if len(p.free) == cap(p.free) {
		p.free = slices.Grow(p.free, max(p.owned-len(p.free), 1))
	}
	p.free = append(p.free, x)
}

// Len returns how many released objects wait for reuse.
func (p *Pool[T]) Len() int { return len(p.free) }
