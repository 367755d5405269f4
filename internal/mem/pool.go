package mem

import "repro/internal/sim"

// maxPoolFree bounds a PacketPool's free list. Requestors are closed-loop
// (bounded outstanding windows), so in steady state the pool never grows
// past the window; the cap only matters for pathological bursts.
const maxPoolFree = 4096

// PacketPool is a free list of Packets owned by a single requestor. Packets
// are the per-request allocation of every workload, and in a sharded run
// they are the one object that crosses kernel boundaries — pooling them
// deterministically (plain LIFO free list, no sync.Pool, no GC coupling)
// cuts the allocation rate of the event hot path to zero without making
// reuse order depend on anything outside the simulation.
//
// Ownership rule: the component that created a packet releases it, and only
// after the transaction has fully left the memory system — for a requestor
// that is the moment its response is consumed. Nothing downstream may
// retain a packet past the response handshake (the crossbar pops its
// return-route hop when the response passes, the tracer closes its span on
// ResponseSent), which is exactly the contract that made gem5-style
// in-place request/response reuse safe before pooling existed.
//
// A PacketPool is single-threaded, like the kernel that owns its
// requestor. The zero value is ready to use.
type PacketPool struct {
	free []*Packet
}

// Get returns a zeroed packet, reusing a released one when available.
//
//hot:path per-request packet reuse; gated by the pool alloc test
func (pl *PacketPool) Get() *Packet {
	if n := len(pl.free); n > 0 {
		p := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		*p = Packet{}
		return p
	}
	//hot:allow pool growth on exhaustion; steady state pops the free list
	return &Packet{}
}

// Put releases a packet back to the pool. The caller must hold the only
// live reference; the packet's fields (including Meta, Poisoned and the
// return route) are cleared so a stale flag or hop can never leak into the
// next transaction.
//
//hot:path release side of the packet cycle
func (pl *PacketPool) Put(p *Packet) {
	if p == nil {
		return
	}
	*p = Packet{}
	if len(pl.free) < maxPoolFree {
		pl.free = append(pl.free, p)
	}
}

// NewRead returns a pooled read request, initialized like mem.NewRead.
func (pl *PacketPool) NewRead(addr Addr, size uint64, requestor int, now sim.Tick) *Packet {
	p := pl.Get()
	p.Cmd = ReadReq
	p.Addr = addr
	p.Size = size
	p.RequestorID = requestor
	p.IssueTick = now
	return p
}

// NewWrite returns a pooled write request, initialized like mem.NewWrite.
func (pl *PacketPool) NewWrite(addr Addr, size uint64, requestor int, now sim.Tick) *Packet {
	p := pl.Get()
	p.Cmd = WriteReq
	p.Addr = addr
	p.Size = size
	p.RequestorID = requestor
	p.IssueTick = now
	return p
}
