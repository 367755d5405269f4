package mem

import "repro/internal/sim"

// PacketPool is the packet instance of sim.Pool, owned by a single
// requestor. Packets are the per-request allocation of every workload, and in
// a sharded run they are the one object that crosses kernel boundaries —
// pooling them deterministically (LIFO, no sync.Pool, no GC coupling) cuts
// the allocation rate of the event hot path to zero without making reuse
// order depend on anything outside the simulation. Get and Put are
// sim.Pool's: Put clears a packet's fields (including Meta, Poisoned and the
// return route) so a stale flag or hop can never leak into the next
// transaction.
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
	sim.Pool[Packet]
}

// NewRead returns a pooled read request, initialized like mem.NewRead. Every
// field is written, so not even a holder that broke the ownership rule and
// wrote to the packet after releasing it reaches this transaction.
func (pl *PacketPool) NewRead(addr Addr, size uint64, requestor int, now sim.Tick) *Packet {
	p := pl.Get()
	*p = Packet{Cmd: ReadReq, Addr: addr, Size: size, RequestorID: requestor, IssueTick: now}
	return p
}

// NewWrite returns a pooled write request, initialized like mem.NewWrite and,
// like NewRead, in every field.
func (pl *PacketPool) NewWrite(addr Addr, size uint64, requestor int, now sim.Tick) *Packet {
	p := pl.Get()
	*p = Packet{Cmd: WriteReq, Addr: addr, Size: size, RequestorID: requestor, IssueTick: now}
	return p
}
