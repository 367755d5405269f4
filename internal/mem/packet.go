// Package mem defines the memory packets and the timing-port protocol that
// connect requestors (CPUs, traffic generators, caches) to responders
// (crossbars, DRAM controllers). It is a Go rendition of gem5's
// transaction-level port interface with retry-based flow control, which is
// what lets the controller model blocking and back pressure (paper §II-F).
package mem

import (
	"fmt"

	"repro/internal/sim"
)

// Addr is a physical byte address.
type Addr uint64

// AlignDown rounds a down to a multiple of size (size must be a power of 2).
func (a Addr) AlignDown(size uint64) Addr { return a &^ Addr(size-1) }

// Cmd identifies a packet type.
type Cmd int

// Packet commands. A request is turned into its response in place via
// MakeResponse, mirroring gem5's packet reuse.
const (
	ReadReq Cmd = iota
	ReadResp
	WriteReq
	WriteResp
)

// String names the command.
func (c Cmd) String() string {
	switch c {
	case ReadReq:
		return "ReadReq"
	case ReadResp:
		return "ReadResp"
	case WriteReq:
		return "WriteReq"
	case WriteResp:
		return "WriteResp"
	}
	return fmt.Sprintf("Cmd(%d)", int(c))
}

// IsRead reports whether the command moves data toward the requestor.
func (c Cmd) IsRead() bool { return c == ReadReq || c == ReadResp }

// IsWrite reports whether the command moves data toward memory.
func (c Cmd) IsWrite() bool { return c == WriteReq || c == WriteResp }

// IsRequest reports whether the command is a request.
func (c Cmd) IsRequest() bool { return c == ReadReq || c == WriteReq }

// IsResponse reports whether the command is a response.
func (c Cmd) IsResponse() bool { return c == ReadResp || c == WriteResp }

// Packet is one memory transaction travelling through the system. The model
// is timing-only (like gem5's timing mode without data): packets carry
// addresses and sizes, not payloads.
type Packet struct {
	// Cmd is the current command; requests become responses in place.
	Cmd Cmd
	// Addr is the start address of the access.
	Addr Addr
	// Size is the access length in bytes.
	Size uint64
	// RequestorID identifies the original issuer, used by interconnects to
	// route responses and by statistics to attribute traffic.
	RequestorID int
	// IssueTick records when the requestor injected the packet; components
	// use it to compute end-to-end latency.
	IssueTick sim.Tick
	// Meta carries requestor-private state (e.g. a CPU's outstanding-miss
	// record) untouched through the memory system.
	Meta any
	// Poisoned marks a response whose data suffered a detectable but
	// uncorrectable error (SEC-DED multi-bit). The contract: every component
	// on the response path (controller, crossbar, cache) must deliver the
	// packet to the original requestor with the flag intact — poison is
	// propagated, never silently dropped and never a crash. Caches must not
	// install poisoned fills.
	Poisoned bool
	// route is the way back: each crossbar the request crosses pushes the
	// requestor side it came in on, and pops it when the response passes
	// (gem5's sender state, fixed-size so a packet stays one cache line —
	// the seven bytes are the padding Poisoned left).
	routeLen uint8
	route    [RouteDepth]RouteHop
}

// RouteDepth is how many crossbars one request can cross before it is
// answered. Every shipped topology needs one: a cache issues its own fill.
const RouteDepth = 3

// RouteHop is one entry of a packet's return route.
type RouteHop struct {
	// Xbar tags the crossbar that pushed the entry, so a response arriving
	// at any other crossbar is caught rather than misdelivered.
	Xbar uint8 `json:"xbar"`
	// Side is that crossbar's requestor-side index.
	Side uint8 `json:"side"`
}

// PushRoute records a crossbar hop on the request's way in. It reports false,
// leaving the packet alone, when the route is already RouteDepth deep.
func (p *Packet) PushRoute(h RouteHop) bool {
	if p.routeLen == RouteDepth {
		return false
	}
	p.route[p.routeLen] = h
	p.routeLen++
	return true
}

// RouteTop returns the most recent hop without removing it; ok is false when
// the route is empty.
func (p *Packet) RouteTop() (h RouteHop, ok bool) {
	if p.routeLen == 0 {
		return RouteHop{}, false
	}
	return p.route[p.routeLen-1], true
}

// PopRoute removes the most recent hop; the route must not be empty.
func (p *Packet) PopRoute() { p.routeLen-- }

// Route returns the hops pushed so far, oldest first.
func (p *Packet) Route() []RouteHop { return p.route[:p.routeLen] }

// NewRead returns a read request.
func NewRead(addr Addr, size uint64, requestor int, now sim.Tick) *Packet {
	return &Packet{Cmd: ReadReq, Addr: addr, Size: size, RequestorID: requestor, IssueTick: now}
}

// NewWrite returns a write request.
func NewWrite(addr Addr, size uint64, requestor int, now sim.Tick) *Packet {
	return &Packet{Cmd: WriteReq, Addr: addr, Size: size, RequestorID: requestor, IssueTick: now}
}

// MakeResponse converts the request into its response in place. It panics on
// packets that are already responses.
func (p *Packet) MakeResponse() {
	switch p.Cmd {
	case ReadReq:
		p.Cmd = ReadResp
	case WriteReq:
		p.Cmd = WriteResp
	default:
		panic(fmt.Sprintf("mem: MakeResponse on %s", p.Cmd))
	}
}

// End returns the first address past the access.
func (p *Packet) End() Addr { return p.Addr + Addr(p.Size) }

// String renders the packet for diagnostics.
func (p *Packet) String() string {
	poison := ""
	if p.Poisoned {
		poison = " poisoned"
	}
	return fmt.Sprintf("%s[%#x:%#x) req=%d%s", p.Cmd, uint64(p.Addr), uint64(p.End()), p.RequestorID, poison)
}
