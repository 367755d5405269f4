package trafficgen

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/mem"
	"repro/internal/sim"
)

// TraceRecord is one line of a memory trace: a timestamped read or write.
type TraceRecord struct {
	Tick   sim.Tick
	IsRead bool
	Addr   mem.Addr
	Size   uint64
}

// ParseTrace reads a whitespace-separated text trace with lines of the form
//
//	<tick-ps> <r|w> <hex-addr> <size-bytes>
//
// Blank lines and lines starting with '#' are skipped. Records must be
// sorted by tick.
func ParseTrace(r io.Reader) ([]TraceRecord, error) {
	var out []TraceRecord
	sc := bufio.NewScanner(r)
	lineNo := 0
	var lastTick sim.Tick
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			return nil, fmt.Errorf("trace line %d: want 4 fields, got %d", lineNo, len(fields))
		}
		tick, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil || tick < 0 {
			return nil, fmt.Errorf("trace line %d: bad tick %q", lineNo, fields[0])
		}
		var isRead bool
		switch strings.ToLower(fields[1]) {
		case "r", "read":
			isRead = true
		case "w", "write":
			isRead = false
		default:
			return nil, fmt.Errorf("trace line %d: bad command %q", lineNo, fields[1])
		}
		addr, err := strconv.ParseUint(strings.TrimPrefix(fields[2], "0x"), 16, 64)
		if err != nil {
			return nil, fmt.Errorf("trace line %d: bad address %q", lineNo, fields[2])
		}
		size, err := strconv.ParseUint(fields[3], 10, 64)
		if err != nil || size == 0 {
			return nil, fmt.Errorf("trace line %d: bad size %q", lineNo, fields[3])
		}
		if sim.Tick(tick) < lastTick {
			return nil, fmt.Errorf("trace line %d: ticks not sorted", lineNo)
		}
		lastTick = sim.Tick(tick)
		out = append(out, TraceRecord{Tick: sim.Tick(tick), IsRead: isRead, Addr: mem.Addr(addr), Size: size})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// FormatTrace writes records in the format ParseTrace reads.
func FormatTrace(w io.Writer, recs []TraceRecord) error {
	for _, r := range recs {
		cmd := "w"
		if r.IsRead {
			cmd = "r"
		}
		if _, err := fmt.Fprintf(w, "%d %s 0x%x %d\n", int64(r.Tick), cmd, uint64(r.Addr), r.Size); err != nil {
			return err
		}
	}
	return nil
}

// TracePlayer replays a parsed trace through a memory port, respecting
// record timestamps (a record never issues early; back pressure may delay
// it, preserving order).
type TracePlayer struct {
	k    *sim.Kernel
	port *mem.RequestPort
	recs []TraceRecord
	next int
	// pool recycles the player's packets: drawn on issue, released when the
	// response arrives.
	pool mem.PacketPool

	outstanding int
	blocked     *mem.Packet
	tick        *sim.Event
	requestorID int

	completed uint64
}

// NewTracePlayer builds a player for recs.
func NewTracePlayer(k *sim.Kernel, recs []TraceRecord, requestorID int) *TracePlayer {
	p := &TracePlayer{k: k, recs: recs, requestorID: requestorID}
	p.port = mem.NewRequestPort("trace.port", p, k)
	// The tick runs after everything else due at its tick: the generator
	// that captured the trace issued from the response that freed its slot,
	// so a record due at a response's tick waits for that response.
	p.tick = sim.NewEventPri("trace.tick", sim.MaxPriority, p.issue)
	return p
}

// Port returns the memory-side request port.
func (p *TracePlayer) Port() *mem.RequestPort { return p.port }

// Start schedules the first record.
func (p *TracePlayer) Start() {
	if len(p.recs) == 0 {
		return
	}
	when := p.recs[0].Tick
	if now := p.k.Now(); when < now {
		when = now
	}
	p.k.Schedule(p.tick, when)
}

// Done reports whether every record has been issued and answered.
func (p *TracePlayer) Done() bool {
	return p.next >= len(p.recs) && p.outstanding == 0 && p.blocked == nil
}

// Completed returns the number of responses received.
func (p *TracePlayer) Completed() uint64 { return p.completed }

func (p *TracePlayer) issue() {
	now := p.k.Now()
	for p.blocked == nil && p.next < len(p.recs) && p.recs[p.next].Tick <= now {
		r := p.recs[p.next]
		p.next++
		var pkt *mem.Packet
		if r.IsRead {
			pkt = p.pool.NewRead(r.Addr, r.Size, p.requestorID, now)
		} else {
			pkt = p.pool.NewWrite(r.Addr, r.Size, p.requestorID, now)
		}
		p.outstanding++
		if !p.port.SendTimingReq(pkt) {
			p.blocked = pkt
			return
		}
	}
	if p.blocked == nil && p.next < len(p.recs) && !p.tick.Scheduled() {
		p.k.Schedule(p.tick, p.recs[p.next].Tick)
	}
}

// RecvTimingResp implements mem.Requestor. When the next record is due now
// and the player's tick, pending for it, would be the kernel's next event, the
// player issues in this call instead of firing the tick (sim.Kernel.Alone),
// as the generator that captured the trace did.
func (p *TracePlayer) RecvTimingResp(pkt *mem.Packet) bool {
	p.pool.Put(pkt)
	p.outstanding--
	p.completed++
	if p.tick.Scheduled() && p.tick.When() == p.k.Now() && p.k.Alone(p.tick) {
		p.k.Deschedule(p.tick)
		p.issue()
	}
	return true
}

// RecvReqRetry implements mem.Requestor.
func (p *TracePlayer) RecvReqRetry() {
	if p.blocked == nil {
		return
	}
	pkt := p.blocked
	p.blocked = nil
	if !p.port.SendTimingReq(pkt) {
		p.blocked = pkt
		return
	}
	p.issue()
}
