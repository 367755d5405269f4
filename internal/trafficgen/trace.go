package trafficgen

import (
	"bufio"
	"fmt"
	"io"
	"math"
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

// TracePlayer replays a parsed trace through an Issuer, respecting record
// timestamps (a record never issues early; back pressure may delay it,
// preserving order).
type TracePlayer struct {
	Issuer
	recs []TraceRecord
}

// NewTracePlayer builds a player for recs. Its tick runs after everything
// else due at its tick (sim.MaxPriority): the generator that captured the
// trace issued from the response that freed its slot, so a record due at a
// response's tick waits for that response.
func NewTracePlayer(k *sim.Kernel, recs []TraceRecord, requestorID int) *TracePlayer {
	p := &TracePlayer{recs: recs}
	p.Init(k, "trace", sim.MaxPriority, p, math.MaxInt, uint64(len(recs)), requestorID)
	if len(recs) > 0 {
		p.Due = recs[0].Tick
	}
	return p
}

// NextRequest implements Feed: the next record, and the tick of the one after.
func (p *TracePlayer) NextRequest(sim.Tick) (mem.Addr, bool, uint64) {
	r := p.recs[p.issued]
	if n := p.issued + 1; n < uint64(len(p.recs)) {
		p.Due = p.recs[n].Tick
	}
	return r.Addr, r.IsRead, r.Size
}

// Answered implements Feed: a player keeps no statistics.
func (*TracePlayer) Answered(bool, float64) {}
