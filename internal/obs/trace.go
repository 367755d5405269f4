package obs

import (
	"errors"
	"fmt"
	"os"
	"strconv"

	"repro/internal/mem"
	"repro/internal/power"
	"repro/internal/sim"
)

// Packet-lifecycle tracing in the Chrome trace-event JSON format, loadable
// directly in Perfetto (ui.perfetto.dev). The layout:
//
//   - one trace "process" per emitting component (a controller, the
//     crossbar), one "thread" per track inside it: the per-queue counter
//     tracks, one track per bank ("bank r0b3"), one per rank's refresh
//     windows, the write-drain track;
//   - each system packet's life is an async span ("b"/"e" events joined by
//     a trace-wide id) from queue admission to response, with an async
//     instant ("n") marking its first DRAM command — enqueue -> first
//     command -> response, the §V decomposition of latency into queueing
//     and device time;
//   - RD/WR bursts are complete spans ("X") on their bank's track covering
//     command-issue to end-of-data; ACT/PRE are instants; refreshes are
//     spans on the rank's refresh track.
//
// Determinism: every line is formatted with fixed-width logic from kernel
// ticks (no floats, no wall clock, no map iteration), and events are
// buffered by the tracer and drained to its file between session steps
// (Flush), so two identical runs produce byte-identical files.

// traceTimeDiv converts kernel ticks (picoseconds) to the trace format's
// microsecond timestamps: ts = tick / traceTimeDiv, with the remainder as
// the 6-digit fraction.
const traceTimeDiv = 1_000_000

// appendTS appends a tick as a fixed-point microsecond timestamp.
func appendTS(b []byte, t sim.Tick) []byte {
	return fmt.Appendf(b, "%d.%06d", int64(t)/traceTimeDiv, int64(t)%traceTimeDiv)
}

// openSpan is one in-flight packet lifecycle.
type openSpan struct {
	id      uint64
	queue   Queue
	cmdSeen bool
}

// spanKey identifies a lifecycle span: the same packet pointer flows
// through several components (crossbar, then a controller), each with its
// own span.
type spanKey struct {
	src string
	pkt *mem.Packet
}

// pendingDrain is a write-drain episode whose exit has not been seen.
type pendingDrain struct {
	at       sim.Tick
	queueLen int
}

// powerKey identifies a rank's power-state track within one source.
type powerKey struct {
	src  string
	rank int
}

// pendingPower is a low-power interval (PDE/SRE seen, exit pending). The
// span name is fixed at entry: "PD(pre)", "PD(act)" or "SR".
type pendingPower struct {
	at   sim.Tick
	name string
}

// Tracer is the lifecycle trace of one run: the probe that converts obs
// events into Chrome trace-event lines and the file they go to. Attach it
// to the hub every traced component emits through, Flush it between session
// steps (Session.OnStep) so the buffered lines stay bounded however long the
// run is, and Close it when the run ends.
//
// The file uses the JSON Array format with one event object per line; Close
// appends the "{}]" terminator, making the file strict JSON, but Perfetto also
// loads a file that crashed mid-write (the format tolerates a missing
// terminator). A run resumed from a checkpoint replays from tick 0, so it
// writes the whole file again, byte for byte.
type Tracer struct {
	nextPid int
	pids    map[string]int // src -> pid
	tids    map[string]int // "pid|track" -> tid
	nextTid map[int]int    // pid -> next tid
	spans   map[spanKey]*openSpan
	drains  map[string]pendingDrain   // src -> open drain episode
	powers  map[powerKey]pendingPower // src+rank -> open low-power interval
	nextID  uint64                    // async span ids, trace-wide
	buf     []byte                    // pending trace lines

	f *os.File
	// started is set once the file holds this run's header, written by the
	// first Flush over whatever the file held.
	started bool
}

// traceHeader opens the JSON array.
const traceHeader = "[\n"

// OpenTrace opens (or creates) the trace file at path without touching its
// contents: the run replaces them on its first Flush, so a run refused before
// it steps leaves an earlier trace alone.
func OpenTrace(path string) (*Tracer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &Tracer{
		pids:    make(map[string]int),
		tids:    make(map[string]int),
		nextTid: make(map[int]int),
		spans:   make(map[spanKey]*openSpan),
		drains:  make(map[string]pendingDrain),
		powers:  make(map[powerKey]pendingPower),
		f:       f,
	}, nil
}

// Flush drains the buffered lines to the file, first replacing whatever an
// earlier run left there with the header.
func (t *Tracer) Flush() error {
	if !t.started {
		if err := t.f.Truncate(0); err != nil {
			return err
		}
		t.buf = append([]byte(traceHeader), t.buf...)
		t.started = true
	}
	if len(t.buf) == 0 {
		return nil
	}
	_, err := t.f.Write(t.buf)
	t.buf = t.buf[:0]
	return err
}

// Close flushes, terminates the JSON array and closes the file.
func (t *Tracer) Close() error {
	t.buf = append(t.buf, "{}]\n"...)
	return errors.Join(t.Flush(), t.f.Close())
}

// pid returns the trace process id for a source, emitting the process-name
// metadata line on first use.
func (t *Tracer) pid(src string) int {
	if p, ok := t.pids[src]; ok {
		return p
	}
	t.nextPid++
	p := t.nextPid
	t.pids[src] = p
	t.nextTid[p] = 1
	t.buf = fmt.Appendf(t.buf, `{"name":"process_name","ph":"M","pid":%d,"args":{"name":%s}},`+"\n",
		p, strconv.Quote(src))
	return p
}

// tid returns the thread (track) id for a named track of a process,
// emitting the thread-name metadata line on first use.
func (t *Tracer) tid(pid int, track string) int {
	key := strconv.Itoa(pid) + "|" + track
	if id, ok := t.tids[key]; ok {
		return id
	}
	id := t.nextTid[pid]
	t.nextTid[pid] = id + 1
	t.tids[key] = id
	t.buf = fmt.Appendf(t.buf, `{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%s}},`+"\n",
		pid, id, strconv.Quote(track))
	return id
}

// head appends the common prefix of an event line up to and including the
// timestamp.
func (t *Tracer) head(name, cat, ph string, pid, tid int, at sim.Tick) {
	t.buf = fmt.Appendf(t.buf, `{"name":%s,"cat":"%s","ph":"%s","pid":%d,"tid":%d,"ts":`,
		strconv.Quote(name), cat, ph, pid, tid)
	t.buf = appendTS(t.buf, at)
}

// close terminates an event line.
func (t *Tracer) close() { t.buf = append(t.buf, "},\n"...) }

// HandleEvent implements Probe.
func (t *Tracer) HandleEvent(ev Event) {
	switch e := ev.(type) {
	case PacketEnqueued:
		pid := t.pid(e.Src)
		tid := t.tid(pid, "packets")
		t.nextID++
		id := t.nextID
		t.spans[spanKey{e.Src, e.Pkt}] = &openSpan{id: id, queue: e.Queue}
		t.head(e.Queue.String()+" "+addrHex(e.Pkt.Addr), "pkt", "b", pid, tid, e.At)
		t.buf = fmt.Appendf(t.buf, `,"id":%d,"args":{"addr":"%s","size":%d,"bursts":%d,"requestor":%d}`,
			id, addrHex(e.Pkt.Addr), e.Pkt.Size, e.Bursts, e.Pkt.RequestorID)
		t.close()
	case QueueAdmit:
		pid := t.pid(e.Src)
		tid := t.tid(pid, "queue."+e.Queue.String())
		t.head("queue."+e.Queue.String(), "queue", "C", pid, tid, e.At)
		t.buf = fmt.Appendf(t.buf, `,"args":{"depth":%d}`, e.Depth)
		t.close()
	case QueueRefuse:
		pid := t.pid(e.Src)
		tid := t.tid(pid, "queue."+e.Queue.String())
		t.head("refuse."+e.Queue.String(), "queue", "i", pid, tid, e.At)
		t.buf = fmt.Appendf(t.buf, `,"s":"t","args":{"depth":%d}`, e.Depth)
		t.close()
	case DRAMCommand:
		kind := e.Cmd.Kind.String()
		switch kind {
		case "PDE", "SRE":
			// Low-power intervals render as spans on the rank's power track,
			// opened here and closed by the matching PDX/SRX.
			name := "SR"
			if kind == "PDE" {
				name = "PD(pre)"
				if e.Cmd.Bank == power.PDActive {
					name = "PD(act)"
				}
			}
			t.powers[powerKey{e.Src, e.Cmd.Rank}] = pendingPower{at: e.Cmd.At, name: name}
			return
		case "PDX", "SRX":
			key := powerKey{e.Src, e.Cmd.Rank}
			p, ok := t.powers[key]
			if !ok {
				return
			}
			delete(t.powers, key)
			pid := t.pid(e.Src)
			tid := t.tid(pid, fmt.Sprintf("power r%d", e.Cmd.Rank))
			t.head(p.name, "power", "X", pid, tid, p.at)
			t.buf = append(t.buf, `,"dur":`...)
			t.buf = appendTS(t.buf, e.Cmd.At-p.at)
			t.close()
			return
		case "ACT", "PRE":
			// Instants on the bank track, below.
		default:
			// RD/WR render as bank-track spans via BurstScheduled; REF as a
			// refresh-track span via RefreshStart.
			return
		}
		pid := t.pid(e.Src)
		tid := t.tid(pid, fmt.Sprintf("bank r%db%d", e.Cmd.Rank, e.Cmd.Bank))
		t.head(kind, "cmd", "i", pid, tid, e.Cmd.At)
		t.buf = append(t.buf, `,"s":"t"`...)
		t.close()
	case BurstScheduled:
		pid := t.pid(e.Src)
		tid := t.tid(pid, fmt.Sprintf("bank r%db%d", e.Rank, e.Bank))
		name := "WR"
		if e.Read {
			name = "RD"
		}
		t.head(name, "burst", "X", pid, tid, e.At)
		t.buf = append(t.buf, `,"dur":`...)
		t.buf = appendTS(t.buf, e.DataEnd-e.At)
		t.buf = fmt.Appendf(t.buf, `,"args":{"row":%d}`, e.Row)
		t.close()
		if e.Pkt != nil {
			if sp, ok := t.spans[spanKey{e.Src, e.Pkt}]; ok && !sp.cmdSeen {
				sp.cmdSeen = true
				ptid := t.tid(pid, "packets")
				t.head("firstCmd", "pkt", "n", pid, ptid, e.At)
				t.buf = fmt.Appendf(t.buf, `,"id":%d`, sp.id)
				t.close()
			}
		}
	case ResponseSent:
		key := spanKey{e.Src, e.Pkt}
		sp, ok := t.spans[key]
		if !ok {
			return
		}
		delete(t.spans, key)
		pid := t.pid(e.Src)
		tid := t.tid(pid, "packets")
		t.head(sp.queue.String()+" "+addrHex(e.Pkt.Addr), "pkt", "e", pid, tid, e.At)
		t.buf = fmt.Appendf(t.buf, `,"id":%d`, sp.id)
		t.close()
	case RefreshStart:
		pid := t.pid(e.Src)
		track := fmt.Sprintf("refresh r%d", e.Rank)
		t.head("REF", "refresh", "X", pid, t.tid(pid, track), e.At)
		t.buf = append(t.buf, `,"dur":`...)
		t.buf = appendTS(t.buf, e.Until-e.At)
		t.buf = fmt.Appendf(t.buf, `,"args":{"bank":%d}`, e.Bank)
		t.close()
	case WriteDrainEnter:
		t.drains[e.Src] = pendingDrain{at: e.At, queueLen: e.QueueLen}
	case WriteDrainExit:
		d, ok := t.drains[e.Src]
		if !ok {
			return
		}
		delete(t.drains, e.Src)
		pid := t.pid(e.Src)
		t.head("writeDrain", "drain", "X", pid, t.tid(pid, "drain"), d.at)
		t.buf = append(t.buf, `,"dur":`...)
		t.buf = appendTS(t.buf, e.At-d.at)
		t.buf = fmt.Appendf(t.buf, `,"args":{"queueLen":%d,"writes":%d}`, d.queueLen, e.Writes)
		t.close()
	}
}

// addrHex formats an address the way every trace line does.
func addrHex(a mem.Addr) string { return "0x" + strconv.FormatUint(uint64(a), 16) }
