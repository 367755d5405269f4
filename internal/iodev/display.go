package iodev

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// DisplayConfig shapes an isochronous framebuffer scanner: every Period it
// must fetch LineBytes from the framebuffer or the panel underflows. This
// is the canonical latency-critical I/O client behind the paper's §II-C
// remark that controllers schedule "based on the Quality-of-Service
// requirements of the requesting CPUs and I/O devices".
type DisplayConfig struct {
	// FrameBase is the framebuffer base address.
	FrameBase mem.Addr
	// FrameBytes is the framebuffer size; the scanner wraps over it.
	FrameBytes uint64
	// LineBytes is fetched every Period.
	LineBytes uint64
	// Period is the per-line deadline (e.g. 1080 lines at 60 Hz ≈ 15.4 µs).
	Period sim.Tick
	// FetchBytes is the size of each individual read.
	FetchBytes uint64
	// MaxOutstanding bounds in-flight reads.
	MaxOutstanding int
	// RequestorID tags the display's packets (wire it to a high QoS level).
	RequestorID int
}

// Validate checks the configuration.
func (c DisplayConfig) Validate() error {
	switch {
	case c.FrameBytes == 0 || c.LineBytes == 0 || c.FetchBytes == 0:
		return fmt.Errorf("iodev: zero display geometry")
	case c.LineBytes%c.FetchBytes != 0:
		return fmt.Errorf("iodev: line %d not a multiple of fetch %d", c.LineBytes, c.FetchBytes)
	case c.FrameBytes%c.LineBytes != 0:
		return fmt.Errorf("iodev: frame %d not a multiple of line %d", c.FrameBytes, c.LineBytes)
	case c.Period <= 0:
		return fmt.Errorf("iodev: non-positive period")
	case c.MaxOutstanding <= 0:
		return fmt.Errorf("iodev: non-positive outstanding limit")
	}
	return nil
}

// Display is the deadline-driven scanner. Each period it issues one line's
// worth of reads; if the previous line has not fully returned when the next
// period begins, an underflow is recorded (and the late line is abandoned —
// real panels repeat the previous line).
type Display struct {
	cfg  DisplayConfig
	k    *sim.Kernel
	port *mem.RequestPort
	pool mem.PacketPool // fetches are drawn here and released on response

	linePos     mem.Addr
	pending     int
	toIssue     int
	blocked     *mem.Packet
	tick        *sim.Event
	running     bool
	lineStarted sim.Tick

	lines      *stats.Scalar
	underflows *stats.Scalar
	lineTime   *stats.Average
}

// NewDisplay builds a display scanner registering statistics under name.
func NewDisplay(k *sim.Kernel, cfg DisplayConfig, reg *stats.Registry, name string) (*Display, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Display{cfg: cfg, k: k, linePos: cfg.FrameBase}
	d.port = mem.NewRequestPort(name+".port", d, k)
	d.tick = sim.NewEvent(name+".line", d.startLine)
	r := reg.Child(name)
	d.lines = r.NewScalar("lines", "lines fetched")
	d.underflows = r.NewScalar("underflows", "deadline misses")
	d.lineTime = r.NewAverage("lineTime", "line fetch time (ns)")
	return d, nil
}

// Port returns the memory-side request port.
func (d *Display) Port() *mem.RequestPort { return d.port }

// Start begins scanning at the current tick.
func (d *Display) Start() {
	if d.running {
		return
	}
	d.running = true
	d.k.Schedule(d.tick, d.k.Now())
}

// Stop ends scanning after the current line.
func (d *Display) Stop() {
	d.running = false
}

// Underflows returns the number of missed line deadlines.
func (d *Display) Underflows() uint64 { return uint64(d.underflows.Value()) }

// Lines returns the number of line fetches started.
func (d *Display) Lines() uint64 { return uint64(d.lines.Value()) }

// AvgLineTimeNs returns the mean completed-line fetch time.
func (d *Display) AvgLineTimeNs() float64 { return d.lineTime.Mean() }

// startLine fires every Period: check the previous line's deadline, then
// issue the next line's reads.
func (d *Display) startLine() {
	if !d.running {
		return
	}
	if d.pending > 0 || d.toIssue > 0 || d.blocked != nil {
		// The previous line is late: underflow. Abandon its remaining
		// responses (they drain harmlessly) and start fresh.
		d.underflows.Inc()
		d.pending = 0
		d.toIssue = 0
		d.pool.Put(d.blocked) // never accepted downstream, so ours alone
		d.blocked = nil
	}
	d.lines.Inc()
	d.lineStarted = d.k.Now()
	fetches := int(d.cfg.LineBytes / d.cfg.FetchBytes)
	d.pending = fetches
	d.toIssue = fetches
	d.issueFetches()
	d.k.Schedule(d.tick, d.k.Now()+d.cfg.Period)
}

// issueFetches sends the line's remaining reads until blocked or done.
func (d *Display) issueFetches() {
	for d.toIssue > 0 && d.blocked == nil {
		pkt := d.pool.NewRead(d.linePos, d.cfg.FetchBytes, d.cfg.RequestorID, d.k.Now())
		d.linePos += mem.Addr(d.cfg.FetchBytes)
		if uint64(d.linePos-d.cfg.FrameBase) >= d.cfg.FrameBytes {
			d.linePos = d.cfg.FrameBase
		}
		d.toIssue--
		if !d.port.SendTimingReq(pkt) {
			d.blocked = pkt
			return
		}
	}
}

// RecvTimingResp implements mem.Requestor.
func (d *Display) RecvTimingResp(pkt *mem.Packet) bool {
	d.pool.Put(pkt)
	if d.pending > 0 {
		d.pending--
		if d.pending == 0 && d.blocked == nil {
			d.lineTime.Sample((d.k.Now() - d.lineStarted).Nanoseconds())
		}
	}
	return true
}

// RecvReqRetry implements mem.Requestor.
func (d *Display) RecvReqRetry() {
	if d.blocked == nil {
		return
	}
	pkt := d.blocked
	d.blocked = nil
	if !d.port.SendTimingReq(pkt) {
		d.blocked = pkt
		return
	}
	d.issueFetches()
}
