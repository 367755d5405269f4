// Package iodev models I/O devices as memory requestors. The paper's whole
// premise is that the DRAM controller sits between memory and "the CPUs,
// GPUs and I/O devices in the system" (§II-E); this package provides the
// I/O side: a block-transfer DMA engine and a deadline-driven isochronous
// device (a display controller), the classic latency-critical client that
// motivates QoS-aware memory scheduling.
package iodev

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// DMAConfig shapes a block-transfer engine.
type DMAConfig struct {
	// LineBytes is the size of each individual read/write (typically the
	// cache-line or burst size).
	LineBytes uint64
	// MaxOutstanding bounds in-flight requests.
	MaxOutstanding int
	// RequestorID tags the engine's packets.
	RequestorID int
}

// Validate checks the configuration.
func (c DMAConfig) Validate() error {
	if c.LineBytes == 0 {
		return fmt.Errorf("iodev: zero line size")
	}
	if c.MaxOutstanding <= 0 {
		return fmt.Errorf("iodev: non-positive outstanding limit")
	}
	return nil
}

// DMA is a block-transfer engine: Transfer moves a byte range as a stream
// of line-sized requests and invokes a callback when the last response
// arrives.
type DMA struct {
	cfg  DMAConfig
	k    *sim.Kernel
	port *mem.RequestPort
	pool mem.PacketPool // requests are drawn here and released on response

	cur *dmaJob

	transfers  *stats.Scalar
	bytesMoved *stats.Scalar
	xferTime   *stats.Average
}

type dmaJob struct {
	next, end   mem.Addr
	isRead      bool
	outstanding int
	started     sim.Tick
	onDone      func()
	blocked     *mem.Packet
}

// NewDMA builds a DMA engine registering statistics under name.
func NewDMA(k *sim.Kernel, cfg DMAConfig, reg *stats.Registry, name string) (*DMA, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &DMA{cfg: cfg, k: k}
	d.port = mem.NewRequestPort(name+".port", d, k)
	r := reg.Child(name)
	d.transfers = r.NewScalar("transfers", "block transfers completed")
	d.bytesMoved = r.NewScalar("bytesMoved", "bytes transferred")
	d.xferTime = r.NewAverage("transferTime", "block transfer time (ns)")
	return d, nil
}

// Port returns the memory-side request port.
func (d *DMA) Port() *mem.RequestPort { return d.port }

// Busy reports whether a transfer is in flight.
func (d *DMA) Busy() bool { return d.cur != nil }

// Transfer starts moving [addr, addr+bytes); read pulls from memory, write
// pushes to it. onDone (may be nil) fires when the last response arrives.
// Starting a transfer while one is in flight panics — chain via onDone.
func (d *DMA) Transfer(addr mem.Addr, bytes uint64, isRead bool, onDone func()) {
	if d.cur != nil {
		panic("iodev: DMA transfer already in flight")
	}
	if bytes == 0 {
		if onDone != nil {
			onDone()
		}
		return
	}
	d.cur = &dmaJob{
		next: addr, end: addr + mem.Addr(bytes),
		isRead: isRead, started: d.k.Now(), onDone: onDone,
	}
	d.pump()
}

// pump issues requests while the window allows.
func (d *DMA) pump() {
	j := d.cur
	if j == nil {
		return
	}
	for j.blocked == nil && j.outstanding < d.cfg.MaxOutstanding && j.next < j.end {
		size := uint64(j.end - j.next)
		if size > d.cfg.LineBytes {
			size = d.cfg.LineBytes
		}
		var pkt *mem.Packet
		if j.isRead {
			pkt = d.pool.NewRead(j.next, size, d.cfg.RequestorID, d.k.Now())
		} else {
			pkt = d.pool.NewWrite(j.next, size, d.cfg.RequestorID, d.k.Now())
		}
		j.next += mem.Addr(size)
		j.outstanding++
		d.bytesMoved.Add(float64(size))
		if !d.port.SendTimingReq(pkt) {
			j.blocked = pkt
			return
		}
	}
}

// RecvTimingResp implements mem.Requestor.
func (d *DMA) RecvTimingResp(pkt *mem.Packet) bool {
	d.pool.Put(pkt)
	j := d.cur
	if j == nil {
		return true
	}
	j.outstanding--
	if j.next >= j.end && j.outstanding == 0 && j.blocked == nil {
		d.transfers.Inc()
		d.xferTime.Sample((d.k.Now() - j.started).Nanoseconds())
		d.cur = nil
		if j.onDone != nil {
			j.onDone()
		}
		return true
	}
	d.pump()
	return true
}

// RecvReqRetry implements mem.Requestor.
func (d *DMA) RecvReqRetry() {
	j := d.cur
	if j == nil || j.blocked == nil {
		return
	}
	pkt := j.blocked
	j.blocked = nil
	if !d.port.SendTimingReq(pkt) {
		j.blocked = pkt
		return
	}
	d.pump()
}
