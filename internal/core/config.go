// Package core implements the paper's primary contribution: a fast,
// event-based DRAM *controller* model. Rather than modelling the DRAM cycle
// by cycle, it tracks only the state transitions of the banks and the data
// bus, and executes exclusively when something changes (a request arrives, a
// burst completes, a refresh is due). The architecture follows §II of the
// paper: split read and write queues buffered per controller, early write
// responses, write merging, read forwarding from the write queue, a write
// drain mode with high/low watermarks, FCFS and FR-FCFS scheduling, and
// open/closed page policies with adaptive variants.
package core

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/sim"
)

// SchedulingPolicy selects how the next request is picked from a queue.
type SchedulingPolicy int

// Scheduling policies (paper Table I). FCFS is included for comparison; the
// paper recommends FR-FCFS as the representative baseline.
const (
	FCFS SchedulingPolicy = iota
	FRFCFS
)

// String names the policy.
func (p SchedulingPolicy) String() string {
	switch p {
	case FCFS:
		return "FCFS"
	case FRFCFS:
		return "FRFCFS"
	}
	return fmt.Sprintf("SchedulingPolicy(%d)", int(p))
}

// MarshalText makes the policy read by name in a checkpoint's configuration
// image, and so in the mismatch message that refuses a resume.
func (p SchedulingPolicy) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// PagePolicy selects the row-buffer management policy (paper §II-C).
type PagePolicy int

// Page policies. The adaptive variants follow the paper: ClosedAdaptive
// keeps a row open if accesses to it are already queued; OpenAdaptive closes
// a row early when a bank conflict is queued and no row hits are.
const (
	Open PagePolicy = iota
	OpenAdaptive
	Closed
	ClosedAdaptive
)

// String names the policy.
func (p PagePolicy) String() string {
	switch p {
	case Open:
		return "open"
	case OpenAdaptive:
		return "open-adaptive"
	case Closed:
		return "closed"
	case ClosedAdaptive:
		return "closed-adaptive"
	}
	return fmt.Sprintf("PagePolicy(%d)", int(p))
}

// MarshalText makes the policy read by name in a checkpoint's configuration
// image, and so in the mismatch message that refuses a resume.
func (p PagePolicy) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// Config carries every controller parameter from the paper's Table I plus
// the memory spec it drives. The controller states this struct as its
// checkpoint identity (CheckpointConfig), so every field here is compared on
// resume unless it is tagged `json:"-"`, with the reason beside the tag.
type Config struct {
	// Device is the DRAM device model: organisation, timing tables,
	// bank-group topology and refresh discipline. The zero value is
	// rejected by Validate; start from a preset (dram.Presets).
	Device dram.Spec
	// Mapping is the address decoding scheme.
	Mapping dram.Mapping
	// Channels is the number of interleaved channels in the system; the
	// controller strips channel bits during decode (selection happens in
	// the crossbar).
	Channels int
	// ReadBufferSize is the read queue capacity in DRAM bursts.
	ReadBufferSize int
	// WriteBufferSize is the write queue capacity in DRAM bursts.
	WriteBufferSize int
	// WriteHighThresh is the write-queue fill fraction that forces a switch
	// to write draining.
	WriteHighThresh float64
	// WriteLowThresh is the fill fraction below which writes are not
	// drained while reads are absent (controls write data kept on chip).
	WriteLowThresh float64
	// MinWritesPerSwitch is the minimum number of writes drained before
	// switching back to reads (amortises the turnaround penalty).
	MinWritesPerSwitch int
	// Scheduling selects FCFS or FR-FCFS.
	Scheduling SchedulingPolicy
	// Page selects the row-buffer policy.
	Page PagePolicy
	// FrontendLatency is the static controller pipeline latency applied to
	// every response (paper §II-B).
	FrontendLatency sim.Tick
	// BackendLatency is the static PHY/IO latency applied to responses that
	// performed a DRAM access.
	BackendLatency sim.Tick
	// PowerDownIdle enters power-down after this much complete idleness
	// (0 disables). This is an extension beyond the paper, which lists
	// low-power states as future work; the exit pays Timing.TXP.
	PowerDownIdle sim.Tick
	// SelfRefreshIdle enters self-refresh after this much complete
	// idleness (0 disables; must exceed PowerDownIdle when both are set).
	// The exit pays Timing.TXS and background drops to IDD6.
	SelfRefreshIdle sim.Tick
	// Probes, when non-nil and non-empty, receives the controller's
	// observability events (queue admissions, DRAM commands, bursts,
	// refreshes, drain episodes — see internal/obs). The constructor
	// snapshots it via OrNil, so an empty hub costs nothing at run time.
	// Outside the checkpoint identity: probes only observe, results never
	// depend on them.
	Probes *obs.Hub `json:"-"`
	// XORBankHash spreads same-bank strides across banks by XORing the
	// bank index with low row bits (extension; gem5 offers the same hash).
	XORBankHash bool
	// Faults configures deterministic fault injection on read bursts
	// (extension: RAS modelling). The zero value injects nothing and the
	// controller behaves exactly as without the subsystem.
	Faults faults.Config
	// ECCCorrectionLatency is the extra latency a read burst pays when the
	// SEC-DED logic corrects a single-bit error (applied per faulty burst).
	ECCCorrectionLatency sim.Tick
	// FaultRetryLimit bounds the replays of a transiently failed read burst
	// (DDR4 CA-parity style retry); once exceeded the row is retired
	// (remapped to a spare) and the access completes from the spare.
	FaultRetryLimit int
}

// DefaultConfig returns the paper's Table III controller configuration for
// the given device: 20-entry queues, 70%/50% watermarks, FR-FCFS,
// open-page, RoRaBaCoCh.
func DefaultConfig(spec dram.Spec) Config {
	return Config{
		Device:             spec,
		Mapping:            dram.RoRaBaCoCh,
		Channels:           1,
		ReadBufferSize:     20,
		WriteBufferSize:    20,
		WriteHighThresh:    0.70,
		WriteLowThresh:     0.50,
		MinWritesPerSwitch: 16,
		Scheduling:         FRFCFS,
		Page:               Open,
		FrontendLatency:    10 * sim.Nanosecond,
		BackendLatency:     10 * sim.Nanosecond,
		// RAS defaults: inert until Faults enables injection. The correction
		// latency approximates an on-the-fly SEC-DED fix plus pipeline
		// replay; 4 replays before retirement follows DDR4 retry practice.
		ECCCorrectionLatency: 10 * sim.Nanosecond,
		FaultRetryLimit:      4,
	}
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if c.Device == (dram.Spec{}) {
		return fmt.Errorf("core: config has no device model")
	}
	if err := c.Device.Validate(); err != nil {
		return err
	}
	if b := c.Device.Org.BanksPerRank; b > maxBanksPerRank {
		return fmt.Errorf("core: %d banks per rank, the scheduler's bank masks hold at most %d", b, maxBanksPerRank)
	}
	if _, err := dram.NewDecoder(c.Device.Org, c.Mapping, c.Channels); err != nil {
		return err
	}
	switch {
	case c.ReadBufferSize <= 0:
		return fmt.Errorf("core: read buffer size must be positive, got %d", c.ReadBufferSize)
	case c.WriteBufferSize <= 0:
		return fmt.Errorf("core: write buffer size must be positive, got %d", c.WriteBufferSize)
	case c.WriteHighThresh <= 0 || c.WriteHighThresh > 1:
		return fmt.Errorf("core: write high threshold %v out of (0,1]", c.WriteHighThresh)
	case c.WriteLowThresh < 0 || c.WriteLowThresh > c.WriteHighThresh:
		return fmt.Errorf("core: write low threshold %v out of [0,high]", c.WriteLowThresh)
	case c.MinWritesPerSwitch <= 0:
		return fmt.Errorf("core: min writes per switch must be positive, got %d", c.MinWritesPerSwitch)
	case c.FrontendLatency < 0 || c.BackendLatency < 0:
		return fmt.Errorf("core: negative static latency")
	case c.PowerDownIdle < 0:
		return fmt.Errorf("core: negative power-down idle time")
	case c.SelfRefreshIdle < 0:
		return fmt.Errorf("core: negative self-refresh idle time")
	case c.SelfRefreshIdle > 0 && c.PowerDownIdle > 0 && c.SelfRefreshIdle <= c.PowerDownIdle:
		return fmt.Errorf("core: self-refresh idle (%s) must exceed power-down idle (%s)",
			c.SelfRefreshIdle, c.PowerDownIdle)
	case c.ECCCorrectionLatency < 0:
		return fmt.Errorf("core: negative ECC correction latency")
	case c.FaultRetryLimit < 0:
		return fmt.Errorf("core: negative fault retry limit")
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	switch c.Scheduling {
	case FCFS, FRFCFS:
	default:
		return fmt.Errorf("core: unknown scheduling policy %d", c.Scheduling)
	}
	switch c.Page {
	case Open, OpenAdaptive, Closed, ClosedAdaptive:
	default:
		return fmt.Errorf("core: unknown page policy %d", c.Page)
	}
	return nil
}

// writeHighMark returns the high watermark in queue entries.
func (c Config) writeHighMark() int {
	m := int(c.WriteHighThresh * float64(c.WriteBufferSize))
	if m < 1 {
		m = 1
	}
	if m > c.WriteBufferSize {
		m = c.WriteBufferSize
	}
	return m
}

// writeLowMark returns the low watermark in queue entries.
func (c Config) writeLowMark() int {
	return int(c.WriteLowThresh * float64(c.WriteBufferSize))
}
