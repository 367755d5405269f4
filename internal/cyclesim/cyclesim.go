// Package cyclesim is a cycle-by-cycle DRAM controller in the style of
// DRAMSim2, built as the comparison baseline the paper validates against
// (§III). Architecturally it makes DRAMSim2's choices where the paper calls
// them out as different from the event-based model:
//
//   - a unified transaction queue instead of split read/write queues;
//   - no write-drain watermarks: reads and writes to the same page are
//     interspersed in arrival order (subject to FR-FCFS row-hit preference);
//   - the DRAM state machines are evaluated every memory clock cycle, one
//     command per cycle on the shared command bus.
//
// It shares the address decoder, timing specs and packet/port layer with the
// event-based model, so the §III comparisons (bandwidth, latency, power,
// simulation speed) exercise genuinely different modelling techniques over
// identical inputs.
package cyclesim

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// PagePolicy selects the row-buffer policy of the baseline (DRAMSim2 offers
// open and closed).
type PagePolicy int

// Page policies.
const (
	OpenPage PagePolicy = iota
	ClosedPage
)

// String names the policy.
func (p PagePolicy) String() string {
	if p == OpenPage {
		return "open"
	}
	return "closed"
}

// MarshalText makes the policy read by name in a checkpoint's configuration
// image, and so in the mismatch message that refuses a resume.
func (p PagePolicy) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// Scheduling selects the per-cycle command arbitration.
type Scheduling int

// Scheduling policies.
const (
	// FCFS only ever works on the oldest transaction.
	FCFS Scheduling = iota
	// FRFCFS prefers ready row hits, then the oldest workable transaction.
	FRFCFS
)

// String names the policy.
func (s Scheduling) String() string {
	switch s {
	case FCFS:
		return "FCFS"
	case FRFCFS:
		return "FRFCFS"
	}
	return fmt.Sprintf("Scheduling(%d)", int(s))
}

// MarshalText makes the policy read by name in a checkpoint's configuration
// image, and so in the mismatch message that refuses a resume.
func (s Scheduling) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// Config parameterises the cycle-based controller.
type Config struct {
	// Device is the DRAM device model. The cycle-based baseline consumes
	// only the flat parameter tables — DRAMSim2 predates bank groups, and
	// keeping the baseline flat preserves the §III comparison.
	Device   dram.Spec
	Mapping  dram.Mapping
	Channels int
	// TransQueueSize is the unified transaction queue capacity in bursts.
	TransQueueSize int
	Page           PagePolicy
	Scheduling     Scheduling
	// Probes, when non-nil and non-empty, receives the controller's
	// observability events (see internal/obs). Outside the checkpoint
	// identity: probes only observe.
	Probes *obs.Hub `json:"-"`
}

// DefaultConfig mirrors DRAMSim2's defaults for the given device.
func DefaultConfig(spec dram.Spec) Config {
	return Config{
		Device:         spec,
		Mapping:        dram.RoRaBaCoCh,
		Channels:       1,
		TransQueueSize: 40,
		Page:           OpenPage,
		Scheduling:     FRFCFS,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Device == (dram.Spec{}) {
		return fmt.Errorf("cyclesim: config has no device model")
	}
	if err := c.Device.Validate(); err != nil {
		return err
	}
	if _, err := dram.NewDecoder(c.Device.Org, c.Mapping, c.Channels); err != nil {
		return err
	}
	if c.TransQueueSize <= 0 {
		return fmt.Errorf("cyclesim: transaction queue size must be positive")
	}
	if c.Page != OpenPage && c.Page != ClosedPage {
		return fmt.Errorf("cyclesim: unknown page policy %d", c.Page)
	}
	if c.Scheduling != FCFS && c.Scheduling != FRFCFS {
		return fmt.Errorf("cyclesim: unknown scheduling %d", c.Scheduling)
	}
	return nil
}

// txn is one burst-granular transaction in the unified queue.
type txn struct {
	isRead    bool
	coord     dram.Coord
	burstAddr mem.Addr
	parent    *parentReq
}

// parentReq ties burst transactions back to the system packet.
type parentReq struct {
	pkt       *mem.Packet
	remaining int
}

// cbank is a bank state machine evaluated every cycle: an explicit FSM with
// countdown timers (maintained each clock, DRAMSim2-style) plus the
// earliest-allowed cycles for each command type.
type cbank struct {
	openRow int64
	// openedFor attributes the first column access after an activate as a
	// row miss and subsequent ones as hits.
	openedFresh bool
	// status/countdown form the per-cycle FSM (see energy.go).
	status    bankStatus
	countdown int64
	nextAct   int64
	nextPre   int64
	nextCol   int64
}

const rowClosed = -1

// crank groups banks sharing activation-window, turnaround and refresh
// state.
type crank struct {
	banks      []cbank
	lastAct    int64
	actWindow  []int64
	nextRd     int64
	nextWr     int64
	refreshDue int64
}

// respWait is a response waiting for its ready cycle.
type respWait struct {
	pkt   *mem.Packet
	ready int64
}

// Controller is the cycle-based baseline controller.
type Controller struct {
	name string
	cfg  Config //ckpt:skip static configuration, compared by the manager (CheckpointConfig)
	k    *sim.Kernel
	dec  dram.Decoder      //ckpt:skip derived from cfg.Device by the constructor
	spec dram.Spec         //ckpt:skip the device's parameter set, cached by the constructor
	port *mem.ResponsePort //ckpt:skip wiring, rebuilt by the constructor

	tck    sim.Tick     //ckpt:skip derived from cfg.Device clock by the constructor
	cycles timingCycles //ckpt:skip timing constants derived from cfg.Device

	queue   []*txn
	resp    []respWait
	ranks   []*crank
	busFree int64

	tickEvent *sim.Event
	lastCycle int64

	retryReq  bool
	retryResp bool

	openBankCount    int
	allPreSinceCycle int64
	preAllCycles     int64

	// Per-cycle energy integration (see energy.go).
	energy EnergyBreakdown

	// hub fans observability events out to attached probes; nil when no
	// probe is configured.
	hub *obs.Hub //ckpt:skip observation fan-out, rebuilt by the constructor

	st ctrlStats
}

// timingCycles is the spec quantised to clock cycles (ceil), exactly how a
// cycle-based model consumes its datasheet.
type timingCycles struct {
	tRCD, tCL, tRP, tRAS, tBURST        int64
	tRFC, tREFI, tWTR, tRTW, tRRD, tXAW int64
	tRTP, tWR                           int64
}

func toCycles(t dram.Timing) timingCycles {
	c := func(v sim.Tick) int64 {
		return int64((v + t.TCK - 1) / t.TCK)
	}
	return timingCycles{
		tRCD: c(t.TRCD), tCL: c(t.TCL), tRP: c(t.TRP), tRAS: c(t.TRAS),
		tBURST: c(t.TBURST), tRFC: c(t.TRFC), tREFI: c(t.TREFI),
		tWTR: c(t.TWTR), tRTW: c(t.TRTW), tRRD: c(t.TRRD), tXAW: c(t.TXAW),
		tRTP: c(t.TRTP), tWR: c(t.TWR),
	}
}

// ctrlStats matches the event-based controller's statistics so comparisons
// are one-to-one.
type ctrlStats struct {
	readReqs, writeReqs       *stats.Scalar
	readBursts, writeBursts   *stats.Scalar
	readRowHits, writeRowHits *stats.Scalar
	activations, precharges   *stats.Scalar
	refreshes                 *stats.Scalar
	bytesRead, bytesWritten   *stats.Scalar
	memAccLat                 *stats.Average
	cyclesTicked              *stats.Scalar
}

// NewController builds a cycle-based controller on the kernel.
func NewController(k *sim.Kernel, cfg Config, reg *stats.Registry, name string) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	spec := cfg.Device
	dec, err := dram.NewDecoder(spec.Org, cfg.Mapping, cfg.Channels)
	if err != nil {
		return nil, err
	}
	c := &Controller{
		name:   name,
		cfg:    cfg,
		k:      k,
		dec:    dec,
		spec:   spec,
		tck:    spec.Timing.TCK,
		cycles: toCycles(spec.Timing),
		hub:    cfg.Probes.OrNil(),
	}
	c.port = mem.NewResponsePort(name+".port", c, k)
	c.ranks = make([]*crank, spec.Org.RanksPerChannel)
	for i := range c.ranks {
		r := &crank{banks: make([]cbank, spec.Org.BanksPerRank), lastAct: -1 << 40}
		for b := range r.banks {
			r.banks[b].openRow = rowClosed
		}
		r.refreshDue = c.cycles.tREFI
		c.ranks[i] = r
	}
	c.tickEvent = sim.NewEvent(name+".tick", c.tick)
	c.lastCycle = -1
	r := reg.Child(name)
	c.st = ctrlStats{
		readReqs:     r.NewScalar("readReqs", "read requests accepted"),
		writeReqs:    r.NewScalar("writeReqs", "write requests accepted"),
		readBursts:   r.NewScalar("readBursts", "read bursts"),
		writeBursts:  r.NewScalar("writeBursts", "write bursts"),
		readRowHits:  r.NewScalar("readRowHits", "read bursts hitting an open row"),
		writeRowHits: r.NewScalar("writeRowHits", "write bursts hitting an open row"),
		activations:  r.NewScalar("activations", "row activate commands"),
		precharges:   r.NewScalar("precharges", "precharge commands"),
		refreshes:    r.NewScalar("refreshes", "refresh commands"),
		bytesRead:    r.NewScalar("bytesRead", "bytes read from DRAM"),
		bytesWritten: r.NewScalar("bytesWritten", "bytes written to DRAM"),
		memAccLat:    r.NewAverage("memAccLat", "read memory access latency (ns)"),
		cyclesTicked: r.NewScalar("cyclesTicked", "memory cycles simulated"),
	}
	// First wake-up: the refresh deadline.
	k.Schedule(c.tickEvent, sim.Tick(c.ranks[0].refreshDue)*c.tck)
	return c, nil
}

// Port returns the system-facing response port.
func (c *Controller) Port() *mem.ResponsePort { return c.port }

// Name returns the instance name.
func (c *Controller) Name() string { return c.name }

// Quiescent reports whether no work is queued or in flight.
func (c *Controller) Quiescent() bool { return len(c.queue) == 0 && len(c.resp) == 0 }

// cycleNow converts current time to a cycle number (requests can arrive
// between clock edges; they are considered at the next edge).
func (c *Controller) cycleNow() int64 {
	return int64((c.k.Now() + c.tck - 1) / c.tck)
}

// RecvTimingReq implements mem.Responder.
func (c *Controller) RecvTimingReq(pkt *mem.Packet) bool {
	count := c.burstCount(pkt)
	isRead := pkt.Cmd == mem.ReadReq
	queue := obs.QueueWrite
	if isRead {
		queue = obs.QueueRead
	}
	if len(c.queue)+count > c.cfg.TransQueueSize {
		c.retryReq = true
		if c.hub != nil {
			c.hub.Emit(obs.QueueRefuse{Src: c.name, At: c.k.Now(), Queue: queue, Depth: len(c.queue)})
		}
		return false
	}
	if isRead {
		c.st.readReqs.Inc()
	} else {
		c.st.writeReqs.Inc()
	}
	if c.hub != nil {
		c.hub.Emit(obs.PacketEnqueued{Src: c.name, At: c.k.Now(), Pkt: pkt, Queue: queue, Bursts: count})
		c.hub.Emit(obs.QueueAdmit{Src: c.name, At: c.k.Now(), Queue: queue, Depth: len(c.queue)})
	}
	parent := &parentReq{pkt: pkt, remaining: count}
	burst := c.spec.Org.BurstBytes()
	addr := pkt.Addr.AlignDown(burst)
	for i := 0; i < count; i++ {
		c.queue = append(c.queue, &txn{
			isRead:    isRead,
			coord:     c.dec.Decode(addr),
			burstAddr: addr,
			parent:    parent,
		})
		addr += mem.Addr(burst)
	}
	if !isRead {
		// Writes acknowledge immediately in both models (§III-C2). The
		// original packet carries the acknowledgement; the queued burst
		// transactions only need the decoded coordinates.
		c.resp = insertResp(c.resp, respWait{pkt: pkt, ready: c.cycleNow()})
	}
	c.wake()
	return true
}

// RecvRespRetry implements mem.Responder.
func (c *Controller) RecvRespRetry() {
	c.retryResp = false
	c.drainResponses(c.cycleNow())
	c.wake()
}

func (c *Controller) burstCount(pkt *mem.Packet) int {
	burst := c.spec.Org.BurstBytes()
	first := pkt.Addr.AlignDown(burst)
	last := (pkt.Addr + mem.Addr(pkt.Size) - 1).AlignDown(burst)
	return int((last-first)/mem.Addr(burst)) + 1
}

func insertResp(q []respWait, r respWait) []respWait {
	i := len(q)
	for i > 0 && q[i-1].ready > r.ready {
		i--
	}
	q = append(q, respWait{})
	copy(q[i+1:], q[i:])
	q[i] = r
	return q
}

// wake ensures the clock is ticking.
func (c *Controller) wake() {
	if c.tickEvent.Scheduled() {
		next := sim.Tick(c.cycleNow()) * c.tck
		if c.tickEvent.When() > next {
			c.k.Reschedule(c.tickEvent, next)
		}
		return
	}
	c.k.Schedule(c.tickEvent, sim.Tick(c.cycleNow())*c.tck)
}
