package core

import (
	"fmt"
	"math/bits"

	"repro/internal/dram"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
)

// busState tracks the current transfer direction of the shared data bus.
type busState int

const (
	busRead busState = iota
	busWrite
)

// Controller is the event-based DRAM controller model. It owns one memory
// channel: a set of ranks and banks behind shared data/address busses, with
// per-controller split read/write queues (paper §II-A). It attaches to the
// rest of the system through a response port with retry-based flow control.
//
// The model executes only on events: request arrival, the "next request"
// scheduling event, response dispatch, and per-rank refresh. DRAM behaviour
// is captured purely as bank/bus state transitions with the timing subset of
// §II-B; no per-cycle work happens anywhere.
type Controller struct {
	name string
	// replayName is c.name+".replay", precomputed so arming a replay does not
	// concatenate strings on the scheduling path.
	replayName string //ckpt:skip derived from name at construction
	cfg        Config //ckpt:skip static configuration, compared by the manager (CheckpointConfig)
	k          *sim.Kernel
	dec        dram.Decoder      //ckpt:skip derived from cfg.Spec by the constructor
	port       *mem.ResponsePort //ckpt:skip wiring, rebuilt by the constructor
	// tim and org copy the device's timing and organisation out of cfg: they
	// are read on every scheduling decision.
	tim dram.Timing       //ckpt:skip cached copy of cfg.Device.Timing
	org dram.Organization //ckpt:skip cached copy of cfg.Device.Org
	// topo and the timing answers below cache the device's bank-group and
	// refresh interface answers; grouped hoists topo.Grouped() for the hot
	// paths, where flat devices (DDR3) must pay nothing for the machinery.
	topo    dram.Topology    //ckpt:skip derived from cfg.Device by the constructor
	grouped bool             //ckpt:skip derived from topo by the constructor
	trrdL   sim.Tick         //ckpt:skip cached cfg.Device.ActToAct(sameGroup)
	tccdL   sim.Tick         //ckpt:skip cached cfg.Device.ColToCol(sameGroup)
	tccdS   sim.Tick         //ckpt:skip cached cfg.Device.ColToCol(cross-group)
	tRPab   sim.Tick         //ckpt:skip cached cfg.Device.PrechargeAll()
	refSpec dram.RefreshSpec //ckpt:skip cached cfg.Device.RefreshMode()
	// The write-drain watermarks in queue entries and the burst size: read on
	// every scheduling decision, constant per controller.
	writeHighMark int    //ckpt:skip derived from cfg by the constructor
	writeLowMark  int    //ckpt:skip derived from cfg by the constructor
	burstBytes    uint64 //ckpt:skip cached cfg.Device.Org.BurstBytes()

	readQueue  burstQueue
	writeQueue burstQueue
	// The response queue is two lanes, each in sendAt order, merged by
	// nextResp. respFixed holds the responses due FrontendLatency after their
	// request arrived (write acknowledgements, fully forwarded reads): queued
	// at now+FrontendLatency with now never decreasing, it is a FIFO. respDRAM
	// holds the read responses that waited for DRAM data.
	respFixed mem.PacketQueue
	respDRAM  respRing
	// readEntries counts occupied read-buffer slots: queued bursts plus
	// bursts serviced but not yet responded.
	readEntries int

	state          busState
	writesThisTime int
	readsThisTime  int
	draining       bool

	ranks        []*rank
	busBusyUntil sim.Tick

	retryReq  bool
	retryResp bool

	nextReqEvent  *sim.Event
	respondEvent  *sim.Event
	refreshEvents []*sim.Event

	refreshDue []sim.Tick

	// All-banks-precharged accounting for the power model.
	openBankCount      int
	allPrechargedSince sim.Tick
	prechargeAllTime   sim.Tick
	startTick          sim.Tick

	// Per-rank CKE state machine (extension, see cke.go): one power-down and
	// one self-refresh idle timer per rank; the CKE state itself lives in the
	// rank structs. lastWakeAt is the most recent CKE-raise tick across all
	// ranks, staggering simultaneous wake-ups by a clock each.
	pdEvents   []*sim.Event
	srEvents   []*sim.Event
	lastWakeAt sim.Tick

	// Fault-injection / ECC state (extension, see ecc.go). inj is nil when
	// fault modelling is disabled — the common case pays one nil check per
	// read burst and nothing else.
	inj *faults.Injector

	// pendingReplays tracks read bursts parked in a fault-replay backoff:
	// each sits in no queue (but holds its read-buffer entry) until a pooled
	// one-shot event re-queues it. The records make those in-flight replays
	// visible to the checkpoint machinery (see checkpoint.go).
	pendingReplays []*replayRecord

	// hub fans observability events out to attached probes; nil when no
	// probe is configured, so the disabled path is one pointer comparison.
	hub *obs.Hub //ckpt:skip observation fan-out, rebuilt by the constructor

	// dpFree and trFree recycle burst descriptors and chopped-read
	// transactions: every request allocates one descriptor per burst, which
	// makes them the controller's dominant steady-state allocation. Freed at
	// burst completion, reused at the next enqueue — plain LIFO lists, so
	// reuse order is a pure function of simulation state and parallel runs
	// stay deterministic. Live descriptors are serialized individually by
	// the checkpoint machinery; the free lists are disposable cache.
	dpFree []*dramPacket  //ckpt:skip allocation cache, never holds live state
	trFree []*transaction //ckpt:skip allocation cache, never holds live state

	st ctrlStats
}

// ctrlStats bundles the controller's registered statistics.
type ctrlStats struct {
	// all lists every statistic below in registration order, so a window
	// reset cannot miss one.
	all []stats.Stat

	readReqs, writeReqs         *stats.Scalar
	readBursts, writeBursts     *stats.Scalar
	servicedByWrQ               *stats.Scalar
	mergedWrBursts              *stats.Scalar
	readRowHits, writeRowHits   *stats.Scalar
	activations                 *stats.Scalar
	precharges                  *stats.Scalar
	refreshes                   *stats.Scalar
	bytesRead, bytesWritten     *stats.Scalar
	rdQLat, wrQLat              *stats.Average
	memAccLat                   *stats.Average
	bytesPerActivate            *stats.Average
	readQueueLen, writeQueueLen *stats.Average
	rdWrTurnarounds             *stats.Scalar
	powerDowns                  *stats.Scalar
	selfRefreshes               *stats.Scalar
	// RAS statistics (see ecc.go).
	correctedErrors   *stats.Scalar
	uncorrectedErrors *stats.Scalar
	retriedBursts     *stats.Scalar
	retiredRows       *stats.Scalar
	scrubWrites       *stats.Scalar
	droppedScrubs     *stats.Scalar
}

// NewController validates the configuration and builds a controller wired to
// the given kernel, registering statistics under name in reg.
func NewController(k *sim.Kernel, cfg Config, reg *stats.Registry, name string) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	spec := cfg.Device
	dec, err := dram.NewDecoder(spec.Org, cfg.Mapping, cfg.Channels)
	if err != nil {
		return nil, err
	}
	dec.XORBankRow = cfg.XORBankHash
	c := &Controller{
		name:          name,
		replayName:    name + ".replay",
		cfg:           cfg,
		k:             k,
		dec:           dec,
		hub:           cfg.Probes.OrNil(),
		startTick:     k.Now(),
		tim:           spec.Timing,
		org:           spec.Org,
		topo:          cfg.Device.Topology(),
		trrdL:         cfg.Device.ActToAct(true),
		tccdL:         cfg.Device.ColToCol(true),
		tccdS:         cfg.Device.ColToCol(false),
		tRPab:         cfg.Device.PrechargeAll(),
		refSpec:       cfg.Device.RefreshMode(),
		writeHighMark: cfg.writeHighMark(),
		writeLowMark:  cfg.writeLowMark(),
		burstBytes:    spec.Org.BurstBytes(),
	}
	c.grouped = c.topo.Grouped()
	if cfg.Faults.Enabled() {
		inj, err := faults.NewInjector(cfg.Faults)
		if err != nil {
			return nil, err
		}
		c.inj = inj
	}
	c.port = mem.NewResponsePort(name+".port", c, k)
	c.ranks = make([]*rank, spec.Org.RanksPerChannel)
	c.refreshDue = make([]sim.Tick, len(c.ranks))
	for i := range c.ranks {
		c.ranks[i] = newRank(spec.Org, c.topo)
	}
	c.resetQueues()
	c.respDRAM = newRespRing(cfg.ReadBufferSize)
	c.allPrechargedSince = k.Now()
	c.nextReqEvent = sim.NewEvent(name+".nextReq", c.processNextReqEvent)
	c.respondEvent = sim.NewEvent(name+".respond", c.processRespondEvent)
	c.lastWakeAt = neverTick
	c.pdEvents = make([]*sim.Event, len(c.ranks))
	c.srEvents = make([]*sim.Event, len(c.ranks))
	for i := range c.ranks {
		i := i
		c.pdEvents[i] = sim.NewEvent(fmt.Sprintf("%s.powerDown%d", name, i), func() { c.processRankPowerDown(i) })
		c.srEvents[i] = sim.NewEvent(fmt.Sprintf("%s.selfRefresh%d", name, i), func() { c.processRankSelfRefresh(i) })
		if cfg.PowerDownIdle > 0 {
			k.Schedule(c.pdEvents[i], k.Now()+cfg.PowerDownIdle)
		}
		if cfg.SelfRefreshIdle > 0 {
			k.Schedule(c.srEvents[i], k.Now()+cfg.SelfRefreshIdle)
		}
	}
	for i := range c.ranks {
		i := i
		// Stagger rank refreshes across the interval so multi-rank systems
		// never stall every rank at once.
		interval := c.refreshInterval()
		due := k.Now() + interval + interval*sim.Tick(i)/sim.Tick(len(c.ranks))
		c.refreshDue[i] = due
		ev := sim.NewEvent(fmt.Sprintf("%s.refresh%d", name, i), func() { c.processRefresh(i) })
		c.refreshEvents = append(c.refreshEvents, ev)
		k.Schedule(ev, due)
	}
	r := reg.Child(name)
	all := make([]stats.Stat, 0, 28)
	scalar := func(name, desc string) *stats.Scalar {
		s := r.NewScalar(name, desc)
		all = append(all, s)
		return s
	}
	average := func(name, desc string) *stats.Average {
		a := r.NewAverage(name, desc)
		all = append(all, a)
		return a
	}
	c.st = ctrlStats{
		readReqs:         scalar("readReqs", "read requests accepted"),
		writeReqs:        scalar("writeReqs", "write requests accepted"),
		readBursts:       scalar("readBursts", "read bursts (after chopping)"),
		writeBursts:      scalar("writeBursts", "write bursts entering the write queue"),
		servicedByWrQ:    scalar("servicedByWrQ", "read bursts forwarded from the write queue"),
		mergedWrBursts:   scalar("mergedWrBursts", "write bursts merged into existing entries"),
		readRowHits:      scalar("readRowHits", "read bursts hitting an open row"),
		writeRowHits:     scalar("writeRowHits", "write bursts hitting an open row"),
		activations:      scalar("activations", "row activate commands"),
		precharges:       scalar("precharges", "precharge commands"),
		refreshes:        scalar("refreshes", "refresh commands"),
		bytesRead:        scalar("bytesRead", "bytes read from DRAM"),
		bytesWritten:     scalar("bytesWritten", "bytes written to DRAM"),
		rdQLat:           average("rdQLat", "read burst queue+service latency (ns)"),
		wrQLat:           average("wrQLat", "write burst queue latency (ns)"),
		memAccLat:        average("memAccLat", "read memory access latency incl. static (ns)"),
		bytesPerActivate: average("bytesPerActivate", "bytes accessed per row activation"),
		readQueueLen:     average("readQueueLen", "read queue length at arrival"),
		writeQueueLen:    average("writeQueueLen", "write queue length at arrival"),
		rdWrTurnarounds:  scalar("rdWrTurnarounds", "bus direction switches"),
		powerDowns:       scalar("powerDowns", "power-down entries"),
		selfRefreshes:    scalar("selfRefreshes", "self-refresh entries"),

		correctedErrors:   scalar("correctedErrors", "read bursts with an ECC-corrected single-bit error"),
		uncorrectedErrors: scalar("uncorrectedErrors", "read bursts with an uncorrectable error (response poisoned)"),
		retriedBursts:     scalar("retriedBursts", "read burst replays after transient faults"),
		retiredRows:       scalar("retiredRows", "rows retired (remapped) after exhausting retries"),
		scrubWrites:       scalar("scrubWrites", "demand-scrub writebacks queued after corrections"),
		droppedScrubs:     scalar("droppedScrubs", "scrub writebacks dropped on a full write queue"),
	}
	c.st.all = all
	return c, nil
}

// resetQueues (re)builds both burst queues empty. The write queue's address
// table gets at least four slots per buffer entry, so under random traffic a
// lookup of an address that is not queued nearly always finds its slot empty.
func (c *Controller) resetQueues() {
	slots := 1 << bits.Len(uint(4*c.cfg.WriteBufferSize-1))
	c.readQueue = newBurstQueue(true, c.ranks, c.org.BanksPerRank, c.topo.Groups, 0, c.burstBytes)
	c.writeQueue = newBurstQueue(false, c.ranks, c.org.BanksPerRank, c.topo.Groups, slots, c.burstBytes)
}

// Port returns the system-facing response port.
func (c *Controller) Port() *mem.ResponsePort { return c.port }

// Name returns the controller instance name.
func (c *Controller) Name() string { return c.name }

// Config returns the controller configuration.
func (c *Controller) Config() Config { return c.cfg }

// Quiescent reports whether no work is queued or in flight. Occupied
// read-buffer entries are counted too: a burst parked in a fault-replay
// backoff sits in no queue but still owes a response.
func (c *Controller) Quiescent() bool {
	return c.readQueue.n == 0 && c.writeQueue.n == 0 &&
		c.respFixed.Len() == 0 && c.respDRAM.n == 0 && c.readEntries == 0
}

// Drain puts the controller in drain mode: buffered writes are written back
// regardless of the low watermark. Used at the end of closed experiments.
func (c *Controller) Drain() {
	c.draining = true
	c.kickScheduler()
}

// RecvTimingReq implements mem.Responder. Rank wake-up happens per burst at
// enqueue time (see wakeRank): only the ranks the request actually touches
// leave their low-power states.
//
//hot:path request entry; gated by TestControllerSteadyStateZeroAlloc
func (c *Controller) RecvTimingReq(pkt *mem.Packet) bool {
	switch pkt.Cmd {
	case mem.ReadReq:
		return c.addToReadQueue(pkt)
	case mem.WriteReq:
		return c.addToWriteQueue(pkt)
	default:
		panic(fmt.Sprintf("core: %s received %s", c.name, pkt.Cmd))
	}
}

// RecvRespRetry implements mem.Responder: the requestor can take responses
// again.
func (c *Controller) RecvRespRetry() {
	if !c.retryResp {
		return
	}
	c.retryResp = false
	c.processRespondEvent()
}

// pieceCount returns how many burst-aligned pieces a request spans.
func (c *Controller) pieceCount(pkt *mem.Packet) int {
	if pkt.Size == 0 {
		return 0
	}
	first := pkt.Addr.AlignDown(c.burstBytes)
	last := (pkt.Addr + mem.Addr(pkt.Size-1)).AlignDown(c.burstBytes)
	return int(uint64(last-first)>>bits.TrailingZeros64(c.burstBytes)) + 1
}

// piece returns the i-th burst-aligned piece of a request: its burst address
// and the byte range [lo, lo+size) it covers.
func (c *Controller) piece(pkt *mem.Packet, i int) (burstAddr, lo mem.Addr, size uint64) {
	burstAddr = pkt.Addr.AlignDown(c.burstBytes) + mem.Addr(uint64(i)*c.burstBytes)
	lo = burstAddr
	if i == 0 {
		lo = pkt.Addr
	}
	size = min(uint64(burstAddr)+c.burstBytes-uint64(lo), uint64(pkt.Addr)+pkt.Size-uint64(lo))
	return burstAddr, lo, size
}

func (c *Controller) addToReadQueue(pkt *mem.Packet) bool {
	now := c.k.Now()
	// First pass: how many pieces need a DRAM access rather than forwarding
	// from the write queue? An empty write queue forwards nothing. The
	// verdicts of pieces 0-63 are kept for the second pass, which asks again
	// for the rest.
	n := c.pieceCount(pkt)
	needed := n
	var forwarded uint64
	if c.writeQueue.n > 0 {
		for i := 0; i < n; i++ {
			if c.canForwardFromWriteQueue(c.piece(pkt, i)) {
				needed--
				forwarded |= 1 << i // nothing from piece 64 on
			}
		}
	}
	if c.readEntries+needed > c.cfg.ReadBufferSize {
		c.retryReq = true
		if c.hub != nil {
			c.hub.Emit(obs.QueueRefuse{Src: c.name, At: now, Queue: obs.QueueRead, Depth: c.readQueue.n})
		}
		return false
	}
	c.st.readReqs.Inc()
	c.st.readQueueLen.Sample(float64(c.readQueue.n))
	if c.hub != nil {
		c.hub.Emit(obs.PacketEnqueued{Src: c.name, At: now, Pkt: pkt, Queue: obs.QueueRead, Bursts: needed})
		c.hub.Emit(obs.QueueAdmit{Src: c.name, At: now, Queue: obs.QueueRead, Depth: c.readQueue.n})
	}
	tr := c.newTxn()
	tr.pkt, tr.remaining, tr.entries = pkt, needed, needed
	for i := 0; i < n; i++ {
		c.st.readBursts.Inc()
		burstAddr, lo, size := c.piece(pkt, i)
		if forwarded&(1<<i) != 0 || i >= 64 && c.canForwardFromWriteQueue(burstAddr, lo, size) {
			c.st.servicedByWrQ.Inc()
			continue
		}
		dp := c.newBurst(c.dec.Decode(burstAddr), burstAddr, lo, size)
		dp.isRead, dp.parent = true, tr
		c.wakeRank(dp.coord.Rank)
		c.readQueue.push(dp)
	}
	c.readEntries += needed
	if needed == 0 {
		// Entirely satisfied by the write queue: only the static frontend
		// latency applies. No burst references the transaction.
		c.queueFixedResponse(pkt)
		c.freeTxn(tr)
	} else {
		c.kickScheduler()
	}
	return true
}

func (c *Controller) addToWriteQueue(pkt *mem.Packet) bool {
	now := c.k.Now()
	// Conservative capacity check before any mutation (merging could make
	// the true need smaller, but a refused packet must leave no trace).
	n := c.pieceCount(pkt)
	if c.writeQueue.n+n > c.cfg.WriteBufferSize {
		c.retryReq = true
		if c.hub != nil {
			c.hub.Emit(obs.QueueRefuse{Src: c.name, At: now, Queue: obs.QueueWrite, Depth: c.writeQueue.n})
		}
		return false
	}
	c.st.writeReqs.Inc()
	c.st.writeQueueLen.Sample(float64(c.writeQueue.n))
	if c.hub != nil {
		c.hub.Emit(obs.PacketEnqueued{Src: c.name, At: now, Pkt: pkt, Queue: obs.QueueWrite, Bursts: n})
		c.hub.Emit(obs.QueueAdmit{Src: c.name, At: now, Queue: obs.QueueWrite, Depth: c.writeQueue.n})
	}
	for i := 0; i < n; i++ {
		burstAddr, lo, size := c.piece(pkt, i)
		if c.tryMergeWrite(burstAddr, lo, size) {
			c.st.mergedWrBursts.Inc()
			continue
		}
		dp := c.newBurst(c.dec.Decode(burstAddr), burstAddr, lo, size)
		c.wakeRank(dp.coord.Rank)
		c.writeQueue.push(dp)
		c.st.writeBursts.Inc()
	}
	// Early write response (§II-A): respond as soon as the request is
	// buffered; the DRAM access happens later without system-visible cost.
	c.queueFixedResponse(pkt)
	c.kickScheduler()
	return true
}

// writesInBankOf returns the head of the write queue's list for burstAddr's
// bank. Bursts of one address decode to one bank and bank lists are in arrival
// order, so once the address table cannot rule burstAddr out, walking bankNext
// from here and matching burstAddr visits exactly the entries a walk of the
// whole queue would, in the same order. Its two callers ask mayHold themselves
// first: the decode makes this too big to inline, and "not queued" is the
// answer nearly every request gets.
func (c *Controller) writesInBankOf(burstAddr mem.Addr) *dramPacket {
	co := c.dec.Decode(burstAddr)
	return c.writeQueue.rankBanks(co.Rank)[co.Bank].head
}

// canForwardFromWriteQueue reports whether a queued write fully covers the
// read byte range [lo, lo+size).
func (c *Controller) canForwardFromWriteQueue(burstAddr, lo mem.Addr, size uint64) bool {
	if !c.writeQueue.mayHold(burstAddr) {
		return false
	}
	for w := c.writesInBankOf(burstAddr); w != nil; w = w.bankNext {
		if w.burstAddr == burstAddr && w.addr <= lo && lo+mem.Addr(size) <= w.addr+mem.Addr(w.size) {
			return true
		}
	}
	return false
}

// tryMergeWrite merges a new write piece into an existing same-burst entry
// when their byte ranges overlap or touch; it reports success.
func (c *Controller) tryMergeWrite(burstAddr, lo mem.Addr, size uint64) bool {
	if !c.writeQueue.mayHold(burstAddr) {
		return false
	}
	hi := lo + mem.Addr(size)
	for w := c.writesInBankOf(burstAddr); w != nil; w = w.bankNext {
		if w.burstAddr != burstAddr {
			continue
		}
		wHi := w.addr + mem.Addr(w.size)
		if lo <= wHi && w.addr <= hi {
			if lo < w.addr {
				w.addr = lo
			}
			if hi > wHi {
				wHi = hi
			}
			w.size = uint64(wHi - w.addr)
			return true
		}
	}
	return false
}

// queueFixedResponse queues pkt's response to leave FrontendLatency from now,
// releasing no read-buffer entry.
func (c *Controller) queueFixedResponse(pkt *mem.Packet) {
	sendAt := c.k.Now() + c.cfg.FrontendLatency
	c.respFixed.Push(pkt, sendAt)
	c.armRespond(sendAt)
}

// queueReadResponse queues the response to a read whose last burst's data
// came from DRAM, to leave at sendAt and release that many read-buffer
// entries.
func (c *Controller) queueReadResponse(pkt *mem.Packet, sendAt sim.Tick, release int) {
	c.respDRAM.insert(respEntry{pkt: pkt, sendAt: sendAt, release: release})
	c.armRespond(sendAt)
}

// armRespond makes the respond event due at the first queued response after
// one due at sendAt was queued: scheduled if idle (unless the port owes a
// retry), brought forward if the new response leaves sooner. A scheduled
// event is never due after the first queued response (it is armed at that
// response, and only an insert moves the first one, earlier), so only the
// new response can bring it forward.
func (c *Controller) armRespond(sendAt sim.Tick) {
	if c.respondEvent.Scheduled() {
		if c.respondEvent.When() > sendAt {
			c.k.Reschedule(c.respondEvent, sendAt)
		}
	} else if !c.retryResp {
		first := sendAt
		if c.respFixed.Len()+c.respDRAM.n > 1 {
			e, _, _ := c.nextResp(0, 0)
			first = e.sendAt
		}
		c.k.Schedule(c.respondEvent, first)
	}
}

// nextResp returns the response that leaves once the first sentFixed and
// sentDRAM entries of the two lanes have, and whether it is the DRAM lane's:
// the earlier of the two lanes' next entries, the DRAM lane's on a tie. That
// is the order of one queue sorted stably by sendAt, since the data of a DRAM
// response due at T ended after the response was queued, so before
// T-FrontendLatency, while a fixed-latency response due at T was queued at
// exactly T-FrontendLatency.
func (c *Controller) nextResp(sentFixed, sentDRAM int) (e respEntry, fromDRAM, ok bool) {
	if sentDRAM < c.respDRAM.n {
		e, fromDRAM, ok = *c.respDRAM.at(sentDRAM), true, true
	}
	if sentFixed < c.respFixed.Len() {
		if pkt, at := c.respFixed.At(sentFixed); !ok || at < e.sendAt {
			e, fromDRAM, ok = respEntry{pkt: pkt, sendAt: at}, false, true
		}
	}
	return e, fromDRAM, ok
}

func (c *Controller) processRespondEvent() {
	now := c.k.Now()
	for {
		e, fromDRAM, ok := c.nextResp(0, 0)
		if !ok {
			break
		}
		if e.sendAt > now {
			if !c.respondEvent.Scheduled() {
				c.k.Schedule(c.respondEvent, e.sendAt)
			}
			break
		}
		if e.pkt.Cmd.IsRequest() {
			e.pkt.MakeResponse()
		}
		if !c.port.SendTimingResp(e.pkt) {
			c.retryResp = true
			return
		}
		if c.hub != nil {
			c.hub.Emit(obs.ResponseSent{Src: c.name, At: now, Pkt: e.pkt})
		}
		if fromDRAM {
			c.respDRAM.pop()
		} else {
			c.respFixed.Pop()
		}
		if e.release > 0 {
			c.readEntries -= e.release
			c.maybeSendReqRetry()
		}
	}
	c.scheduleLowPowerChecks()
}

// maybeSendReqRetry wakes a requestor blocked on a full queue.
func (c *Controller) maybeSendReqRetry() {
	if c.retryReq {
		c.retryReq = false
		c.port.SendReqRetry()
	}
}

// kickScheduler makes sure the next-request event is pending.
func (c *Controller) kickScheduler() {
	if !c.nextReqEvent.Scheduled() {
		c.k.Schedule(c.nextReqEvent, c.k.Now())
	}
}

// processNextReqEvent is the scheduling core (paper §II-C): it picks the bus
// direction with the write-drain watermarks, selects a request with
// FCFS/FR-FCFS, performs the access, and re-arms itself just early enough
// that the next decision happens close to issue time.
//
//hot:path scheduling core; fires once per serviced burst
func (c *Controller) processNextReqEvent() {
	switch c.state {
	case busRead:
		switchToWrites := false
		if c.readQueue.n == 0 {
			// No reads: drain writes once past the low watermark (or when
			// draining for the end of a run).
			if c.writeQueue.n == 0 ||
				(c.writeQueue.n <= c.writeLowMark && !c.draining) {
				c.scheduleLowPowerChecks()
				return // idle until a new request arrives
			}
			switchToWrites = true
		} else {
			dp := c.chooseNext(&c.readQueue)
			c.readQueue.remove(dp)
			c.doDRAMAccess(dp)
			c.readsThisTime++
			// The ECC/fault path may poison the burst, stretch its ready
			// time (correction latency) or demand a replay; a replayed
			// burst re-enters the read queue later and must not advance
			// its transaction yet.
			if c.inj == nil || !c.inspectReadBurst(dp) {
				tr := dp.parent
				tr.remaining--
				if dp.readyTime > tr.lastReady {
					tr.lastReady = dp.readyTime
				}
				c.freeDP(dp)
				if tr.remaining == 0 {
					if tr.poisoned {
						tr.pkt.Poisoned = true
					}
					c.queueReadResponse(tr.pkt, tr.lastReady+c.cfg.FrontendLatency+c.cfg.BackendLatency, tr.entries)
					c.freeTxn(tr)
				}
			}
			// Forced switch at the high watermark.
			if c.writeQueue.n >= c.writeHighMark {
				switchToWrites = true
			}
		}
		if switchToWrites {
			c.state = busWrite
			c.writesThisTime = 0
			c.st.rdWrTurnarounds.Inc()
			if c.hub != nil {
				c.hub.Emit(obs.WriteDrainEnter{Src: c.name, At: c.k.Now(), QueueLen: c.writeQueue.n})
			}
		}
	case busWrite:
		if c.writeQueue.n > 0 {
			dp := c.chooseNext(&c.writeQueue)
			c.writeQueue.remove(dp)
			c.doDRAMAccess(dp)
			c.writesThisTime++
			c.freeDP(dp)
			c.maybeSendReqRetry()
		}
		// Switch back to reads when the write queue is empty, when we are
		// comfortably below the low watermark, or when reads are waiting
		// and the minimum write burst has been drained (gem5's hysteresis).
		if c.writeQueue.n == 0 ||
			(c.writeQueue.n+c.cfg.MinWritesPerSwitch < c.writeLowMark && !c.draining) ||
			(c.readQueue.n > 0 && c.writesThisTime >= c.cfg.MinWritesPerSwitch) {
			c.state = busRead
			c.readsThisTime = 0
			c.st.rdWrTurnarounds.Inc()
			if c.hub != nil {
				c.hub.Emit(obs.WriteDrainExit{Src: c.name, At: c.k.Now(), Writes: c.writesThisTime})
			}
		}
	}
	if c.readQueue.n > 0 || c.writeQueue.n > 0 {
		t := &c.tim
		headroom := t.TRP + t.TRCD + t.TCL
		next := c.k.Now()
		if c.busBusyUntil > headroom && c.busBusyUntil-headroom > next {
			next = c.busBusyUntil - headroom
		}
		if !c.nextReqEvent.Scheduled() {
			c.k.Schedule(c.nextReqEvent, next)
		}
	}
}

// chooseNext returns the queued burst to service next. FCFS takes the oldest.
// FR-FCFS follows gem5's hierarchy: the first *seamless* row hit (column
// ready by the time the data bus frees), then the first ready-but-not-
// seamless hit, then the request whose bank frees earliest (paper §II-C),
// "first" always meaning arrival order.
//
// The arbitration runs over the banks with queued work, not over the queue:
// whether a burst is a ready hit, whether that hit is seamless, and what
// issueAt answers for it depend only on its bank and on whether it targets
// the bank's open row, so each bank contributes its first burst of either
// kind and seq settles what queue position used to.
//
//hot:path FR-FCFS over the banks with queued work
func (c *Controller) chooseNext(q *burstQueue) *dramPacket {
	if c.cfg.Scheduling == FCFS || q.n == 1 {
		return q.oldest()
	}
	now := c.k.Now()
	if p := c.firstReadyHit(q, now); p != nil {
		return p
	}
	// No ready hit competes. A bank's first competing burst to another row
	// than the open one stands for all of them, and only a bank in a refresh
	// blackout can still hold a burst to its (logically) open row, which
	// issueAt costs as a hit.
	//
	// Primary key: the true issue tick including bus serialisation, as
	// doDRAMAccess will charge it. Secondary key: raw bank readiness — among
	// bus-bound candidates (equal true cost) pick the bank that frees
	// earliest, as gem5's earliestBanks does, preserving bank parallelism
	// instead of degrading to arrival order, which only breaks exact ties.
	// missChoice ranks on readiness alone, which orders the candidates the
	// same way.
	var best missChoice
	groups := c.topo.Groups
	for ri, rk := range c.ranks {
		if q.work[ri] == 0 {
			continue
		}
		rf := c.rankFloors(rk, q.isRead)
		banks := q.rankBanks(ri)
		// Group by group, so a group's terms are evaluated once for its banks.
		// The order banks are visited in cannot matter: seq is unique, so the
		// minimum below is.
		for g := 0; g < groups; g++ {
			m := q.work[ri] & (q.group0 << g)
			if m == 0 {
				continue
			}
			f := c.groupFloors(rf, rk, g)
			for ; m != 0; m &= m - 1 {
				bi := bits.TrailingZeros64(m)
				head, open := banks[bi].head, rk.openRow[bi]
				if p := firstOf(head, open, false); p != nil {
					_, _, ready, _ := c.bankIssueAt(&f, rk, bi, false)
					best.offer(p, ready)
				}
				if q.hit[ri]&(1<<bi) != 0 && rk.refreshUntil[bi] > now {
					_, _, ready, _ := c.bankIssueAt(&f, rk, bi, true)
					best.offer(firstOf(head, open, true), ready)
				}
			}
		}
	}
	return best.p
}

// firstReadyHit is the hit phase of FR-FCFS: the first seamless row hit in
// arrival order, else the first ready one, else nil. It visits only the banks
// holding a burst to their open row: seldom any under random traffic, a few
// in a row-hit stream.
func (c *Controller) firstReadyHit(q *burstQueue, now sim.Tick) *dramPacket {
	// A column command issued at or before this tick keeps the data bus
	// busy back-to-back (gem5's minColAt): the seamless threshold.
	minColAt := max(now, c.busBusyUntil-c.tim.TCL)
	var seamless, prepped *dramPacket
	for ri, m := range q.hit {
		if m == 0 {
			continue
		}
		rk, banks := c.ranks[ri], q.rankBanks(ri)
		for ; m != 0; m &= m - 1 {
			bi := bits.TrailingZeros64(m)
			// A row opened during a refresh blackout is not a ready hit: its
			// activate is booked for after the blackout, so preferring it over
			// a genuinely ready request in another rank wastes the window.
			// There is no power-state gate, and a candidate's rank may be
			// asleep: rankIdle lets a rank power down while writes stay parked
			// below the low watermark, and a later drain arbitrates them with
			// CKE low. Their tXP is paid only when doDRAMAccess's wakeRank
			// raises CKE, after the choice
			// (TestDrainArbitratesParkedWritesBeforeWake, DESIGN §13).
			if rk.refreshUntil[bi] > now {
				continue
			}
			p := firstOf(banks[bi].head, rk.openRow[bi], true)
			if rk.colAllowedAt[bi] <= minColAt {
				// Seamless hit: issuing it leaves no bus idle gap. Taking the
				// first queued one is gem5's FCFS-among-seamless rule.
				if seamless == nil || p.seq < seamless.seq {
					seamless = p
				}
			} else if prepped == nil || p.seq < prepped.seq {
				prepped = p
			}
		}
	}
	if seamless != nil {
		return seamless
	}
	// Hits still beat misses even when none is seamless, but a hit that would
	// stall the bus no longer shadows a seamless hit queued behind it.
	return prepped
}

// missChoice is the best burst of the FR-FCFS miss phase so far, with the
// readiness it won on.
type missChoice struct {
	p     *dramPacket
	ready sim.Tick
}

// offer replaces the choice when p's column command is ready earlier, or as
// early and p arrived first. That is the order of (cmdAt, ready, seq): cmdAt
// is max(ready, bus) with one bus tick for every candidate of a decision, so
// an earlier ready never issues later and an earlier cmdAt has an earlier
// ready.
func (m *missChoice) offer(p *dramPacket, ready sim.Tick) {
	if m.p == nil || ready < m.ready || ready == m.ready && p.seq < m.p.seq {
		*m = missChoice{p, ready}
	}
}

// issueAt computes, without mutating anything, the command ticks servicing p
// takes from the current bank, rank and bus state: the precharge of a
// conflicting row (meaningful only on a row conflict), the activate
// (meaningful unless p hits the open row), the column command's readiness
// from bank and rank state alone, and the column command itself once data-bus
// serialisation is applied. rankFloors, groupFloors and bankIssueAt — the rules
// sorted by what each term depends on — are together the one statement of the
// access timing rules: FR-FCFS ranks misses by ready (which orders them as
// (cmdAt, ready) does) and doDRAMAccess commits the same four ticks.
func (c *Controller) issueAt(p *dramPacket) (preAt, actAt, ready, cmdAt sim.Tick) {
	rk, bi := c.ranks[p.coord.Rank], p.coord.Bank
	f := c.groupFloors(c.rankFloors(rk, p.isRead), rk, c.topo.GroupOf(bi))
	return c.bankIssueAt(&f, rk, bi, rk.openRow[bi] == int64(p.coord.Row))
}

// issueFloors is the part of the access timing rules that many banks share
// within one decision: the earliest tick each kind of command may issue
// whatever the bank, first from rank and bus state (rankFloors), then with
// one bank group's spacing folded in (groupFloors).
type issueFloors struct {
	// now floors a precharge, which nothing above the bank constrains.
	now sim.Tick
	// act floors an activate: now, tRRD after the rank's last activate, the
	// tXAW window and, within a bank group, tRRD_L after the group's last.
	act sim.Tick
	// col floors a column command of the direction asked about: now, the
	// read/write turnaround and, on bank-grouped devices, tCCD_S after the
	// rank's last column command and tCCD_L after the group's.
	col sim.Tick
	// bus is the column command whose data follows the in-flight burst
	// back-to-back. A command may overlap in-flight data; only the data
	// transfer itself serialises on the bus, so a command ready before this
	// tick is pushed out to it.
	bus sim.Tick
}

// rankFloors evaluates the rank- and bus-level terms for one direction.
func (c *Controller) rankFloors(rk *rank, isRead bool) issueFloors {
	t := &c.tim
	now := c.k.Now()
	dirAllowed := rk.rdAllowedAt
	if !isRead {
		dirAllowed = rk.wrAllowedAt
	}
	f := issueFloors{
		now: now,
		act: max(now, rk.lastActAt+t.TRRD, rk.earliestActByWindow(c.org.ActivationLimit, t.TXAW)),
		col: max(now, dirAllowed),
		bus: c.busBusyUntil - t.TCL,
	}
	if c.grouped {
		f.col = max(f.col, rk.colAnyAt)
	}
	return f
}

// groupFloors folds bank group g's terms into a rank's floors. A flat device
// is one group without any.
func (c *Controller) groupFloors(f issueFloors, rk *rank, g int) issueFloors {
	if c.grouped {
		f.act = max(f.act, rk.actGroupAt[g]+c.trrdL)
		f.col = max(f.col, rk.colGroupAt[g])
	}
	return f
}

// bankIssueAt completes issueAt with the terms that depend on the bank and on
// whether the burst hits its open row. Every burst queued for one bank in one
// queue therefore shares one of two answers, which is what lets FR-FCFS ask
// once per bank instead of once per burst; and with the floors evaluated once
// per rank and group, what it pays per bank is these few loads, inlined into
// its scan.
func (c *Controller) bankIssueAt(f *issueFloors, rk *rank, bi int, hit bool) (preAt, actAt, ready, cmdAt sim.Tick) {
	if hit {
		ready = max(f.col, rk.colAllowedAt[bi])
	} else {
		actAt = max(f.act, rk.actAllowedAt[bi])
		if rk.openRow[bi] != rowClosed {
			preAt = max(f.now, rk.preAllowedAt[bi])
			actAt = max(actAt, preAt+c.tim.TRP)
		}
		ready = max(f.col, actAt+c.tim.TRCD)
	}
	return preAt, actAt, ready, max(ready, f.bus)
}

// doDRAMAccess performs the chosen burst: it opens the row if needed
// (respecting tRP, tRRD and the tXAW window), claims the data bus, applies
// the direction-turnaround constraints, and lets the page policy decide
// whether to precharge afterwards.
//
//hot:path per-burst timing update
func (c *Controller) doDRAMAccess(p *dramPacket) {
	t := &c.tim
	now := c.k.Now()
	ri, bi := p.coord.Rank, p.coord.Bank
	rk := c.ranks[ri]
	// Service is the single choke point every burst passes through, so the
	// rank is guaranteed awake (paying tXP/tXS through the allowed-at
	// arrays) before any command below is stamped — even for writes that
	// parked below the drain watermark while the rank slept.
	c.wakeRank(ri)

	preAt, actAt, _, cmdAt := c.issueAt(p)
	switch row := int64(p.coord.Row); {
	case rk.openRow[bi] != row:
		c.prechargeBank(ri, rk, bi, preAt) // no-op on a closed bank
		c.activateBank(ri, rk, bi, actAt, row)
	case p.isRead:
		c.st.readRowHits.Inc()
	default:
		c.st.writeRowHits.Inc()
	}
	if c.grouped {
		// Book the group spacing for the *next* column command: tCCD_L
		// within this group, tCCD_S to any other (usually tBURST, which the
		// bus serialisation in issueAt already enforces — but not when writes
		// follow reads with a shorter turnaround).
		g := c.topo.GroupOf(bi)
		rk.colGroupAt[g] = max(rk.colGroupAt[g], cmdAt+c.tccdL)
		rk.colAnyAt = max(rk.colAnyAt, cmdAt+c.tccdS)
	}
	dataEnd := cmdAt + t.TCL + t.TBURST
	c.busBusyUntil = dataEnd
	rk.busyUntil = max(rk.busyUntil, dataEnd)
	rk.idleSince = max(rk.idleSince, dataEnd)
	p.readyTime = dataEnd
	if c.hub != nil {
		kind := power.CmdWR
		if p.isRead {
			kind = power.CmdRD
		}
		c.emitCommand(kind, p.coord.Rank, p.coord.Bank, cmdAt)
		var sysPkt *mem.Packet
		if p.parent != nil {
			sysPkt = p.parent.pkt
		}
		c.hub.Emit(obs.BurstScheduled{
			Src: c.name, At: cmdAt, Pkt: sysPkt, Read: p.isRead,
			Rank: p.coord.Rank, Bank: p.coord.Bank, Row: p.coord.Row,
			DataEnd: dataEnd,
		})
	}

	burstBytes := c.burstBytes
	if p.isRead {
		rk.preAllowedAt[bi] = max(rk.preAllowedAt[bi], cmdAt+t.TRTP)
		rk.wrAllowedAt = max(rk.wrAllowedAt, dataEnd+t.TRTW)
		c.st.bytesRead.Add(float64(burstBytes))
		lat := (p.readyTime - p.entryTime).Nanoseconds()
		c.st.rdQLat.Sample(lat)
		c.st.memAccLat.Sample(lat + (c.cfg.FrontendLatency + c.cfg.BackendLatency).Nanoseconds())
	} else {
		rk.preAllowedAt[bi] = max(rk.preAllowedAt[bi], dataEnd+t.TWR)
		rk.rdAllowedAt = max(rk.rdAllowedAt, dataEnd+t.TWTR)
		c.st.bytesWritten.Add(float64(burstBytes))
		if !p.scrub {
			// Scrub writebacks are controller-internal traffic: they move
			// bytes but are not system write requests, so they stay out of
			// the queueing-latency statistic.
			c.st.wrQLat.Sample((now - p.entryTime).Nanoseconds())
		}
	}
	rk.bytesAccessed[bi] += burstBytes

	c.applyPagePolicy(ri, rk, bi)
}

// applyPagePolicy decides whether the row stays open after an access (Open
// leaves it to the next conflict or refresh).
func (c *Controller) applyPagePolicy(ri int, rk *rank, bi int) {
	var closeRow bool
	switch c.cfg.Page {
	case Closed:
		closeRow = true
	case ClosedAdaptive:
		// Keep the row open only if more accesses to it are queued.
		hit, _ := c.queuedRowDemand(ri, bi)
		closeRow = !hit
	case OpenAdaptive:
		// Close early if a conflicting access is queued and no hit is.
		_, closeRow = c.queuedRowDemand(ri, bi)
	}
	if closeRow {
		c.prechargeBank(ri, rk, bi, rk.preAllowedAt[bi])
	}
}

// queuedRowDemand reports what the queues hold for a bank whose row was just
// accessed (and is therefore open): hit when a queued burst targets the open
// row, conflict when none does but one targets another row of the bank. The
// queues' bank masks already answer both.
func (c *Controller) queuedRowDemand(ri, bi int) (hit, conflict bool) {
	rd, wr := &c.readQueue, &c.writeQueue
	hit = (rd.hit[ri]|wr.hit[ri])&(1<<bi) != 0
	return hit, !hit && (rd.work[ri]|wr.work[ri])&(1<<bi) != 0
}

// emitCommand forwards a DRAM command to the attached probes.
func (c *Controller) emitCommand(kind power.CommandKind, rankIdx, bankIdx int, at sim.Tick) {
	if c.hub == nil {
		return
	}
	c.hub.Emit(obs.DRAMCommand{Src: c.name, Cmd: power.Command{Kind: kind, Rank: rankIdx, Bank: bankIdx, At: at}})
}

// activateBank opens a row at actAt and records the activate for
// tRRD/tXAW accounting and statistics.
func (c *Controller) activateBank(ri int, rk *rank, bi int, actAt sim.Tick, row int64) {
	t := &c.tim
	rk.openRow[bi] = row
	c.readQueue.rowChanged(ri, bi, row)
	c.writeQueue.rowChanged(ri, bi, row)
	rk.colAllowedAt[bi] = actAt + t.TRCD
	rk.preAllowedAt[bi] = max(rk.preAllowedAt[bi], actAt+t.TRAS)
	rk.bytesAccessed[bi] = 0
	rk.recordAct(actAt, c.org.ActivationLimit)
	if c.grouped {
		g := c.topo.GroupOf(bi)
		rk.actGroupAt[g] = max(rk.actGroupAt[g], actAt)
	}
	rk.busyUntil = max(rk.busyUntil, actAt)
	c.st.activations.Inc()
	if c.hub != nil {
		c.emitCommand(power.CmdACT, ri, bi, actAt)
	}
	if c.openBankCount == 0 {
		d := actAt - c.allPrechargedSince
		if d > 0 {
			c.prechargeAllTime += d
		}
	}
	c.openBankCount++
}

// prechargeBank closes a bank's row at preAt (tRP later the bank can
// activate again) and records statistics.
func (c *Controller) prechargeBank(ri int, rk *rank, bi int, preAt sim.Tick) {
	if rk.openRow[bi] == rowClosed {
		return
	}
	t := &c.tim
	c.st.bytesPerActivate.Sample(float64(rk.bytesAccessed[bi]))
	rk.openRow[bi] = rowClosed
	c.readQueue.rowChanged(ri, bi, rowClosed)
	c.writeQueue.rowChanged(ri, bi, rowClosed)
	rk.actAllowedAt[bi] = max(rk.actAllowedAt[bi], preAt+t.TRP)
	rk.bytesAccessed[bi] = 0
	rk.busyUntil = max(rk.busyUntil, preAt)
	c.st.precharges.Inc()
	if c.hub != nil {
		c.emitCommand(power.CmdPRE, ri, bi, preAt)
	}
	c.openBankCount--
	if c.openBankCount == 0 {
		c.allPrechargedSince = preAt + t.TRP
	}
}

// refreshWidth returns how many banks one refresh command blacks out under
// the device's discipline: the whole rank (all-bank), one bank (per-bank), or
// one bank of every group (DDR5 same-bank).
func (c *Controller) refreshWidth() int {
	switch c.refSpec.Kind {
	case dram.RefPerBank:
		return 1
	case dram.RefSameBank:
		return c.topo.Groups
	}
	return c.org.BanksPerRank
}

// refreshInterval returns the refresh command cadence: tREFI divided by the
// number of commands it takes to cover the rank once.
func (c *Controller) refreshInterval() sim.Tick {
	return c.tim.TREFI / sim.Tick(c.org.BanksPerRank/c.refreshWidth())
}

// processRefresh issues a refresh for a rank (paper §II-B: refreshes cause
// the big latency spikes, so they are modelled). One episode closes and
// blacks out the bank range [lo,hi) for the device's refresh blackout: the
// whole rank for tRFC (all-bank), the next bank in round-robin order for
// tRFCpb (per-bank), or the next set of banks sharing an in-group index —
// banks [s*Groups, (s+1)*Groups) under the bank-mod-Groups mapping — for
// tRFCsb (DDR5 same-bank); banks outside the range keep serving. The finer
// disciplines run at a proportionally higher cadence.
func (c *Controller) processRefresh(rankIdx int) {
	t := &c.tim
	now := c.k.Now()
	rk := c.ranks[rankIdx]

	if rk.cke == ckeSelfRefresh {
		// The rank is refreshing itself; just keep the cadence alive (the
		// self-refresh exit will restart it a full interval out anyway).
		c.refreshDue[rankIdx] = now + t.TREFI
		c.k.Reschedule(c.refreshEvents[rankIdx], c.refreshDue[rankIdx])
		return
	}
	if rk.cke.inPowerDown() {
		// Refresh is the controller's job while merely powered down: wake
		// the rank (paying tCKE/tXP — leavePowerDown pushes the per-bank
		// allowed-at times, which the refresh start respects below).
		c.wakeRank(rankIdx)
	}

	// The rotating set index s doubles as the command's bank argument;
	// all-bank refresh has a single set, so it stays 0.
	width := c.refreshWidth()
	sets := rk.numBanks() / width
	s := rk.nextRefreshBank % sets
	lo, hi := s*width, (s+1)*width
	rk.nextRefreshBank = (s + 1) % sets

	start := now
	preCount, lastPre := 0, sim.Tick(0)
	for bi := lo; bi < hi; bi++ {
		if rk.openRow[bi] != rowClosed {
			preAt := max(now, rk.preAllowedAt[bi])
			c.prechargeBank(rankIdx, rk, bi, preAt)
			start = max(start, preAt+t.TRP)
			preCount++
			lastPre = max(lastPre, preAt)
		} else {
			start = max(start, rk.actAllowedAt[bi])
		}
	}
	// On devices distinguishing all-bank from per-bank precharge (LPDDR
	// tRPab), closing two or more rows at once ahead of an all-bank REF is a
	// precharge-all and pays the longer tRPab before the REF may start.
	allBank := c.refSpec.Kind == dram.RefAllBank
	if allBank && preCount >= 2 && c.tRPab > t.TRP {
		start = max(start, lastPre+c.tRPab)
	}
	done := start + c.refSpec.Blackout
	for bi := lo; bi < hi; bi++ {
		rk.actAllowedAt[bi] = max(rk.actAllowedAt[bi], done)
		rk.refreshUntil[bi] = max(rk.refreshUntil[bi], done)
	}
	rk.busyUntil = max(rk.busyUntil, done)
	if c.hub != nil {
		kind := power.CmdREF
		if c.refSpec.Kind == dram.RefSameBank {
			kind = power.CmdREFSB
		}
		c.emitCommand(kind, rankIdx, s, start)
		if allBank {
			lo, hi = -1, 0 // bank -1 names the one rank-wide span
		}
		for bi := lo; bi < hi; bi++ {
			c.hub.Emit(obs.RefreshStart{Src: c.name, At: start, Rank: rankIdx, Bank: bi, Until: done})
		}
	}
	c.st.refreshes.Inc()

	interval := c.refreshInterval()
	c.refreshDue[rankIdx] += interval
	next := c.refreshDue[rankIdx]
	if next <= now {
		next = now + interval
		c.refreshDue[rankIdx] = next
	}
	c.k.Schedule(c.refreshEvents[rankIdx], next)
	// An idle rank can head back to a low-power state after the refresh (the
	// blackout end gates the entry via lowPowerBlockedUntil).
	c.scheduleLowPowerChecks()
}
