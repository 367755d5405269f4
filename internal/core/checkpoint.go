package core

import (
	"encoding/json"
	"fmt"

	"repro/internal/dram"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Checkpoint support for the event-based controller. The controller owns a
// lot of interlinked state — burst queues aliasing shared transactions,
// responses referencing system packets, per-bank timing, refresh cadence,
// low-power machinery, in-flight fault replays — all of it rebuilt here from
// a flat serialized image. Events are never serialized as queue entries: the
// image records each event's (when, seq) and restore re-creates it through
// the Restorer, which replays the schedules in saved-seq order so same-tick
// ties fire exactly as in an uninterrupted run.

// replayRecord tracks one read burst parked in a fault-replay backoff.
type replayRecord struct {
	dp   *dramPacket
	when sim.Tick
	seq  uint64
}

// txnState is a serialized transaction (a chopped system read).
type txnState struct {
	Pkt       int      `json:"pkt"`
	Remaining int      `json:"remaining"`
	Entries   int      `json:"entries"`
	LastReady sim.Tick `json:"lastReady"`
	Poisoned  bool     `json:"poisoned,omitempty"`
}

// dpState is a serialized dramPacket. Parent indexes the transaction table
// (-1 for writes, which have no parent).
type dpState struct {
	IsRead    bool     `json:"isRead,omitempty"`
	Rank      int      `json:"rank"`
	Bank      int      `json:"bank"`
	Row       uint64   `json:"row"`
	Col       uint64   `json:"col"`
	BurstAddr mem.Addr `json:"burstAddr"`
	Addr      mem.Addr `json:"addr"`
	Size      uint64   `json:"size"`
	Parent    int      `json:"parent"`
	EntryTime sim.Tick `json:"entryTime"`
	ReadyTime sim.Tick `json:"readyTime"`
	Attempts  int      `json:"attempts,omitempty"`
	Scrub     bool     `json:"scrub,omitempty"`
}

// respState is a serialized response-queue entry; the image holds both lanes
// merged in the order they send.
type respState struct {
	Pkt     int      `json:"pkt"`
	SendAt  sim.Tick `json:"sendAt"`
	Release int      `json:"release,omitempty"`
}

// replayState is a serialized in-flight fault replay: the parked burst plus
// the scheduling of the one-shot event that re-queues it.
type replayState struct {
	DP   dpState  `json:"dp"`
	When sim.Tick `json:"when"`
	Seq  uint64   `json:"seq"`
}

// bankState mirrors bank.
type bankState struct {
	OpenRow       int64    `json:"openRow"`
	ActAllowedAt  sim.Tick `json:"actAllowedAt"`
	PreAllowedAt  sim.Tick `json:"preAllowedAt"`
	ColAllowedAt  sim.Tick `json:"colAllowedAt"`
	RefreshUntil  sim.Tick `json:"refreshUntil"`
	BytesAccessed uint64   `json:"bytesAccessed,omitempty"`
}

// rankState mirrors rank, including the per-rank CKE state machine and its
// two idle-timer events — a checkpoint taken mid-power-down or mid-self-
// refresh resumes inside that state with residency accounting intact.
type rankState struct {
	Banks     []bankState `json:"banks"`
	LastActAt sim.Tick    `json:"lastActAt"`
	ActWindow []sim.Tick  `json:"actWindow,omitempty"`
	// ActGroupAt/ColGroupAt/ColAnyAt carry the bank-group timing state of
	// grouped devices (DDR4 onward); all omitted on flat devices, keeping
	// their images byte-identical to pre-bank-group checkpoints.
	ActGroupAt      []sim.Tick `json:"actGroupAt,omitempty"`
	ColGroupAt      []sim.Tick `json:"colGroupAt,omitempty"`
	ColAnyAt        sim.Tick   `json:"colAnyAt,omitempty"`
	RdAllowedAt     sim.Tick   `json:"rdAllowedAt"`
	WrAllowedAt     sim.Tick   `json:"wrAllowedAt"`
	NextRefreshBank int        `json:"nextRefreshBank,omitempty"`

	Cke       int      `json:"cke,omitempty"`
	CkeSince  sim.Tick `json:"ckeSince"`
	CkeOKAt   sim.Tick `json:"ckeOKAt"`
	BusyUntil sim.Tick `json:"busyUntil"`
	IdleSince sim.Tick `json:"idleSince"`
	PrePDTime sim.Tick `json:"prePDTime,omitempty"`
	ActPDTime sim.Tick `json:"actPDTime,omitempty"`
	SRTime    sim.Tick `json:"srTime,omitempty"`

	PowerDown   sim.EventState `json:"powerDown"`
	SelfRefresh sim.EventState `json:"selfRefresh"`
}

// ctrlState is the controller's full serialized image.
type ctrlState struct {
	Txns       []txnState    `json:"txns,omitempty"`
	ReadQueue  []dpState     `json:"readQueue,omitempty"`
	WriteQueue []dpState     `json:"writeQueue,omitempty"`
	RespQueue  []respState   `json:"respQueue,omitempty"`
	Replays    []replayState `json:"replays,omitempty"`

	ReadEntries    int  `json:"readEntries,omitempty"`
	Bus            int  `json:"bus,omitempty"`
	WritesThisTime int  `json:"writesThisTime,omitempty"`
	ReadsThisTime  int  `json:"readsThisTime,omitempty"`
	Draining       bool `json:"draining,omitempty"`

	Ranks        []rankState `json:"ranks"`
	BusBusyUntil sim.Tick    `json:"busBusyUntil"`

	RetryReq  bool `json:"retryReq,omitempty"`
	RetryResp bool `json:"retryResp,omitempty"`

	NextReq    sim.EventState   `json:"nextReq"`
	Respond    sim.EventState   `json:"respond"`
	Refresh    []sim.EventState `json:"refresh"`
	RefreshDue []sim.Tick       `json:"refreshDue"`

	OpenBankCount      int      `json:"openBankCount,omitempty"`
	AllPrechargedSince sim.Tick `json:"allPrechargedSince"`
	PrechargeAllTime   sim.Tick `json:"prechargeAllTime"`
	StartTick          sim.Tick `json:"startTick"`

	LastWakeAt sim.Tick `json:"lastWakeAt"`

	Faults *faults.State `json:"faults,omitempty"`
}

// saveDP serializes one dramPacket against the transaction index table.
func saveDP(dp *dramPacket, txnIdx map[*transaction]int) dpState {
	parent := -1
	if dp.parent != nil {
		parent = txnIdx[dp.parent]
	}
	return dpState{
		IsRead: dp.isRead,
		Rank:   dp.coord.Rank, Bank: dp.coord.Bank, Row: dp.coord.Row, Col: dp.coord.Col,
		BurstAddr: dp.burstAddr, Addr: dp.addr, Size: dp.size,
		Parent:    parent,
		EntryTime: dp.entryTime, ReadyTime: dp.readyTime,
		Attempts: dp.attempts, Scrub: dp.scrub,
	}
}

// loadDP rebuilds one dramPacket against the restored transaction table. The
// coordinates index the queues' bank lists, so an image naming a bank the
// device does not have is refused here.
func (c *Controller) loadDP(st dpState, txns []*transaction) (*dramPacket, error) {
	if st.Rank < 0 || st.Rank >= len(c.ranks) || st.Bank < 0 || st.Bank >= c.org.BanksPerRank {
		return nil, fmt.Errorf("core: %s: burst targets rank %d bank %d of a %dx%d device",
			c.name, st.Rank, st.Bank, len(c.ranks), c.org.BanksPerRank)
	}
	dp := &dramPacket{
		isRead:    st.IsRead,
		coord:     dram.Coord{Rank: st.Rank, Bank: st.Bank, Row: st.Row, Col: st.Col},
		burstAddr: st.BurstAddr, addr: st.Addr, size: st.Size,
		entryTime: st.EntryTime, readyTime: st.ReadyTime,
		attempts: st.Attempts, scrub: st.Scrub,
	}
	if st.Parent >= 0 {
		if st.Parent >= len(txns) {
			return nil, fmt.Errorf("core: burst references transaction %d of %d", st.Parent, len(txns))
		}
		dp.parent = txns[st.Parent]
	}
	return dp, nil
}

// responses returns every queued response in the order the lanes send them.
func (c *Controller) responses() []respEntry {
	var out []respEntry
	for sentFixed, sentDRAM := 0, 0; ; {
		e, fromDRAM, ok := c.nextResp(sentFixed, sentDRAM)
		if !ok {
			return out
		}
		out = append(out, e)
		if fromDRAM {
			sentDRAM++
		} else {
			sentFixed++
		}
	}
}

// CheckpointConfig implements checkpoint.Configured: the controller's
// identity is its whole Config.
func (c *Controller) CheckpointConfig() any { return c.cfg }

// CheckpointSave implements checkpoint.Checkpointable.
func (c *Controller) CheckpointSave(pt mem.PacketTable) (any, error) {
	st := ctrlState{
		ReadEntries:    c.readEntries,
		Bus:            int(c.state),
		WritesThisTime: c.writesThisTime,
		ReadsThisTime:  c.readsThisTime,
		Draining:       c.draining,
		BusBusyUntil:   c.busBusyUntil,
		RetryReq:       c.retryReq,
		RetryResp:      c.retryResp,

		NextReq:    c.nextReqEvent.Capture(),
		Respond:    c.respondEvent.Capture(),
		RefreshDue: append([]sim.Tick(nil), c.refreshDue...),

		OpenBankCount:      c.openBankCount,
		AllPrechargedSince: c.allPrechargedSince,
		PrechargeAllTime:   c.prechargeAllTime,
		StartTick:          c.startTick,

		LastWakeAt: c.lastWakeAt,
	}
	for _, ev := range c.refreshEvents {
		st.Refresh = append(st.Refresh, ev.Capture())
	}

	// Transaction table: every live transaction is reachable from a queued or
	// replay-parked read burst (a fully-serviced or fully-forwarded
	// transaction only lives on through its queued response packet).
	txnIdx := make(map[*transaction]int)
	addTxn := func(tr *transaction) {
		if tr == nil {
			return
		}
		if _, ok := txnIdx[tr]; ok {
			return
		}
		txnIdx[tr] = len(st.Txns)
		st.Txns = append(st.Txns, txnState{
			Pkt:       pt.PacketRef(tr.pkt),
			Remaining: tr.remaining,
			Entries:   tr.entries,
			LastReady: tr.lastReady,
			Poisoned:  tr.poisoned,
		})
	}
	reads := c.readQueue.bursts()
	for _, dp := range reads {
		addTxn(dp.parent)
	}
	for _, rec := range c.pendingReplays {
		addTxn(rec.dp.parent)
	}
	for _, dp := range reads {
		st.ReadQueue = append(st.ReadQueue, saveDP(dp, txnIdx))
	}
	for _, dp := range c.writeQueue.bursts() {
		st.WriteQueue = append(st.WriteQueue, saveDP(dp, txnIdx))
	}
	for _, e := range c.responses() {
		st.RespQueue = append(st.RespQueue, respState{Pkt: pt.PacketRef(e.pkt), SendAt: e.sendAt, Release: e.release})
	}
	for _, rec := range c.pendingReplays {
		st.Replays = append(st.Replays, replayState{DP: saveDP(rec.dp, txnIdx), When: rec.when, Seq: rec.seq})
	}

	for ri, rk := range c.ranks {
		rs := rankState{
			LastActAt:       rk.lastActAt,
			ActWindow:       append([]sim.Tick(nil), rk.actWindow...),
			ActGroupAt:      append([]sim.Tick(nil), rk.actGroupAt...),
			ColGroupAt:      append([]sim.Tick(nil), rk.colGroupAt...),
			ColAnyAt:        rk.colAnyAt,
			RdAllowedAt:     rk.rdAllowedAt,
			WrAllowedAt:     rk.wrAllowedAt,
			NextRefreshBank: rk.nextRefreshBank,

			Cke:       int(rk.cke),
			CkeSince:  rk.ckeSince,
			CkeOKAt:   rk.ckeOKAt,
			BusyUntil: rk.busyUntil,
			IdleSince: rk.idleSince,
			PrePDTime: rk.prePDTime,
			ActPDTime: rk.actPDTime,
			SRTime:    rk.srTime,

			PowerDown:   c.pdEvents[ri].Capture(),
			SelfRefresh: c.srEvents[ri].Capture(),
		}
		for i := 0; i < rk.numBanks(); i++ {
			rs.Banks = append(rs.Banks, bankState{
				OpenRow:      rk.openRow[i],
				ActAllowedAt: rk.actAllowedAt[i], PreAllowedAt: rk.preAllowedAt[i],
				ColAllowedAt: rk.colAllowedAt[i], RefreshUntil: rk.refreshUntil[i],
				BytesAccessed: rk.bytesAccessed[i],
			})
		}
		st.Ranks = append(st.Ranks, rs)
	}

	if c.inj != nil {
		fs := c.inj.SaveState()
		st.Faults = &fs
	}
	return st, nil
}

// CheckpointRestore implements checkpoint.Checkpointable on a freshly
// constructed controller: constructor-armed events are descheduled, the
// serialized image is applied, and every saved event is re-created through
// the restorer.
func (c *Controller) CheckpointRestore(pl mem.PacketLookup, rs sim.Restorer, data []byte) error {
	var st ctrlState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("core: %s restore: %w", c.name, err)
	}
	if len(st.Ranks) != len(c.ranks) {
		return fmt.Errorf("core: %s: checkpoint has %d ranks, controller has %d", c.name, len(st.Ranks), len(c.ranks))
	}
	if len(st.Refresh) != len(c.refreshEvents) || len(st.RefreshDue) != len(c.refreshDue) {
		return fmt.Errorf("core: %s: refresh shape mismatch", c.name)
	}
	if (st.Faults != nil) != (c.inj != nil) {
		return fmt.Errorf("core: %s: fault-injection enabled in only one of checkpoint/config", c.name)
	}

	// Phase 1: silence everything the constructor armed.
	for _, ev := range []*sim.Event{c.nextReqEvent, c.respondEvent} {
		if ev.Scheduled() {
			c.k.Deschedule(ev)
		}
	}
	for _, evs := range [][]*sim.Event{c.refreshEvents, c.pdEvents, c.srEvents} {
		for _, ev := range evs {
			if ev.Scheduled() {
				c.k.Deschedule(ev)
			}
		}
	}

	// Phase 2: rebuild plain state.
	txns := make([]*transaction, len(st.Txns))
	for i, ts := range st.Txns {
		txns[i] = &transaction{
			pkt:       pl.PacketByRef(ts.Pkt),
			remaining: ts.Remaining,
			entries:   ts.Entries,
			lastReady: ts.LastReady,
			poisoned:  ts.Poisoned,
		}
	}
	c.pendingReplays = nil
	// The saved order splits back into the lanes: only a DRAM read response
	// releases read-buffer entries.
	c.respFixed = mem.PacketQueue{}
	c.respDRAM = newRespRing(c.cfg.ReadBufferSize)
	for _, e := range st.RespQueue {
		pkt := pl.PacketByRef(e.Pkt)
		if e.Release == 0 {
			c.respFixed.Push(pkt, e.SendAt)
			continue
		}
		if c.respDRAM.n == len(c.respDRAM.buf) {
			return fmt.Errorf("core: %s: checkpoint queues more read responses than the %d-entry read buffer holds",
				c.name, c.cfg.ReadBufferSize)
		}
		c.respDRAM.insert(respEntry{pkt: pkt, sendAt: e.SendAt, release: e.Release})
	}

	c.readEntries = st.ReadEntries
	c.state = busState(st.Bus)
	c.writesThisTime = st.WritesThisTime
	c.readsThisTime = st.ReadsThisTime
	c.draining = st.Draining
	c.busBusyUntil = st.BusBusyUntil
	c.retryReq = st.RetryReq
	c.retryResp = st.RetryResp
	c.refreshDue = append(c.refreshDue[:0], st.RefreshDue...)
	c.openBankCount = st.OpenBankCount
	c.allPrechargedSince = st.AllPrechargedSince
	c.prechargeAllTime = st.PrechargeAllTime
	c.startTick = st.StartTick
	c.lastWakeAt = st.LastWakeAt

	for ri, rkst := range st.Ranks {
		rk := c.ranks[ri]
		if len(rkst.Banks) != rk.numBanks() {
			return fmt.Errorf("core: %s: rank %d has %d banks in checkpoint, %d in config",
				c.name, ri, len(rkst.Banks), rk.numBanks())
		}
		rk.lastActAt = rkst.LastActAt
		rk.actWindow = append(rk.actWindow[:0], rkst.ActWindow...)
		if len(rkst.ActGroupAt) != len(rk.actGroupAt) || len(rkst.ColGroupAt) != len(rk.colGroupAt) {
			return fmt.Errorf("core: %s: rank %d has %d bank groups in checkpoint, %d in config",
				c.name, ri, len(rkst.ActGroupAt), len(rk.actGroupAt))
		}
		copy(rk.actGroupAt, rkst.ActGroupAt)
		copy(rk.colGroupAt, rkst.ColGroupAt)
		rk.colAnyAt = rkst.ColAnyAt
		rk.rdAllowedAt = rkst.RdAllowedAt
		rk.wrAllowedAt = rkst.WrAllowedAt
		rk.nextRefreshBank = rkst.NextRefreshBank
		rk.cke = ckeState(rkst.Cke)
		rk.ckeSince = rkst.CkeSince
		rk.ckeOKAt = rkst.CkeOKAt
		rk.busyUntil = rkst.BusyUntil
		rk.idleSince = rkst.IdleSince
		rk.prePDTime = rkst.PrePDTime
		rk.actPDTime = rkst.ActPDTime
		rk.srTime = rkst.SRTime
		for bi, bst := range rkst.Banks {
			rk.openRow[bi] = bst.OpenRow
			rk.actAllowedAt[bi] = bst.ActAllowedAt
			rk.preAllowedAt[bi] = bst.PreAllowedAt
			rk.colAllowedAt[bi] = bst.ColAllowedAt
			rk.refreshUntil[bi] = bst.RefreshUntil
			rk.bytesAccessed[bi] = bst.BytesAccessed
		}
	}

	// The queues are re-filled through push in saved (arrival) order, which
	// rebuilds their bank index against the open rows restored above; the
	// image carries no links, seqs or counts.
	c.resetQueues()
	for _, ds := range st.ReadQueue {
		dp, err := c.loadDP(ds, txns)
		if err != nil {
			return err
		}
		c.readQueue.push(dp)
	}
	for _, ds := range st.WriteQueue {
		dp, err := c.loadDP(ds, txns)
		if err != nil {
			return err
		}
		c.writeQueue.push(dp)
	}

	if st.Faults != nil {
		c.inj.RestoreState(*st.Faults)
	}

	// Phase 3: re-create events, ordered by their saved seqs at commit.
	deferEvent := func(ev *sim.Event, es sim.EventState) {
		if !es.Scheduled {
			return
		}
		when := es.When
		rs.Defer(es.Seq, func() { c.k.Schedule(ev, when) })
	}
	deferEvent(c.nextReqEvent, st.NextReq)
	deferEvent(c.respondEvent, st.Respond)
	for i, es := range st.Refresh {
		deferEvent(c.refreshEvents[i], es)
	}
	for i, rkst := range st.Ranks {
		deferEvent(c.pdEvents[i], rkst.PowerDown)
		deferEvent(c.srEvents[i], rkst.SelfRefresh)
	}
	for _, rp := range st.Replays {
		dp, err := c.loadDP(rp.DP, txns)
		if err != nil {
			return err
		}
		when := rp.When
		rs.Defer(rp.Seq, func() { c.armReplay(dp, when) })
	}
	return nil
}
