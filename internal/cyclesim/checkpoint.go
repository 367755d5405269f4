package cyclesim

import (
	"encoding/json"
	"fmt"

	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Checkpoint support for the cycle-based baseline. The model is simpler than
// the event-based controller — one unified queue, per-cycle FSMs, a single
// tick event — so its image is mostly flat counters plus the FSM fields.

// cparentState is a serialized parentReq.
type cparentState struct {
	Pkt       int `json:"pkt"`
	Remaining int `json:"remaining"`
}

// ctxnState is a serialized queue transaction. Parent indexes the parent
// table.
type ctxnState struct {
	IsRead    bool     `json:"isRead,omitempty"`
	Rank      int      `json:"rank"`
	Bank      int      `json:"bank"`
	Row       uint64   `json:"row"`
	Col       uint64   `json:"col"`
	BurstAddr mem.Addr `json:"burstAddr"`
	Parent    int      `json:"parent"`
}

// crespState is a serialized pending response.
type crespState struct {
	Pkt   int   `json:"pkt"`
	Ready int64 `json:"ready"`
}

// cbankState mirrors cbank.
type cbankState struct {
	OpenRow     int64 `json:"openRow"`
	OpenedFresh bool  `json:"openedFresh,omitempty"`
	Status      int   `json:"status,omitempty"`
	Countdown   int64 `json:"countdown,omitempty"`
	NextAct     int64 `json:"nextAct"`
	NextPre     int64 `json:"nextPre"`
	NextCol     int64 `json:"nextCol"`
}

// crankState mirrors crank.
type crankState struct {
	Banks      []cbankState `json:"banks"`
	LastAct    int64        `json:"lastAct"`
	ActWindow  []int64      `json:"actWindow,omitempty"`
	NextRd     int64        `json:"nextRd"`
	NextWr     int64        `json:"nextWr"`
	RefreshDue int64        `json:"refreshDue"`
}

// cycleState is the controller's full serialized image.
type cycleState struct {
	Parents []cparentState `json:"parents,omitempty"`
	Queue   []ctxnState    `json:"queue,omitempty"`
	Resp    []crespState   `json:"resp,omitempty"`

	Ranks     []crankState   `json:"ranks"`
	BusFree   int64          `json:"busFree"`
	LastCycle int64          `json:"lastCycle"`
	Tick      sim.EventState `json:"tick"`

	RetryReq  bool `json:"retryReq,omitempty"`
	RetryResp bool `json:"retryResp,omitempty"`

	OpenBankCount    int   `json:"openBankCount,omitempty"`
	AllPreSinceCycle int64 `json:"allPreSinceCycle"`
	PreAllCycles     int64 `json:"preAllCycles"`

	Energy EnergyBreakdown `json:"energy"`
}

// CheckpointConfig implements checkpoint.Configured: the controller's
// identity is its whole Config.
func (c *Controller) CheckpointConfig() any { return c.cfg }

// CheckpointSave implements checkpoint.Checkpointable.
func (c *Controller) CheckpointSave(pt mem.PacketTable) (any, error) {
	st := cycleState{
		BusFree:          c.busFree,
		LastCycle:        c.lastCycle,
		Tick:             c.tickEvent.Capture(),
		RetryReq:         c.retryReq,
		RetryResp:        c.retryResp,
		OpenBankCount:    c.openBankCount,
		AllPreSinceCycle: c.allPreSinceCycle,
		PreAllCycles:     c.preAllCycles,
		Energy:           c.energy,
	}
	parentIdx := make(map[*parentReq]int)
	for _, t := range c.queue {
		if _, ok := parentIdx[t.parent]; !ok {
			parentIdx[t.parent] = len(st.Parents)
			st.Parents = append(st.Parents, cparentState{Pkt: pt.PacketRef(t.parent.pkt), Remaining: t.parent.remaining})
		}
		st.Queue = append(st.Queue, ctxnState{
			IsRead: t.isRead,
			Rank:   t.coord.Rank, Bank: t.coord.Bank, Row: t.coord.Row, Col: t.coord.Col,
			BurstAddr: t.burstAddr, Parent: parentIdx[t.parent],
		})
	}
	for _, e := range c.resp {
		st.Resp = append(st.Resp, crespState{Pkt: pt.PacketRef(e.pkt), Ready: e.ready})
	}
	for _, rk := range c.ranks {
		rst := crankState{
			LastAct:    rk.lastAct,
			ActWindow:  append([]int64(nil), rk.actWindow...),
			NextRd:     rk.nextRd,
			NextWr:     rk.nextWr,
			RefreshDue: rk.refreshDue,
		}
		for i := range rk.banks {
			b := &rk.banks[i]
			rst.Banks = append(rst.Banks, cbankState{
				OpenRow: b.openRow, OpenedFresh: b.openedFresh,
				Status: int(b.status), Countdown: b.countdown,
				NextAct: b.nextAct, NextPre: b.nextPre, NextCol: b.nextCol,
			})
		}
		st.Ranks = append(st.Ranks, rst)
	}
	return st, nil
}

// CheckpointRestore implements checkpoint.Checkpointable on a freshly
// constructed controller.
func (c *Controller) CheckpointRestore(pl mem.PacketLookup, rs sim.Restorer, data []byte) error {
	var st cycleState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("cyclesim: %s restore: %w", c.name, err)
	}
	if len(st.Ranks) != len(c.ranks) {
		return fmt.Errorf("cyclesim: %s: checkpoint has %d ranks, controller has %d", c.name, len(st.Ranks), len(c.ranks))
	}
	if c.tickEvent.Scheduled() {
		c.k.Deschedule(c.tickEvent)
	}

	parents := make([]*parentReq, len(st.Parents))
	for i, ps := range st.Parents {
		parents[i] = &parentReq{pkt: pl.PacketByRef(ps.Pkt), remaining: ps.Remaining}
	}
	c.queue = nil
	c.resp = nil
	for _, ts := range st.Queue {
		if ts.Parent < 0 || ts.Parent >= len(parents) {
			return fmt.Errorf("cyclesim: %s: transaction references parent %d of %d", c.name, ts.Parent, len(parents))
		}
		c.queue = append(c.queue, &txn{
			isRead:    ts.IsRead,
			coord:     dram.Coord{Rank: ts.Rank, Bank: ts.Bank, Row: ts.Row, Col: ts.Col},
			burstAddr: ts.BurstAddr,
			parent:    parents[ts.Parent],
		})
	}
	for _, e := range st.Resp {
		c.resp = append(c.resp, respWait{pkt: pl.PacketByRef(e.Pkt), ready: e.Ready})
	}

	c.busFree = st.BusFree
	c.lastCycle = st.LastCycle
	c.retryReq = st.RetryReq
	c.retryResp = st.RetryResp
	c.openBankCount = st.OpenBankCount
	c.allPreSinceCycle = st.AllPreSinceCycle
	c.preAllCycles = st.PreAllCycles
	c.energy = st.Energy

	for ri, rst := range st.Ranks {
		rk := c.ranks[ri]
		if len(rst.Banks) != len(rk.banks) {
			return fmt.Errorf("cyclesim: %s: rank %d has %d banks in checkpoint, %d in config",
				c.name, ri, len(rst.Banks), len(rk.banks))
		}
		rk.lastAct = rst.LastAct
		rk.actWindow = append(rk.actWindow[:0], rst.ActWindow...)
		rk.nextRd = rst.NextRd
		rk.nextWr = rst.NextWr
		rk.refreshDue = rst.RefreshDue
		for bi, bst := range rst.Banks {
			b := &rk.banks[bi]
			b.openRow = bst.OpenRow
			b.openedFresh = bst.OpenedFresh
			b.status = bankStatus(bst.Status)
			b.countdown = bst.Countdown
			b.nextAct = bst.NextAct
			b.nextPre = bst.NextPre
			b.nextCol = bst.NextCol
		}
	}

	if st.Tick.Scheduled {
		when := st.Tick.When
		rs.Defer(st.Tick.Seq, func() { c.k.Schedule(c.tickEvent, when) })
	}
	return nil
}
