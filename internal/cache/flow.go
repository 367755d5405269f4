package cache

import (
	"fmt"

	"repro/internal/mem"
)

// cacheCPUSide and cacheMemSide give the two ports distinct method sets on
// the same underlying cache.
type cacheCPUSide Cache

type cacheMemSide Cache

// RecvTimingReq implements mem.Responder on the CPU side.
func (cs *cacheCPUSide) RecvTimingReq(pkt *mem.Packet) bool {
	return (*Cache)(cs).access(pkt)
}

// RecvRespRetry implements mem.Responder on the CPU side.
func (cs *cacheCPUSide) RecvRespRetry() {
	c := (*Cache)(cs)
	c.retryResp = false
	c.processResponses()
}

// RecvTimingResp implements mem.Requestor on the memory side (a line fill
// returned, or a writeback acknowledgement).
func (ms *cacheMemSide) RecvTimingResp(pkt *mem.Packet) bool {
	return (*Cache)(ms).fillOrAck(pkt)
}

// RecvReqRetry implements mem.Requestor on the memory side.
func (ms *cacheMemSide) RecvReqRetry() {
	c := (*Cache)(ms)
	c.memBlocked = false
	c.drainMemQueue()
}

// access handles a demand request from the core.
//
//hot:path every core memory operation; gated by TestCacheSteadyStateZeroAlloc
func (c *Cache) access(pkt *mem.Packet) bool {
	if pkt.Size == 0 || pkt.Size > c.cfg.LineBytes {
		panic(fmt.Sprintf("cache: %s request of %d bytes exceeds line size %d",
			c.name, pkt.Size, c.cfg.LineBytes))
	}
	lineAddr := pkt.Addr.AlignDown(c.cfg.LineBytes)
	if pkt.End() > lineAddr+mem.Addr(c.cfg.LineBytes) {
		panic(fmt.Sprintf("cache: %s request %s straddles a line", c.name, pkt))
	}
	set, tag := c.indexOf(lineAddr)
	if i := c.lookup(set, tag); i >= 0 {
		// Hit: touch, mark dirty on writes, respond after the hit latency.
		i = c.touch(set, i)
		w := c.tags[i]
		if pkt.Cmd.IsWrite() {
			c.tags[i] = w&^tagPrefetched | tagDirty
			c.st.writeHits.Inc()
		} else {
			c.tags[i] = w &^ tagPrefetched
			c.st.readHits.Inc()
		}
		if w&tagPrefetched != 0 {
			// Tagged prefetching: the first demand touch of a prefetched
			// line confirms the stream and triggers the next prefetch,
			// keeping it alive without further misses.
			c.st.usefulPrefetches.Inc()
			c.maybePrefetch(lineAddr, pkt.RequestorID)
		}
		c.st.hits.Inc()
		c.queueResponse(pkt)
		return true
	}
	// Miss: merge into an in-flight fill when one exists.
	if i := c.findMSHR(lineAddr); i >= 0 {
		m := &c.mshrs[i]
		c.st.misses.Inc()
		c.st.mshrMerges.Inc()
		m.waiters = append(m.waiters, pkt)
		if m.prefetch {
			// A demand access caught up with a speculative fill.
			m.prefetch = false
			c.st.usefulPrefetches.Inc()
		}
		return true
	}
	if c.mshrsInUse >= c.cfg.MSHRs {
		c.st.blockedOnMSHRs.Inc()
		c.retryReq = true
		return false
	}
	c.st.misses.Inc()
	fill := c.pool.NewRead(lineAddr, c.cfg.LineBytes, pkt.RequestorID, c.k.Now())
	m := c.allocMSHR(fill, false)
	m.waiters = append(m.waiters, pkt)
	c.sendToMem(fill)
	c.maybePrefetch(lineAddr, pkt.RequestorID)
	return true
}

// fillOrAck handles packets returning from memory. Both kinds were created
// by this cache and return to its pool here; the sender must not touch the
// packet once this has returned true.
//
//hot:path every fill and writeback acknowledgement
func (c *Cache) fillOrAck(pkt *mem.Packet) bool {
	if pkt.Cmd == mem.WriteResp {
		// Writeback acknowledged: the transaction is over.
		c.pool.Put(pkt)
		return true
	}
	i := c.findMSHR(pkt.Addr)
	if i < 0 || c.mshrs[i].fill != pkt {
		panic(fmt.Sprintf("cache: %s fill for unknown line %s", c.name, pkt))
	}
	m := c.freeMSHR(i)
	if !m.prefetch {
		c.st.missLatency.Sample((c.k.Now() - m.issued).Nanoseconds())
	}

	if pkt.Poisoned {
		// Uncorrectable memory error: never install poisoned data. Every
		// waiter gets its response with the poison intact (the contract of
		// mem.Packet.Poisoned); a poisoned prefetch is simply discarded.
		c.st.poisonedFills.Inc()
		for _, w := range m.waiters {
			w.Poisoned = true
			c.queueResponse(w)
		}
	} else {
		c.install(m)
	}
	c.pool.Put(pkt)
	// MSHR freed: the core may retry.
	if c.retryReq {
		c.retryReq = false
		c.cpuPort.SendReqRetry()
	}
	return true
}

// install places the line m fetched at the front of its set, evicting the
// set's last way (writeback if dirty), and answers every waiter. That way is
// invalid while any is, and otherwise holds the least recently used line.
func (c *Cache) install(m *mshr) {
	set, tag := c.indexOf(m.fill.Addr)
	ways := c.ways(set)
	if old := ways[len(ways)-1]; old&tagValid != 0 {
		c.st.evictions.Inc()
		if old&tagDirty != 0 {
			oldTag := old &^ (tagValid | tagDirty | tagPrefetched)
			victimAddr := mem.Addr((oldTag<<c.setBits | set) << c.lineBits)
			wb := c.pool.NewWrite(victimAddr, c.cfg.LineBytes, m.fill.RequestorID, c.k.Now())
			c.st.writebacks.Inc()
			c.sendToMem(wb)
		}
	}
	w := tag | tagValid
	if m.prefetch {
		w |= tagPrefetched
	}
	for _, p := range m.waiters {
		if p.Cmd.IsWrite() {
			w |= tagDirty // writes dirty the fresh line
		}
		c.queueResponse(p)
	}
	copy(ways[1:], ways)
	ways[0] = w
}

// sendToMem forwards a packet downstream, queueing it when the memory port
// is blocked or a queue already exists (order is preserved).
func (c *Cache) sendToMem(pkt *mem.Packet) {
	c.wbQueue.Push(pkt, 0)
	c.drainMemQueue()
}

func (c *Cache) drainMemQueue() {
	for !c.memBlocked && c.wbQueue.Len() > 0 {
		pkt, _ := c.wbQueue.At(0)
		if !c.memPort.SendTimingReq(pkt) {
			c.memBlocked = true
			return
		}
		c.wbQueue.Pop()
	}
}

// queueResponse schedules a response for pkt after the hit latency.
func (c *Cache) queueResponse(pkt *mem.Packet) {
	c.respQueue.Push(pkt, c.k.Now()+c.cfg.HitLatency)
	if !c.respEvent.Scheduled() && !c.retryResp {
		_, sendAt := c.respQueue.At(0)
		c.k.Schedule(c.respEvent, sendAt)
	}
}

// processResponses sends every due response. An accepted packet may already
// be back in its owner's pool, so it is not touched after the send.
//
//hot:path every response toward the core
func (c *Cache) processResponses() {
	now := c.k.Now()
	for c.respQueue.Len() > 0 {
		pkt, sendAt := c.respQueue.At(0)
		if sendAt > now {
			break
		}
		if pkt.Cmd.IsRequest() {
			pkt.MakeResponse()
		}
		// Off the queue before the send: the requestor may issue into
		// this cache inside it (sim.Kernel.Alone).
		c.respQueue.Pop()
		if !c.cpuPort.SendTimingResp(pkt) {
			c.respQueue.PushFront(pkt, sendAt)
			c.retryResp = true
			return
		}
	}
	if c.respQueue.Len() > 0 && !c.respEvent.Scheduled() {
		_, sendAt := c.respQueue.At(0)
		c.k.Schedule(c.respEvent, sendAt)
	}
}
