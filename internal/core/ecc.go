package core

import (
	"repro/internal/faults"
	"repro/internal/sim"
)

// This file is the controller's RAS (reliability, availability,
// serviceability) path — the extension that lets the model both *inject*
// DRAM faults and *survive* them, in the spirit of ECC DIMMs with SEC-DED
// (72,64), patrol/demand scrubbing, and DDR4 command/address-parity retry:
//
//   - a correctable (single-bit) error is fixed in-line: the burst pays the
//     ECC correction latency and a demand-scrub writeback of the corrected
//     data is queued, so the error does not linger in the array;
//   - an uncorrectable (multi-bit) error poisons the response; the poison
//     flag travels intact through the crossbar and caches to the requester
//     (see mem.Packet.Poisoned) — graceful reporting, never a crash;
//   - a transient whole-burst failure is replayed with exponential backoff
//     in tBURST slots; once the retry limit is exhausted the row is retired
//     (remapped to a spare) and the access completes from the spare.
//
// Everything here is driven by the deterministic injector in
// internal/faults, so identical seeds reproduce identical fault histories.

// inspectReadBurst runs the ECC/fault logic over a just-issued read burst.
// It returns true when the burst failed transiently and was scheduled for
// replay — in that case the caller must not advance the parent transaction.
// The caller guarantees c.inj != nil.
func (c *Controller) inspectReadBurst(dp *dramPacket) (replay bool) {
	dp.attempts++
	switch c.inj.OnReadBurst(dp.coord.Rank, dp.coord.Bank, dp.coord.Row) {
	case faults.OK:
		return false
	case faults.Correctable:
		// SEC-DED fixes the word in-line; the response is delayed by the
		// correction and the corrected data is written back (demand scrub).
		c.st.correctedErrors.Inc()
		dp.readyTime += c.cfg.ECCCorrectionLatency
		c.queueScrub(dp)
		return false
	case faults.Uncorrectable:
		// Detectable but unfixable: complete the access with poison so the
		// requester can contain the damage (machine-check style).
		c.st.uncorrectedErrors.Inc()
		if dp.parent != nil {
			dp.parent.poisoned = true
		}
		return false
	case faults.Transient:
		return c.replayBurst(dp)
	}
	return false
}

// replayBurst re-queues a transiently failed read burst after an exponential
// backoff measured in tBURST slots (1, 2, 4, ... bursts), or — once the
// retry limit is exhausted — retires the row and lets the access complete
// from the remapped spare. It returns true when a replay was scheduled.
func (c *Controller) replayBurst(dp *dramPacket) bool {
	if dp.attempts > c.cfg.FaultRetryLimit {
		// Persistent failure: retire (remap) the row. The injector stops
		// faulting it, so this final access is served by the spare row.
		if c.inj.RetireRow(dp.coord.Rank, dp.coord.Bank, dp.coord.Row) {
			c.st.retiredRows.Inc()
		}
		return false
	}
	c.st.retriedBursts.Inc()
	backoff := c.tim.TBURST << uint(dp.attempts-1)
	retryAt := dp.readyTime + backoff
	// A pooled one-shot event re-queues the burst (replay storms must not
	// churn the allocator); its read-buffer entry stays reserved the whole
	// time, so back pressure is preserved.
	c.armReplay(dp, retryAt)
	return true
}

// armReplay schedules the one-shot replay of dp at retryAt and tracks it in
// pendingReplays so checkpoints can capture — and restores re-create — the
// in-flight backoff.
func (c *Controller) armReplay(dp *dramPacket, retryAt sim.Tick) {
	// Replays only arm when ECC actually corrects or a retry fires — a fault
	// path, not the steady-state cycle the zero-alloc gate covers.
	//hot:allow replay records allocate on the fault path only, not in steady state
	rec := &replayRecord{dp: dp, when: retryAt}
	c.pendingReplays = append(c.pendingReplays, rec)
	// The seq is recorded only so CheckpointSave can reproduce same-tick
	// ordering on restore; nothing ever touches the pooled event through it.
	rec.seq = c.k.Call(c.replayName, retryAt, func() { //hot:allow the replay closure allocates on the fault path only
		c.dropReplay(rec)
		c.readQueue.push(dp)
		c.kickScheduler()
	})
}

// dropReplay removes a fired replay record.
func (c *Controller) dropReplay(rec *replayRecord) {
	for i, r := range c.pendingReplays {
		if r == rec {
			c.pendingReplays = append(c.pendingReplays[:i], c.pendingReplays[i+1:]...)
			return
		}
	}
}

// queueScrub enqueues a full-burst demand-scrub writeback of corrected data.
// Scrubs ride the ordinary write queue and write path, so they obey every
// timing constraint (including refresh: a bank under refresh blocks the
// scrub via actAllowedAt exactly like any other write). Under pressure the
// scrub is dropped rather than deadlocking the queue — patrol scrubbing
// would catch the row again later.
func (c *Controller) queueScrub(dp *dramPacket) {
	if c.writeQueue.n >= c.cfg.WriteBufferSize {
		c.st.droppedScrubs.Inc()
		return
	}
	w := c.newBurst(dp.coord, dp.burstAddr, dp.burstAddr, c.burstBytes)
	w.scrub = true
	c.wakeRank(w.coord.Rank)
	c.writeQueue.push(w)
	c.st.scrubWrites.Inc()
}
