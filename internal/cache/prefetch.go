package cache

import (
	"repro/internal/mem"
)

// Prefetching (paper §II-F: gem5's cache model offers "a range of
// prefetchers"; prefetch traffic is part of what shapes the DRAM access
// stream). Two classic policies are provided:
//
//   - next-line: on every demand miss, also fetch the following line;
//   - stride: detect a per-requestor stride over the last misses and fetch
//     strideDegree lines ahead along it.
//
// Prefetches are issued as ordinary line fills through the memory port, so
// they contend for DRAM exactly like demand traffic; useless prefetches
// therefore cost bandwidth, which is the interesting systems effect.

// PrefetchPolicy selects the prefetcher.
type PrefetchPolicy int

// Prefetch policies.
const (
	// PrefetchNone disables prefetching.
	PrefetchNone PrefetchPolicy = iota
	// PrefetchNextLine fetches line+1 on every demand miss.
	PrefetchNextLine
	// PrefetchStride detects per-requestor strides and runs ahead.
	PrefetchStride
)

// String names the policy.
func (p PrefetchPolicy) String() string {
	switch p {
	case PrefetchNone:
		return "none"
	case PrefetchNextLine:
		return "next-line"
	case PrefetchStride:
		return "stride"
	}
	return "PrefetchPolicy(?)"
}

// strideDegree is how many lines ahead a confirmed stride is prefetched.
const strideDegree = 2

// strideState tracks one requestor's miss pattern.
type strideState struct {
	lastAddr  mem.Addr
	stride    int64
	confirmed int
}

// maybePrefetch is called on every demand miss; it may issue additional
// line fills.
func (c *Cache) maybePrefetch(demand mem.Addr, requestorID int) {
	switch c.cfg.Prefetch {
	case PrefetchNextLine:
		c.issuePrefetch(demand+mem.Addr(c.cfg.LineBytes), requestorID)
	case PrefetchStride:
		st := c.strides[requestorID]
		if st == nil {
			//hot:allow first touch: one entry per requestor for the cache's lifetime
			st = &strideState{}
			c.strides[requestorID] = st
		}
		stride := int64(demand) - int64(st.lastAddr)
		if st.lastAddr != 0 && stride == st.stride && stride != 0 {
			st.confirmed++
		} else {
			st.confirmed = 0
			st.stride = stride
		}
		st.lastAddr = demand
		if st.confirmed >= 2 {
			for d := 1; d <= strideDegree; d++ {
				target := int64(demand) + st.stride*int64(d)
				if target < 0 {
					break
				}
				c.issuePrefetch(mem.Addr(target), requestorID)
			}
		}
	}
}

// issuePrefetch fetches the line containing addr if it is neither resident
// nor already in flight, and an MSHR is spare (prefetches never block
// demand traffic).
func (c *Cache) issuePrefetch(addr mem.Addr, requestorID int) {
	lineAddr := addr.AlignDown(c.cfg.LineBytes)
	set, tag := c.indexOf(lineAddr)
	if c.lookup(set, tag) >= 0 {
		return // already resident
	}
	if c.findMSHR(lineAddr) >= 0 {
		return // already in flight
	}
	// Leave one MSHR free for demand misses.
	if c.mshrsInUse >= c.cfg.MSHRs-1 {
		return
	}
	fill := c.pool.NewRead(lineAddr, c.cfg.LineBytes, requestorID, c.k.Now())
	c.allocMSHR(fill, true)
	c.st.prefetches.Inc()
	c.sendToMem(fill)
}

// PrefetchAccuracy returns useful/issued prefetches (a prefetch is useful
// when a demand access later merges into or hits its line).
func (c *Cache) PrefetchAccuracy() float64 {
	issued := c.st.prefetches.Value()
	if issued == 0 {
		return 0
	}
	return c.st.usefulPrefetches.Value() / issued
}
